// Congestion control algorithms run by the FlexTOE control plane
// (paper Appendix D): the control loop periodically reads per-flow
// statistics from the data-path (ACKed bytes, ECN-marked bytes, fast
// retransmits, RTT estimate) and programs a new transmission rate into
// the flow scheduler. DCTCP and TIMELY are implemented, as in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/time.hpp"
#include "tcp/seq.hpp"

namespace flextoe::tcp {

// Per-control-interval statistics snapshot for one flow.
struct CcInput {
  std::uint64_t acked_bytes = 0;  // newly acknowledged bytes
  std::uint64_t ecn_bytes = 0;    // of which were ECN-marked
  std::uint32_t fast_retx = 0;    // fast retransmits triggered
  std::uint32_t timeouts = 0;     // RTO retransmits triggered
  sim::TimePs rtt = 0;            // latest RTT estimate (0 = none)
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  // Consumes one interval of statistics, returns the new rate (bytes/s).
  virtual std::uint64_t update(const CcInput& in) = 0;

  virtual std::uint64_t rate() const = 0;
  virtual std::string name() const = 0;
};

struct DctcpParams {
  std::uint32_t mss = kDefaultMss;
  std::uint64_t init_cwnd_bytes = 10 * kDefaultMss;
  std::uint64_t max_cwnd_bytes = 8 * 1024 * 1024;
  std::uint64_t min_rate_bps = 10'000;  // bytes/s floor
  std::uint64_t max_rate_bps = 5'000'000'000;  // 40 Gbps in bytes/s
  double gain = 1.0 / 16.0;  // DCTCP g
};

// DCTCP: window-based; the window is converted to a pacing rate
// (cwnd / RTT) for enforcement by the flow scheduler, as TAS does.
class Dctcp final : public CongestionControl {
 public:
  explicit Dctcp(DctcpParams p = {});

  std::uint64_t update(const CcInput& in) override;
  std::uint64_t rate() const override { return rate_; }
  std::string name() const override { return "dctcp"; }

  double alpha() const { return alpha_; }
  std::uint64_t cwnd() const { return cwnd_; }

 private:
  DctcpParams p_;
  double alpha_ = 0.0;
  std::uint64_t cwnd_;
  std::uint64_t ssthresh_;
  std::uint64_t rate_;
};

struct TimelyParams {
  sim::TimePs t_low = sim::us(50);
  sim::TimePs t_high = sim::us(500);
  sim::TimePs min_rtt = sim::us(10);
  double beta = 0.8;
  double add_step = 10.0 * 1024 * 1024;  // additive increase, bytes/s
  std::uint64_t min_rate_bps = 10'000;
  std::uint64_t max_rate_bps = 5'000'000'000;
  int hai_threshold = 5;  // gradient-negative rounds before HAI mode
};

// TIMELY: RTT-gradient rate control.
class Timely final : public CongestionControl {
 public:
  explicit Timely(TimelyParams p = {});

  std::uint64_t update(const CcInput& in) override;
  std::uint64_t rate() const override { return rate_; }
  std::string name() const override { return "timely"; }

 private:
  TimelyParams p_;
  std::uint64_t rate_;
  sim::TimePs prev_rtt_ = 0;
  double rtt_diff_ = 0;  // EWMA of RTT differences
  int neg_gradient_rounds_ = 0;
};

std::unique_ptr<CongestionControl> make_cc(const std::string& name);

}  // namespace flextoe::tcp
