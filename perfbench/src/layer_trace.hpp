// Outside-in layer trace for the benchmark's traced run.
//
// Every span is recorded by a shim the benchmark inserts at a public
// boundary of the simulator; nothing inside src/ is instrumented:
//  - SinkShim: a net::PacketSink spliced between a node's uplink and its
//    switch ingress ("net.ingress"), or between a switch egress port and
//    the device behind it ("core.deliver" for a FlexTOE NIC,
//    "baseline.deliver" for a software stack).
//  - TracedStack: a tcp::StackIface decorator around a node's stack
//    (libTOE -> "host.*", SwTcpStack -> "baseline.*") that also wraps the
//    StackCallbacks it forwards ("app.*" on the server node,
//    "workload.*" on traffic-generator nodes).
//
// Spans nest through one stack of open frames, so each span's self time
// is its duration minus the durations of the spans it directly
// contains; summed over all kinds, self times partition the wall time
// the boundaries cover.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "tcp/stack_iface.hpp"

namespace perfbench {

namespace net = flextoe::net;
namespace tcp = flextoe::tcp;

enum class SpanKind : std::uint8_t {
  kNetIngress,
  kCoreDeliver,
  kBaselineDeliver,
  kHostSend,
  kHostRecv,
  kHostConnect,
  kHostClose,
  kHostOther,  // listen, rx_available, tx_space, set_callbacks
  kBaselineSend,
  kBaselineRecv,
  kBaselineConnect,
  kBaselineClose,
  kBaselineOther,
  kAppOnData,
  kAppOnOther,  // accept / connected / sendable / close callbacks
  kWorkloadOnData,
  kWorkloadOnOther,
  kCount,
};
inline constexpr std::size_t kNumSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind k);

// Spans and per-kind totals of one measured span. Recording is off until
// start(); a shim on an inactive recorder only forwards.
class SpanRecorder {
 public:
  struct Span {
    std::int64_t start_ns = 0;  // steady_clock, relative to start()
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNoParent;  // index into spans(), if kept
    tcp::ConnId conn = tcp::kInvalidConn;
    SpanKind kind = SpanKind::kCount;
  };
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t self_ns = 0;
  };
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFF;

  explicit SpanRecorder(std::size_t max_kept_spans)
      : max_kept_(max_kept_spans) {}

  // Clears spans and totals and starts recording.
  void start();
  void stop() { active_ = false; }
  bool active() const { return active_; }

  void begin(SpanKind k, tcp::ConnId conn);
  void end();

  const std::array<Totals, kNumSpanKinds>& totals() const { return totals_; }

  // Writes the kept spans as Chrome trace-event JSON (args carry the
  // span index, parent index and ConnId; otherData the number of spans
  // not kept because the buffer was full). Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t index;  // kept-span index or kNoParent
    SpanKind kind;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::size_t max_kept_;
  bool active_ = false;
  std::chrono::steady_clock::time_point origin_{};
  std::vector<Frame> open_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::array<Totals, kNumSpanKinds> totals_{};
};

// RAII span; a no-op while the recorder is inactive.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, SpanKind k,
             tcp::ConnId conn = tcp::kInvalidConn)
      : rec_(rec.active() ? &rec : nullptr) {
    if (rec_) rec_->begin(k, conn);
  }
  ~ScopedSpan() {
    if (rec_) rec_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

// Forwards every packet to `target` inside a span of `kind`.
class SinkShim : public net::PacketSink {
 public:
  SinkShim(SpanRecorder& rec, SpanKind kind,
           net::PacketSink* target)
      : rec_(rec), kind_(kind), target_(target) {}
  void deliver(const net::PacketPtr& pkt) override {
    ScopedSpan s(rec_, kind_);
    target_->deliver(pkt);
  }

 private:
  SpanRecorder& rec_;
  SpanKind kind_;
  net::PacketSink* target_;
};

// StackIface decorator. `flextoe_node` selects the host.* (libTOE) or
// baseline.* (SwTcpStack) span names for stack calls; `app_server`
// selects app.* or workload.* for the callbacks it forwards.
class TracedStack : public tcp::StackIface {
 public:
  TracedStack(SpanRecorder& rec, tcp::StackIface& inner,
              bool flextoe_node, bool app_server);

  void set_callbacks(tcp::StackCallbacks cbs) override;
  void listen(std::uint16_t port) override;
  tcp::ConnId connect(net::Ipv4Addr ip, std::uint16_t port) override;
  std::size_t send(tcp::ConnId c, std::span<const std::uint8_t> d) override;
  std::size_t recv(tcp::ConnId c, std::span<std::uint8_t> out) override;
  std::size_t rx_available(tcp::ConnId c) const override;
  std::size_t tx_space(tcp::ConnId c) const override;
  void close(tcp::ConnId c) override;
  net::Ipv4Addr local_ip() const override {
    return inner_.local_ip();
  }

 private:
  SpanKind op(SpanKind host, SpanKind baseline) const {
    return flextoe_node_ ? host : baseline;
  }

  SpanRecorder& rec_;
  tcp::StackIface& inner_;
  bool flextoe_node_;
  bool app_server_;
};

}  // namespace perfbench
