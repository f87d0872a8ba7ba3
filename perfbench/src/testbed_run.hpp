// The benchmark's workloads and one measured run of a workload.
//
// A Run assembles the testbed a workload::ScenarioSpec describes from the
// library's public pieces (app::Testbed, workload::add_server,
// workload::TrafficGen, app::EchoServer), in the same order as
// workload::run_scenario, so its modelled results match run_scenario's
// for the same spec and seed. Assembling it here lets the benchmark time
// set-up apart from the measured span and, in the traced run, splice the
// layer_trace shims into every switch port, uplink and stack.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/rpc_app.hpp"
#include "app/testbed.hpp"
#include "layer_trace.hpp"
#include "sim/stats.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace sim = flextoe::sim;
namespace workload = flextoe::workload;

struct Workload {
  workload::ScenarioSpec spec;
  sim::TimePs warm = 0;
  sim::TimePs span = 0;
};

// The benchmark's workloads, by name; nullopt if unknown. `quick` picks
// short spans for the benchmark's own tests. The seed shifts the end of
// the warm-up (see find_workload).
std::optional<Workload> find_workload(const std::string& name,
                                      std::uint64_t seed, bool quick);

// What one measured span produced. `modelled` fields depend only on the
// spec and seed; the rest is host cost.
struct SpanResult {
  workload::ScenarioResult result;  // same fields as run_scenario's
  std::uint64_t latency_samples = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t pkts = 0;
  std::uint64_t drops = 0;
  std::uint64_t rx_segments = 0, tx_segments = 0, acks = 0, to_control = 0,
                fast_retransmits = 0, ooo_segments = 0;
  std::uint64_t connects = 0;  // connections opened during the span

  double span_wall_s = 0;
  double cpu_user_s = 0, cpu_sys_s = 0;
  std::uint64_t minflt = 0;
  // The span cut into kWindows equal simulated windows: host wall and
  // CPU seconds and packets forwarded in each.
  struct Window {
    double wall_s = 0, cpu_s = 0;
    std::uint64_t pkts = 0;
  };
  std::vector<Window> windows;
};

inline constexpr int kWindows = 16;

class Run {
 public:
  // Builds the testbed and starts traffic. With `rec`, every switch
  // port, uplink and stack is wrapped in a recording shim.
  Run(const Workload& w, std::uint64_t seed_offset, SpanRecorder* rec);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  // Simulates the warm-up and resets the measurement state, as
  // run_scenario does.
  void warm_up();
  // Simulates the measured span.
  SpanResult measure();

 private:
  const Workload& w_;
  SpanRecorder* rec_;
  std::vector<std::unique_ptr<SinkShim>> sink_shims_;
  std::vector<std::unique_ptr<TracedStack>> stack_shims_;
  std::unique_ptr<flextoe::app::Testbed> tb_;
  flextoe::app::Testbed::Node* server_node_ = nullptr;
  flextoe::app::Testbed::Node* sut_ = nullptr;
  sim::Percentiles latency_{1 << 18};
  std::optional<flextoe::app::EchoServer> echo_;
  std::vector<std::unique_ptr<workload::TrafficGen>> gens_;
  std::uint64_t server_rx_base_ = 0;
};

}  // namespace perfbench
