// Table 4: FlexTOE congestion control under incast. A FlexTOE machine
// sends 64 KB RPCs over many connections toward a server behind a shaped
// switch port (incast degree d -> 40/d Gbps) with WRED tail drops and ECN
// marking. Control-plane-driven DCTCP paces the offloaded flows through
// the flow scheduler; the ablation turns that off (unpaced). Two
// series (cc_on / cc_off); rows are "<degree>/<conns>" cases. The
// inverted topology (stack under test on the sender side) comes from the
// workload engine's stack_hosts_clients mode.
#include <cstdio>

#include "common.hpp"

using namespace flextoe;
using namespace flextoe::benchx;

namespace {

workload::ScenarioResult run_case(unsigned degree, unsigned conns,
                                  bool cc_on, std::uint64_t seed,
                                  sim::TimePs warm, sim::TimePs span) {
  workload::ScenarioSpec spec;
  spec.app = workload::AppKind::RpcEcho;
  spec.stack = Stack::FlexToe;
  spec.stack_hosts_clients = true;  // FlexTOE sender is the system under test
  spec.server_cores = 8;
  spec.conns_per_node = conns;
  spec.pipeline = 1;
  spec.response_size = 32;
  spec.request_sizes = [] { return workload::fixed_size(64 * 1024); };
  spec.incast_degree = degree;
  spec.cc_enabled = cc_on;
  spec.seed = seed;
  workload::RunOptions ro;
  ro.warm_override = warm;
  ro.span_override = span;
  return workload::run_scenario(spec, ro);
}

}  // namespace

BENCH_SCENARIO(table4, "congestion control under incast") {
  const auto warm = ctx.pick(sim::ms(60), sim::ms(10));
  const auto span = ctx.pick(sim::ms(250), sim::ms(30));

  struct Case {
    unsigned deg, conns;
  };
  const auto cases = ctx.pick<std::vector<Case>>(
      {{4, 16}, {4, 64}, {4, 128}, {10, 10}, {20, 20}}, {{4, 16}});

  for (Case c : cases) {
    char label[32];
    std::snprintf(label, sizeof label, "%u/%u", c.deg, c.conns);
    for (bool cc_on : {true, false}) {
      const auto res =
          run_case(c.deg, c.conns, cc_on, ctx.seed(73), warm, span);
      auto& row =
          ctx.report().series(cc_on ? "cc_on" : "cc_off").row(label);
      row.set("gbps", res.server_rx_gbps);
      row.set("p99.99_ms", res.p9999_us / 1000.0);
      row.set("jfi", res.jfi);
    }
  }
  ctx.report().note(
      "Paper shape: CC achieves the shaped line rate with low tail and "
      "high JFI; disabling it causes excessive drops — tail latency\n"
      "inflated up to ~18x and fairness skewed (JFI down to ~0.46), worst "
      "at higher incast degrees.");
}
