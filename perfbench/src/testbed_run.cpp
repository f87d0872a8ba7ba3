#include "testbed_run.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "workload/stacks.hpp"

namespace perfbench {

namespace app = flextoe::app;

namespace {

// Simulated slice between two samples of the event queue's depth.
constexpr sim::TimePs kSlice = sim::us(20);

// The RPC echo port run_scenario uses for AppKind::RpcEcho.
constexpr std::uint16_t kEchoPort = 7;

Workload catalog(const char* spec_name, sim::TimePs warm,
                 sim::TimePs span) {
  workload::register_builtin_scenarios();
  const workload::ScenarioSpec* s =
      workload::ScenarioRegistry::instance().find(spec_name);
  if (s == nullptr) {
    throw std::runtime_error(std::string("catalog spec missing: ") +
                             spec_name);
  }
  return Workload{*s, warm, span};
}

// The fig15(b) shape: the FlexTOE node sends 64 KiB requests over 8
// connections to an ideal echo server that answers 32 B, through a
// switch that drops 1% of packets uniformly.
Workload bulk_tx_lossy(sim::TimePs warm, sim::TimePs span) {
  workload::ScenarioSpec s;
  s.name = "bulk_tx_lossy";
  s.description = "FlexTOE sends 64KiB RPCs over 8 conns, 1% switch loss";
  s.stack_hosts_clients = true;
  s.conns_per_node = 8;
  s.pipeline = 1;
  s.request_sizes = [] { return workload::fixed_size(64 * 1024); };
  s.response_size = 32;
  s.loss_rate = 0.01;
  s.seed = 61;
  return Workload{std::move(s), warm, span};
}

double seconds(const timeval& tv) {
  return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
}

double cpu_seconds(const rusage& ru) {
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

}  // namespace

std::optional<Workload> find_workload(const std::string& name,
                                      std::uint64_t seed, bool quick) {
  std::optional<Workload> w;
  if (name == "small_rpc") {
    w = quick ? catalog("rpc_echo_closed", sim::ms(1), sim::ms(1))
              : catalog("rpc_echo_closed", sim::ms(2), sim::ms(5));
  } else if (name == "conn_churn") {
    w = quick ? catalog("rpc_conn_churn", sim::ms(1), sim::ms(1))
              : catalog("rpc_conn_churn", sim::ms(2), sim::ms(5));
  } else if (name == "bulk_tx_lossy") {
    w = quick ? bulk_tx_lossy(sim::ms(2), sim::ms(25))
              : bulk_tx_lossy(sim::ms(5), sim::ms(120));
  }
  // The closed-loop catalog specs draw no random numbers, so the seed
  // alone would not change what they measure. It also shifts the end of
  // the warm-up, so each seed measures another window of the run.
  if (w) w->warm += sim::us(5) * (seed % 16);
  return w;
}

Run::Run(const Workload& w, std::uint64_t seed_offset, SpanRecorder* rec)
    : w_(w), rec_(rec) {
  const workload::ScenarioSpec& spec = w.spec;
  if (spec.app != workload::AppKind::RpcEcho || spec.arrival ||
      spec.incast_degree != 0) {
    throw std::runtime_error("benchmark runs closed-loop RPC echo only");
  }
  const std::uint64_t seed = spec.seed + seed_offset;
  tb_ = std::make_unique<app::Testbed>(seed);
  app::Testbed& tb = *tb_;
  const unsigned cores =
      spec.grant_stack_cores
          ? workload::with_stack_cores(spec.stack, spec.server_cores)
          : spec.server_cores;

  // Same node order as run_scenario: the stack under test is switch
  // port 0.
  std::vector<app::Testbed::Node*> gen_nodes;
  if (spec.stack_hosts_clients) {
    gen_nodes.push_back(
        &workload::add_server(tb, spec.stack, cores, {}, spec.nic_gbps));
    server_node_ = &tb.add_client_node();
  } else {
    server_node_ =
        &workload::add_server(tb, spec.stack, cores, {}, spec.nic_gbps);
    for (unsigned i = 0; i < std::max(1u, spec.client_nodes); ++i) {
      gen_nodes.push_back(&tb.add_client_node());
    }
  }
  sut_ = spec.stack_hosts_clients ? gen_nodes.front() : server_node_;
  if (sut_->toe) sut_->toe->control_plane().set_cc_enabled(spec.cc_enabled);
  if (spec.loss_rate > 0) tb.the_switch().set_drop_prob(spec.loss_rate);

  // Traced run: node i sits on switch port i. Splice a shim into its
  // uplink -> switch ingress and switch egress -> device paths.
  if (rec_ != nullptr) {
    flextoe::net::Switch& sw = tb.the_switch();
    for (std::size_t i = 0; i < tb.num_nodes(); ++i) {
      app::Testbed::Node& n = tb.node(i);
      const int port = static_cast<int>(i);
      sink_shims_.push_back(std::make_unique<SinkShim>(
          *rec_, SpanKind::kNetIngress, sw.ingress_sink(port)));
      n.uplink->set_sink(sink_shims_.back().get());
      net::PacketSink* device =
          n.toe ? &n.toe->mac_rx() : static_cast<net::PacketSink*>(n.sw.get());
      sink_shims_.push_back(std::make_unique<SinkShim>(
          *rec_, n.toe ? SpanKind::kCoreDeliver : SpanKind::kBaselineDeliver,
          device));
      sw.attach(port, sink_shims_.back().get());
    }
  }
  auto stack_of = [&](app::Testbed::Node* n,
                      bool app_server) -> tcp::StackIface& {
    if (rec_ == nullptr) return *n->stack;
    stack_shims_.push_back(std::make_unique<TracedStack>(
        *rec_, *n->stack, n->toe != nullptr, app_server));
    return *stack_shims_.back();
  };

  echo_.emplace(tb.ev(), stack_of(server_node_, true),
                app::EchoServer::Params{
                    .port = kEchoPort,
                    .app_cycles = spec.server_app_cycles.value_or(0),
                    .response_size = spec.response_size},
                server_node_->cpu.get());

  for (std::size_t i = 0; i < gen_nodes.size(); ++i) {
    workload::TrafficGenParams gp;
    gp.connections = spec.conns_per_node;
    gp.pipeline = spec.pipeline;
    gp.port = kEchoPort;
    gp.seed = seed * 7919 + i + 1;
    gp.requests_per_conn = spec.requests_per_conn;
    gp.latency_sink = &latency_;
    gens_.push_back(std::make_unique<workload::TrafficGen>(
        tb.ev(), stack_of(gen_nodes[i], false), server_node_->ip, gp,
        nullptr, spec.request_sizes ? spec.request_sizes() : nullptr));
    gens_.back()->start();
  }
}

Run::~Run() = default;

void Run::warm_up() {
  tb_->run_for(w_.warm);
  for (auto& g : gens_) g->clear_stats();
  if (flextoe::core::Datapath* dp = sut_->datapath()) dp->telem().clear();
  server_rx_base_ = echo_->bytes_rx();
}

SpanResult Run::measure() {
  SpanResult r;
  sim::Domain& ev = tb_->ev();
  flextoe::net::Switch& sw = tb_->the_switch();
  flextoe::core::Datapath* dp = sut_->datapath();
  auto connects = [&] {
    std::uint64_t n = 0;
    for (auto& g : gens_) n += g->connected();
    return n;
  };

  const std::uint64_t events0 = ev.executed();
  const std::uint64_t pkts0 = sw.forwarded();
  const std::uint64_t drops0 = sw.dropped_random() + sw.dropped_queue();
  const std::uint64_t connects0 = connects();
  const std::uint64_t rx0 = dp->rx_segments(), tx0 = dp->tx_segments(),
                      acks0 = dp->acks_sent(), ctl0 = dp->to_control_count(),
                      frx0 = dp->fast_retransmits(),
                      ooo0 = dp->ooo_segments();
  rusage ru0{}, ru1{};
  getrusage(RUSAGE_SELF, &ru0);
  const auto t0 = std::chrono::steady_clock::now();
  if (rec_ != nullptr) rec_->start();

  const sim::TimePs start = ev.now();
  auto wall_at = t0;
  double cpu_at = cpu_seconds(ru0);
  std::uint64_t pkts_at = pkts0;
  for (int i = 1; i <= kWindows; ++i) {
    const sim::TimePs end = start + w_.span * sim::TimePs(i) / kWindows;
    while (ev.now() < end) {
      ev.run_until(std::min(end, ev.now() + kSlice));
      r.pending_peak = std::max<std::uint64_t>(r.pending_peak, ev.pending());
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto wall = std::chrono::steady_clock::now();
    r.windows.push_back(
        {std::chrono::duration<double>(wall - wall_at).count(),
         cpu_seconds(ru) - cpu_at, sw.forwarded() - pkts_at});
    wall_at = wall;
    cpu_at = cpu_seconds(ru);
    pkts_at = sw.forwarded();
  }

  if (rec_ != nullptr) rec_->stop();
  const auto t1 = std::chrono::steady_clock::now();
  getrusage(RUSAGE_SELF, &ru1);

  r.span_wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.cpu_user_s = seconds(ru1.ru_utime) - seconds(ru0.ru_utime);
  r.cpu_sys_s = seconds(ru1.ru_stime) - seconds(ru0.ru_stime);
  r.minflt = std::uint64_t(ru1.ru_minflt - ru0.ru_minflt);
  r.events = ev.executed() - events0;
  r.pkts = sw.forwarded() - pkts0;
  r.drops = sw.dropped_random() + sw.dropped_queue() - drops0;
  r.connects = connects() - connects0;
  r.rx_segments = dp->rx_segments() - rx0;
  r.tx_segments = dp->tx_segments() - tx0;
  r.acks = dp->acks_sent() - acks0;
  r.to_control = dp->to_control_count() - ctl0;
  r.fast_retransmits = dp->fast_retransmits() - frx0;
  r.ooo_segments = dp->ooo_segments() - ooo0;

  // The result fields exactly as run_scenario folds them.
  workload::ScenarioResult& s = r.result;
  const double span_sec = sim::to_sec(w_.span);
  std::uint64_t client_rx = 0;
  std::vector<double> per_conn;
  for (auto& g : gens_) {
    s.completed += g->completed();
    client_rx += g->bytes_rx();
    s.connected += g->connected();
    s.reconnects += g->reconnects();
    s.overload_drops += g->overload_drops();
    const auto pc = g->per_conn_completed();
    per_conn.insert(per_conn.end(), pc.begin(), pc.end());
  }
  s.throughput_rps = double(s.completed) / span_sec;
  s.client_rx_gbps = double(client_rx) * 8.0 / span_sec / 1e9;
  s.server_rx_gbps =
      double(echo_->bytes_rx() - server_rx_base_) * 8.0 / span_sec / 1e9;
  if (!latency_.empty()) {
    s.p50_us = latency_.percentile(50);
    s.p99_us = latency_.percentile(99);
    s.p9999_us = latency_.percentile(99.99);
  }
  r.latency_samples = latency_.count();
  if (!per_conn.empty()) s.jfi = sim::jains_fairness_index(per_conn);
  s.telemetry = dp->telem().snapshot();
  return r;
}

}  // namespace perfbench
