// Figure 13: connection scalability — throughput vs number of
// connections (64 B echo, one RPC in flight per connection). Stresses the
// NIC memory hierarchy: per-connection batching vanishes, so every
// pipeline stage misses its caches. One series per stack; rows are
// connection counts.
//
// A second scenario (conn_scale) pushes the simulated SUT itself to a
// million concurrent connections: per-island Datapaths with sharded
// flow tables and the hierarchical timing wheel, driven by the in-tree
// web-search/data-mining flow-size CDFs plus install/remove churn. Its
// rows report bytes_per_conn (the paper's "millions of connections fit
// in NIC memory" claim as a measured quantity) and a determinism
// fingerprint that must not move across --threads settings
// (tools/check_scale.py gates both in CI).
#include <chrono>
#include <memory>
#include <vector>

#include "common.hpp"
#include "workload/size_model.hpp"

using namespace flextoe;
using namespace flextoe::benchx;

namespace {

double run_point(Stack s, unsigned conns, std::uint64_t seed, sim::TimePs warm,
                 sim::TimePs span) {
  Testbed tb(seed);
  // 64 B RPCs need tiny buffers; shrink to bound testbed memory.
  host::FlexToeNicConfig toe_cfg;
  app::NodeParams np;
  np.cores = 8;
  // 100G MAC isolates NIC compute/memory scaling from line rate
  // (64 B echo wire overhead saturates 40G before the caches bind).
  np.nic_gbps = 100.0;
  np.sockbuf_bytes = 8 * 1024;
  Testbed::Node* server_ptr = nullptr;
  if (s == Stack::FlexToe) {
    server_ptr = &tb.add_flextoe_node(np, toe_cfg);
  } else {
    auto pers = personality(s);
    np.serial_fraction = pers.serial_fraction;
    server_ptr = &tb.add_sw_node(np, pers);
  }
  auto& server = *server_ptr;
  app::EchoServer srv(tb.ev(), *server.stack, {.port = 7},
                      server.cpu.get());

  // Five client machines, as in the paper.
  std::vector<std::unique_ptr<app::ClosedLoopClient>> clients;
  const unsigned nclients = 5;
  for (unsigned i = 0; i < nclients; ++i) {
    auto& cn = tb.add_client_node(100.0, /*sockbuf=*/8 * 1024);
    app::ClosedLoopClient::Params cp;
    cp.connections = conns / nclients;
    cp.pipeline = 1;  // a single 64 B RPC in flight per connection
    cp.request_size = 64;
    cp.connect_stagger = sim::us(2);
    clients.push_back(std::make_unique<app::ClosedLoopClient>(
        tb.ev(), *cn.stack, server.ip, cp));
    clients.back()->start();
  }

  // Allow all handshakes to complete.
  tb.run_for(warm);
  std::uint64_t base = 0;
  for (auto& c : clients) base += c->completed();
  tb.run_for(span);
  std::uint64_t done = 0;
  for (auto& c : clients) done += c->completed();
  done -= base;
  return static_cast<double>(done) / sim::to_sec(span) / 1e6;
}

}  // namespace

BENCH_SCENARIO(fig13, "throughput (MOps) vs connections (64B echo)") {
  const auto conn_counts = ctx.pick<std::vector<unsigned>>(
      {1024, 2048, 8192, 16384}, {256});
  const auto warm = ctx.pick(sim::ms(40), sim::ms(10));
  const auto span = ctx.pick(sim::ms(20), sim::ms(4));

  for (unsigned conns : conn_counts) {
    for (Stack s : all_stacks()) {
      const double mops = ctx.measure([&](int rep) {
        return run_point(s, conns, ctx.seed(41 + static_cast<unsigned>(rep)), warm,
                         span);
      });
      ctx.report().series(stack_name(s)).set(std::to_string(conns), "mops",
                                             mops);
    }
  }
  ctx.report().note(
      "Paper shape: FlexTOE ~3.3x Linux up to 2K conns (CLS-cached), "
      "declines ~24% by 8K (EMEM cache strained) then plateaus;\n"
      "TAS ~1.5x FlexTOE at scale (big host LLC); Linux declines sharply; "
      "Chelsio worst (epoll overhead).");
}

// ---------------------------------------------------------------------
// conn_scale: million-connection scale-out of the SUT itself.

namespace {

constexpr unsigned kIslands = 4;
constexpr std::uint32_t kMss = 1448;
constexpr tcp::SeqNum kIss = 1000, kIrs = 2000;
// Flow-size samples capped so one message fits the 64 KB windows
// without ACK clocking or RX frees (no peer exists in this rig).
constexpr std::uint32_t kSizeCap = 32 * 1024;

// One flow-group island: a Datapath in its own event domain, a slice of
// the total connection population, and self-driving generator events
// (install, per-segment RX injection, doorbell-driven TX, churn) that
// all run INSIDE the domain — so the island's flow-table shards bind to
// the worker thread that owns the domain (sim/affinity.hpp) and a
// --threads N run stays event-identical to the sequential one.
class ScaleIsland {
 public:
  ScaleIsland(sim::Domain& dom, unsigned id, std::uint32_t conns,
              std::uint32_t active, std::uint32_t churn)
      : dom_(dom),
        id_(id),
        conns_target_(conns),
        active_(std::min(active, conns)),
        churn_target_(churn),
        rng_(dom.rng().fork()),
        // Alternate the two in-tree datacenter distributions across
        // islands; both are heavy-tailed, data-mining more so.
        sizes_(workload::empirical_size(id % 2 == 0
                                            ? workload::websearch_flow_cdf()
                                            : workload::datamining_flow_cdf(),
                                        kSizeCap)),
        rx_buf_(64 * 1024),
        tx_buf_(64 * 1024),
        dp_(dom, scale_config(conns), null_host()) {
    dp_.set_local(mac(0xA0), net::make_ip(10, 0, id_ + 1, 1));
    // Socket buffers start uninitialised, and the rig's TX doorbells send
    // from this ring without writing it: give it defined bytes once.
    tx_buf_.write(0, std::vector<std::uint8_t>(tx_buf_.size()));
  }

  // Everything runs as domain events: arm() only schedules the seed.
  void arm() {
    dom_.schedule_at(0, [this] { setup(); });
  }

  core::Datapath& dp() { return dp_; }
  std::uint64_t churned() const { return churned_; }
  sim::TimePs now() const { return dom_.now(); }

 private:
  static core::DatapathConfig scale_config(std::uint32_t conns) {
    core::DatapathConfig cfg;
    cfg.max_conns = conns;
    return cfg;
  }

  static core::Datapath::HostIface null_host() {
    core::Datapath::HostIface host;
    host.notify = [](const host::CtxDesc&) {};
    host.to_control = [](const net::PacketPtr&) {};
    host.peer_fin = [](tcp::ConnId) {};
    return host;
  }

  net::MacAddr mac(std::uint8_t kind) const {
    return net::MacAddr::from_u64(0x020000000000ull | (kind << 8) | id_);
  }

  tcp::FlowTuple fresh_tuple() {
    const std::uint32_t n = next_tuple_++;
    tcp::FlowTuple t;
    t.local_ip = net::make_ip(10, 0, id_ + 1, 1);
    t.local_port = 80;
    t.remote_ip = net::make_ip(11, id_ + 1, 0, 0) + (n >> 16);
    t.remote_port = static_cast<std::uint16_t>(n);
    return t;
  }

  tcp::ConnId install_one() {
    core::FlowInstall ins;
    ins.tuple = fresh_tuple();
    ins.local_mac = mac(0xA0);
    ins.peer_mac = mac(0xB0);
    ins.iss = kIss;
    ins.irs = kIrs;
    ins.rx_buf = &rx_buf_;  // shared ring: positions may overlap, the
    ins.tx_buf = &tx_buf_;  // rig never reads payload back
    return dp_.install_flow(ins);
  }

  void setup() {
    conns_.reserve(conns_target_);
    for (std::uint32_t i = 0; i < conns_target_; ++i) {
      conns_.push_back(install_one());
    }
    // Even active slots receive a CDF-sized message as in-order MSS
    // segments; odd slots transmit one (doorbell -> wheel-paced TX).
    rx_msg_.assign(active_, 0);
    rx_seen_.assign(active_, 0);
    rx_stall_.assign(active_, 0);
    const sim::TimePs t0 = dom_.now() + sim::us(5);
    for (std::uint32_t a = 0; a < active_; ++a) {
      const sim::TimePs at = t0 + sim::ns(200) * a;  // staggered starts
      if (a % 2 == 0) {
        rx_msg_[a] = sizes_->sample(rng_);
        dom_.schedule_at(at, [this, a] { deliver_next(a); });
      } else {
        dom_.schedule_at(at, [this, a] { start_tx(a); });
      }
    }
    if (churn_target_ > 0 && conns_target_ > active_) {
      dom_.schedule_at(t0 + sim::us(1), [this] { churn_one(); });
    }
  }

  void start_tx(std::uint32_t a) {
    const tcp::ConnId conn = conns_[a];
    // Paced below the uncongested threshold so every re-arm goes
    // through the wheel: 0.25..2 GB/s.
    dp_.set_rate(conn, 250'000'000 + rng_.next_below(1'750'000'000));
    const std::uint32_t bytes = sizes_->sample(rng_);
    dp_.hc_queue(0).push({host::CtxDescType::TxDoorbell, conn, bytes, 0});
    dp_.doorbell(0);
  }

  void deliver_next(std::uint32_t a) {
    const tcp::ConnId conn = conns_[a];
    const core::ProtoState* ps = dp_.proto_state(conn);
    if (ps == nullptr) return;
    // Ack-clocked, one segment in flight per flow: the next in-order
    // sequence position comes straight from the SUT's own cumulative
    // ack. Inject only when the ack moved since the last poll (the
    // previous segment landed) or after an 8-poll stall (retransmit
    // after a shed segment) — never blind re-offers, which would melt
    // the pipeline in duplicates at this flow count.
    const std::uint32_t delivered = ps->ack - (kIrs + 1);
    if (delivered >= rx_msg_[a]) return;  // message fully consumed
    const bool progressed = delivered != rx_seen_[a] || rx_stall_[a] == 0;
    rx_seen_[a] = delivered;
    if (progressed || ++rx_stall_[a] >= 8) {
      rx_stall_[a] = 1;
      const std::uint32_t len = std::min(rx_msg_[a] - delivered, kMss);
      const tcp::FlowTuple& t = dp_.flow_table().get(conn)->fs.tuple;
      dp_.deliver(net::make_tcp_packet(
          mac(0xB0), mac(0xA0), t.remote_ip, t.local_ip, t.remote_port,
          t.local_port, ps->ack, kIss + 1,
          net::tcpflag::kAck | net::tcpflag::kPsh,
          std::vector<std::uint8_t>(len, 0x5A)));
    }
    dom_.schedule_at(dom_.now() + sim::us(1), [this, a] { deliver_next(a); });
  }

  void churn_one() {
    // Victims cycle through the passive population (never an active
    // slot): remove, then immediately install a fresh tuple — the
    // backward-shift erase and re-insert path at full population.
    const std::uint32_t v =
        active_ + static_cast<std::uint32_t>(
                      churned_ % (conns_.size() - active_));
    dp_.remove_flow(conns_[v]);
    conns_[v] = install_one();
    ++churned_;
    if (churned_ < churn_target_) {
      dom_.schedule_at(dom_.now() + sim::us(2), [this] { churn_one(); });
    }
  }

  sim::Domain& dom_;
  unsigned id_;
  std::uint32_t conns_target_;
  std::uint32_t active_;
  std::uint32_t churn_target_;
  sim::Rng rng_;
  std::unique_ptr<workload::SizeModel> sizes_;
  host::PayloadBuf rx_buf_, tx_buf_;
  core::Datapath dp_;
  std::vector<tcp::ConnId> conns_;
  std::vector<std::uint32_t> rx_msg_;    // per active slot: message bytes
  std::vector<std::uint32_t> rx_seen_;   // delivered bytes at last poll
  std::vector<std::uint32_t> rx_stall_;  // polls since last injection
  std::uint32_t next_tuple_ = 0;
  std::uint64_t churned_ = 0;
};

struct ScalePoint {
  double segments = 0;       // RX + TX segments processed
  double sim_sec = 0;        // simulated span (quiesce time)
  double wall_us = 0;        // host wall-clock for the whole point
  double bytes_per_conn = 0; // flow table + scheduler, per live conn
  double conns_live = 0;
  double churn = 0;
  std::uint64_t fingerprint = 0;
};

ScalePoint run_scale_point(std::uint32_t total_conns, std::uint64_t seed,
                           int threads) {
  const std::uint32_t per_island = total_conns / kIslands;
  const std::uint32_t active = std::min<std::uint32_t>(per_island, 2048);
  const std::uint32_t churn = std::min<std::uint32_t>(per_island / 10, 1000);

  sim::DomainScheduler::Params sp;
  sp.threads = static_cast<unsigned>(threads);
  sim::DomainScheduler sched(kIslands, seed, sp);
  std::vector<std::unique_ptr<ScaleIsland>> islands;
  for (unsigned i = 0; i < kIslands; ++i) {
    islands.push_back(std::make_unique<ScaleIsland>(
        sched.domain(i), i, per_island, active, churn));
  }
  for (auto& is : islands) is->arm();

  const auto wall0 = std::chrono::steady_clock::now();
  sched.run_all();
  const auto wall1 = std::chrono::steady_clock::now();

  ScalePoint pt;
  pt.wall_us = std::chrono::duration<double, std::micro>(wall1 - wall0).count();
  std::uint64_t fp = 0xcbf29ce484222325ull;  // FNV-1a over island state
  auto mix = [&fp](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (v >> (8 * i)) & 0xFF;
      fp *= 0x100000001b3ull;
    }
  };
  double bytes = 0;
  sim::TimePs end = 0;
  for (const auto& is : islands) {
    core::Datapath& dp = is->dp();
    pt.segments += static_cast<double>(dp.rx_segments() + dp.tx_segments());
    pt.conns_live += static_cast<double>(dp.flow_table().size());
    pt.churn += static_cast<double>(is->churned());
    bytes += static_cast<double>(dp.conn_bytes_reserved());
    end = std::max(end, is->now());
    mix(dp.rx_segments());
    mix(dp.tx_segments());
    mix(dp.acks_sent());
    mix(dp.drops());
    mix(dp.flow_table().size());
    mix(dp.flow_table().rehashes());
    mix(dp.scheduler().triggers());
    mix(dp.conn_bytes_reserved());
  }
  pt.sim_sec = sim::to_sec(end);
  pt.bytes_per_conn = pt.conns_live > 0 ? bytes / pt.conns_live : 0;
  // Truncate to 48 bits so the value is exactly representable as the
  // JSON double every other row metric already is.
  pt.fingerprint = fp & 0xFFFFFFFFFFFFull;
  return pt;
}

}  // namespace

BENCH_SCENARIO(conn_scale,
               "SUT scale-out: sharded tables + timing wheel to 1M conns") {
  const auto conn_counts = ctx.pick<std::vector<std::uint32_t>>(
      {10'000, 100'000, 1'000'000}, {10'000, 100'000});

  auto& series = ctx.report().series("flextoe_sut");
  for (std::uint32_t conns : conn_counts) {
    // One deterministic run per point: wall time is reported, so
    // repeats would only average noise into an otherwise reproducible
    // row — variance belongs to --seed sweeps.
    const ScalePoint pt =
        run_scale_point(conns, ctx.seed(1300 + conns), ctx.threads());
    const std::string label = std::to_string(conns);
    series.set(label, "segments_per_sec",
               pt.sim_sec > 0 ? pt.segments / pt.sim_sec : 0);
    series.set(label, "host_us_per_seg",
               pt.segments > 0 ? pt.wall_us / pt.segments : 0);
    series.set(label, "bytes_per_conn", pt.bytes_per_conn);
    series.set(label, "conns_live", pt.conns_live);
    series.set(label, "churn_ops", pt.churn);
    series.set(label, "fingerprint", static_cast<double>(pt.fingerprint));
  }
  ctx.report().note(
      "conn_scale drives the simulated SUT itself (4 island datapaths, "
      "web-search/data-mining flow CDFs, install/remove churn);\n"
      "bytes_per_conn = (flow table + scheduler) / live conns — the "
      "paper's EMEM-capacity claim as a regression-gated number.\n"
      "fingerprint is invariant across --threads (tools/check_scale.py).");
}
