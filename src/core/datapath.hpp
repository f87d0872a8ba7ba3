// The FlexTOE data-path (paper §3): a fine-grained, data-parallel
// pipeline of processing modules running on SmartNIC FPCs.
//
//   MAC -> sequencer -> pre-processing -> [reorder] -> protocol (atomic
//   per flow-group) -> post-processing -> DMA -> { NBI [reorder] -> MAC,
//   context-queue -> host }
//
// Host control (HC) descriptors enter via MMIO doorbells and flow through
// the same pipeline (Fig 4); transmissions are triggered by the flow
// scheduler (Fig 5, a hierarchical timing wheel); receives follow
// Fig 6. Segments are one-shot: never buffered on the NIC — payload
// moves directly between the wire and host per-socket payload buffers
// via DMA.
//
// The pipeline *structure* — stage nodes, replica selection, flow-group
// islands, reorder points, the run-to-completion gate, drop taxonomy and
// stage telemetry — lives in the pipeline framework (src/pipeline/): this
// class builds a pipeline::Graph from its DatapathConfig and binds in the
// stage bodies (TCP protocol logic) as handlers. Topology knobs
// (replication, flow-groups, threads/FPC, memory model, reordering) are
// graph configurations; Table 3's ablation and the x86/BlueField ports
// are configurations of this one implementation.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/flow_state.hpp"
#include "core/flow_table.hpp"
#include "core/seg_ctx.hpp"
#include "host/ctx_queue.hpp"
#include "host/payload_buf.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "nfp/dma.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/pool.hpp"
#include "sched/timing_wheel.hpp"
#include "sim/domain.hpp"
#include "telemetry/registry.hpp"
#include "xdp/xdp.hpp"

namespace flextoe::core {

// Parameters for installing an established connection's data-path state
// (done by the control plane after the handshake, paper Appendix D).
struct FlowInstall {
  // Pre-assigned connection index (control plane owns the id space);
  // kInvalidConn lets the data-path pick the next free slot.
  tcp::ConnId conn_id = tcp::kInvalidConn;
  tcp::FlowTuple tuple;
  net::MacAddr local_mac;
  net::MacAddr peer_mac;
  tcp::SeqNum iss = 0;  // our first data byte - 1 (SYN consumed)
  tcp::SeqNum irs = 0;  // peer's first data byte - 1
  std::uint32_t remote_win = 64 * 1024;
  std::uint32_t mss = 1448;
  host::PayloadBuf* rx_buf = nullptr;
  host::PayloadBuf* tx_buf = nullptr;
  std::uint16_t context_id = 0;
  std::uint64_t opaque = 0;
};

class Datapath : public net::PacketSink {
 public:
  struct HostIface {
    // NIC -> host application notification (after DMA + interrupt cost).
    std::function<void(const host::CtxDesc&)> notify;
    // Non-data-path segments forwarded to the control plane.
    std::function<void(const net::PacketPtr&)> to_control;
    // Data-path events the control plane must see (peer FIN consumed).
    std::function<void(tcp::ConnId)> peer_fin;
  };

  Datapath(sim::Domain& ev, DatapathConfig cfg, HostIface host);
  ~Datapath() override;

  // NIC identity (MAC filter + source addressing for generated segments).
  void set_local(net::MacAddr mac, net::Ipv4Addr ip) {
    local_mac_ = mac;
    local_ip_ = ip;
  }
  const net::MacAddr& local_mac() const { return local_mac_; }

  // ---- Wire side ----
  void deliver(const net::PacketPtr& pkt) override;  // MAC RX
  // NIC-style burst RX: admits a span of packets in batch_size chunks
  // with the clock read, XDP cost sum, and ingress dispatch amortized
  // per chunk. Per-segment semantics (filtering, sequencing, replica
  // steering, drops) are identical to delivering each packet alone.
  void deliver_burst(std::span<const net::PacketPtr> pkts);
  void set_mac_sink(net::PacketSink* sink) { mac_sink_ = sink; }

  // ---- Control-plane interface ----
  tcp::ConnId install_flow(const FlowInstall& ins);
  void remove_flow(tcp::ConnId conn);
  bool flow_valid(tcp::ConnId conn) const;
  // Raw segment injection (handshake segments built by the control plane).
  void control_tx(const net::PacketPtr& pkt);
  // Congestion-control statistics snapshot (cleared on read).
  struct CcSnapshot {
    std::uint64_t acked_bytes = 0;
    std::uint64_t ecn_bytes = 0;
    std::uint32_t fast_retx = 0;
    std::uint32_t rtt_us = 0;
    std::uint32_t tx_sent = 0;  // outstanding bytes (RTO detection)
    tcp::SeqNum snd_una = 0;
  };
  CcSnapshot read_cc_stats(tcp::ConnId conn, bool clear = true);
  // Programs the flow scheduler (control plane does the rate division).
  void set_rate(tcp::ConnId conn, std::uint64_t bytes_per_sec);

  // ---- Host (libTOE) interface ----
  host::CtxQueue& hc_queue(std::uint16_t ctx_id);
  void doorbell(std::uint16_t ctx_id);  // MMIO: HC descriptors pending

  // ---- Extensions ----
  void add_xdp_program(xdp::XdpProgramPtr prog);
  void clear_xdp_programs();
  // Statistics & profiling extension (Table 2): charges every stage
  // DatapathConfig::profile_cycles extra while on.
  void set_profiling(bool on);

  // ---- Telemetry ----
  // Drop-reason taxonomy (owned by the pipeline framework): every shed
  // segment is attributed to exactly one reason (their counters sum to
  // drops()).
  using DropReason = pipeline::DropReason;
  static constexpr std::size_t kDropReasons = pipeline::kDropReasons;
  static const char* drop_reason_name(DropReason r) {
    return pipeline::drop_reason_name(r);
  }
  // Out-of-band introspection registry (see telemetry/registry.hpp):
  // stage visit/latency, per-FPC rings, per-flow-group traffic, DMA,
  // scheduler, host context queues, drop reasons. Zero simulated cost.
  telemetry::Registry& telem() { return telem_; }
  const telemetry::Registry& telem() const { return telem_; }

  // ---- Introspection ----
  const DatapathConfig& config() const { return cfg_; }
  std::uint64_t rx_segments() const { return rx_segments_; }
  std::uint64_t tx_segments() const { return tx_segments_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t to_control_count() const { return to_control_count_; }
  // MAC RX filter accounting (not drops: these packets were never ours).
  // kernel_path: non-TCP traffic the offload punts to the kernel stack;
  // not_local: IP-filtered packets for another host. Identical between
  // the per-item and burst delivery paths.
  std::uint64_t kernel_path_count() const { return kernel_path_; }
  std::uint64_t not_local_count() const { return not_local_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t ooo_segments() const { return ooo_segments_; }
  const ProtoState* proto_state(tcp::ConnId conn) const;
  // The flow scheduler (SCH) behind this data-path.
  sched::TimingWheel& scheduler() { return sched_; }
  // The sharded flow-state table (footprint audit, scale tests).
  FlowTable& flow_table() { return table_; }
  const FlowTable& flow_table() const { return table_; }
  // Structural per-connection memory across the data-path: flow table +
  // scheduler state, divided by live connections (bytes-per-conn audit).
  std::size_t conn_bytes_reserved() const;
  // The stage graph this data-path drives (construction/wiring tests,
  // extensions).
  pipeline::Graph& graph() { return *graph_; }
  const pipeline::Graph& graph() const { return *graph_; }
  // The recycled-Packet allocator every segment this data-path generates
  // (ACKs, TX segments, FINs, control-plane handshakes) draws from.
  // In-flight packets keep the pool core alive past ~Datapath.
  net::PacketPool& pkt_pool() { return pkt_pool_; }
  const net::PacketPool& pkt_pool() const { return pkt_pool_; }
  // Total FPCs configured (utilization reporting).
  unsigned total_fpcs() const;
  double fpc_utilization() const;

 private:
  // ---- Stage bodies (bound into the graph as handlers) ----
  void stage_pre_rx(const SegCtxPtr& ctx);
  void stage_pre_tx(const SegCtxPtr& ctx);
  void stage_proto(const SegCtxPtr& ctx);  // kind dispatch + validity
  void proto_rx(ConnRecord& rec, const SegCtxPtr& ctx);
  void proto_tx(ConnRecord& rec, const SegCtxPtr& ctx);
  void proto_hc(ConnRecord& rec, const SegCtxPtr& ctx);
  void stage_post(const SegCtxPtr& ctx);
  void stage_dma(const SegCtxPtr& ctx);
  void stage_ctx_notify(const SegCtxPtr& ctx);

  // Helpers.
  std::uint32_t tx_trigger(std::uint32_t conn);  // scheduler TX callback
  void sched_resync(tcp::ConnId conn, const ConnRecord& rec);
  void spawn_fin_segment(tcp::ConnId conn);
  void nbi_transmit(const net::PacketPtr& pkt);
  void host_notify(const host::CtxDesc& desc);
  void emit_ack_packet(const SegCtxPtr& ctx);
  net::PacketPtr build_tx_packet(const FlowState& fs,
                                 const ProtoSnapshot& snap);
  // Legacy drop accounting fed by the graph's taxonomy.
  void count_drop_legacy(DropReason r);
  // MAC RX filter accounting, shared by the per-item and burst paths.
  void count_kernel_path();
  void count_not_local();
  pipeline::Graph::Handlers make_handlers();

  sim::Domain& ev_;
  telemetry::Registry telem_;
  DatapathConfig cfg_;
  HostIface host_;
  net::PacketSink* mac_sink_ = nullptr;

  nfp::DmaEngine dma_;
  sched::TimingWheel sched_;
  // The stage graph (built from cfg_; destroyed before dma_/sched_).
  std::unique_ptr<pipeline::Graph> graph_;
  // Pooled segment-context allocation (one recycled block per segment).
  pipeline::SharedPool<SegCtx> ctx_pool_;
  // Pooled Packet allocation for generated segments (declared after
  // telem_ so ~PacketPool unbinds before the registry dies).
  net::PacketPool pkt_pool_;

  // Sharded flow-state table (EMEM state + IMEM lookup engine): one
  // open-addressing shard per flow-group island, ConnId directory for
  // the control-plane path (see core/flow_table.hpp).
  FlowTable table_;

  // Host-control queues, one per application context.
  std::vector<std::unique_ptr<host::CtxQueue>> hc_queues_;

  // Destruction sentinel: host-notification events may outlive this
  // object inside a draining EventQueue.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  net::MacAddr local_mac_{};
  net::Ipv4Addr local_ip_ = 0;

  // Effective burst size (resolve_batch(cfg_.batch_size), fixed at
  // construction): chunk bound for deliver_burst and the doorbell drain.
  std::size_t batch_ = 1;

  std::vector<xdp::XdpProgramPtr> xdp_programs_;

  telemetry::Counter* t_host_notify_ = nullptr;
  // MAC filter counters, registered lazily on first hit so default
  // scenario snapshots (which never exercise the filter) stay
  // byte-identical.
  telemetry::Counter* t_kernel_path_ = nullptr;
  telemetry::Counter* t_not_local_ = nullptr;

  std::uint64_t rx_segments_ = 0;
  std::uint64_t tx_segments_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t to_control_count_ = 0;
  std::uint64_t kernel_path_ = 0;
  std::uint64_t not_local_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t ooo_segments_ = 0;
};

}  // namespace flextoe::core
