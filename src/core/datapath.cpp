// Datapath implementation: TCP stage bodies (pre/protocol/post/DMA/
// notify) bound into the pipeline::Graph that owns all structure —
// stage dispatch, replica selection, sequencing/reorder, the RTC gate,
// drop taxonomy and stage telemetry live in src/pipeline/graph.cpp.
#include "core/datapath.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/batch.hpp"

namespace flextoe::core {

using tcp::ConnId;
using tcp::SeqNum;
using tcp::seq_diff;
using tcp::seq_ge;
using tcp::seq_gt;
using tcp::seq_le;
using tcp::seq_lt;
namespace flag = net::tcpflag;

namespace {

std::uint32_t now_us_of(sim::Domain& ev) {
  return static_cast<std::uint32_t>(ev.now() / sim::kPsPerUs);
}

}  // namespace

pipeline::Graph::Handlers Datapath::make_handlers() {
  pipeline::Graph::Handlers h;
  h.pre_rx = [this](const SegCtxPtr& ctx) { stage_pre_rx(ctx); };
  h.pre_tx = [this](const SegCtxPtr& ctx) { stage_pre_tx(ctx); };
  h.proto = [this](const SegCtxPtr& ctx) { stage_proto(ctx); };
  h.post = [this](const SegCtxPtr& ctx) { stage_post(ctx); };
  h.dma = [this](const SegCtxPtr& ctx) { stage_dma(ctx); };
  h.ctx_notify = [this](const SegCtxPtr& ctx) { stage_ctx_notify(ctx); };
  h.conn_valid = [this](const SegCtxPtr& ctx) {
    return table_.valid(ctx->conn_idx);
  };
  h.nbi_tx = [this](const net::PacketPtr& pkt) { nbi_transmit(pkt); };
  h.redirect = [this](const SegCtxPtr& ctx) {
    ++to_control_count_;
    host_.to_control(ctx->pkt);
  };
  h.on_drop = [this](DropReason r) { count_drop_legacy(r); };
  return h;
}

Datapath::Datapath(sim::Domain& ev, DatapathConfig cfg, HostIface host)
    : ev_(ev),
      cfg_(cfg),
      host_(std::move(host)),
      dma_(ev, cfg.dma),
      sched_(ev),
      table_(std::max(1u, cfg.flow_groups), cfg.max_conns) {
  batch_ = resolve_batch(cfg_.batch_size);
  graph_ = std::make_unique<pipeline::Graph>(ev_, cfg_, dma_,
                                             make_handlers());

  sched_.set_trigger([this](std::uint32_t conn) {
    return tx_trigger(conn);
  });

  graph_->bind_telemetry(telem_);
  t_host_notify_ = telem_.counter("hostq/notify");
  dma_.bind_telemetry(telem_, "dma");
  sched_.bind_telemetry(telem_, "sched");
  table_.bind_telemetry(telem_, "flowtab");
  pkt_pool_.bind_telemetry(telem_, "pool/pkt");
}

Datapath::~Datapath() { *alive_ = false; }

// ------------------------------------------------------------ telemetry

void Datapath::count_drop_legacy(DropReason r) {
  (void)r;  // taxonomy counters live in the graph
  ++drops_;
}

unsigned Datapath::total_fpcs() const { return graph_->total_fpcs(); }

double Datapath::fpc_utilization() const {
  const double elapsed = static_cast<double>(ev_.now()) * total_fpcs();
  return elapsed > 0 ? static_cast<double>(graph_->total_busy()) / elapsed
                     : 0.0;
}

// --------------------------------------------------------- flow install

ConnId Datapath::install_flow(const FlowInstall& ins) {
  const ConnId conn = table_.insert(ins.tuple, ins.conn_id);
  ConnRecord& rec = *table_.get(conn);
  FlowState& fs = rec.fs;
  fs.pre.peer_mac = ins.peer_mac;
  fs.pre.peer_ip = ins.tuple.remote_ip;
  fs.pre.local_port = ins.tuple.local_port;
  fs.pre.remote_port = ins.tuple.remote_port;
  fs.pre.flow_group = static_cast<std::uint8_t>(ins.tuple.flow_group(
      static_cast<std::uint32_t>(graph_->group_count())));
  fs.proto = ProtoState{};
  fs.proto.seq = ins.iss + 1;
  fs.proto.ack = ins.irs + 1;
  fs.proto.remote_win = ins.remote_win;
  fs.proto.rx_avail =
      static_cast<std::uint32_t>(ins.rx_buf ? ins.rx_buf->size() : 0);
  fs.post = PostState{};
  fs.post.context_id = ins.context_id;
  fs.post.opaque = ins.opaque;
  fs.post.rx_size =
      static_cast<std::uint32_t>(ins.rx_buf ? ins.rx_buf->size() : 0);
  fs.post.tx_size =
      static_cast<std::uint32_t>(ins.tx_buf ? ins.tx_buf->size() : 0);
  rec.rx_buf = ins.rx_buf;
  rec.tx_buf = ins.tx_buf;
  rec.snd_max = fs.proto.seq;
  rec.high_rtx = fs.proto.seq;
  if (local_mac_.to_u64() == 0) local_mac_ = ins.local_mac;
  sched_.set_rate(conn, 0);  // uncongested until the CC loop speaks
  return conn;
}

void Datapath::remove_flow(ConnId conn) {
  if (!table_.erase(conn)) return;
  sched_.remove_flow(conn);
}

bool Datapath::flow_valid(ConnId conn) const { return table_.valid(conn); }

const ProtoState* Datapath::proto_state(ConnId conn) const {
  const ConnRecord* rec = table_.get(conn);
  return rec != nullptr ? &rec->fs.proto : nullptr;
}

Datapath::CcSnapshot Datapath::read_cc_stats(ConnId conn, bool clear) {
  CcSnapshot s;
  ConnRecord* rec = table_.get(conn);
  if (rec == nullptr) return s;
  s.acked_bytes = rec->cc.acked;
  s.ecn_bytes = rec->cc.ecn;
  s.fast_retx = rec->cc.fretx;
  s.rtt_us = rec->fs.post.rtt_est;
  s.tx_sent = rec->fs.proto.tx_sent;
  s.snd_una = rec->fs.proto.seq - rec->fs.proto.tx_sent;
  if (clear) rec->cc = CcAccum{};
  return s;
}

void Datapath::set_rate(ConnId conn, std::uint64_t bytes_per_sec) {
  if (ConnRecord* rec = table_.get(conn)) {
    rec->fs.post.rate = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bytes_per_sec, 0xFFFFFFFF));
  }
  sched_.set_rate(conn, bytes_per_sec);
}

std::size_t Datapath::conn_bytes_reserved() const {
  return table_.bytes_reserved() + sched_.footprint_bytes();
}

host::CtxQueue& Datapath::hc_queue(std::uint16_t ctx_id) {
  while (hc_queues_.size() <= ctx_id) {
    auto q = std::make_unique<host::CtxQueue>();
    q->bind_telemetry(telem_,
                      "hostq/hc" + std::to_string(hc_queues_.size()));
    hc_queues_.push_back(std::move(q));
  }
  return *hc_queues_[ctx_id];
}

void Datapath::add_xdp_program(xdp::XdpProgramPtr prog) {
  // Each program becomes a first-class stage node chained ahead of
  // pre-processing (paper §3.3): its own replica FPCs, burst striping,
  // and per-stage cost/drop accounting. The adapter keeps pipeline/
  // ignorant of src/xdp: it maps XdpAction onto the graph's verdict
  // enum, with the MAC arrival timestamp read once per segment at
  // delivery (ctx->rx_time_ps) — not once per program.
  pipeline::XdpStageDesc d;
  d.name = prog->name();
  d.cycles = prog->cycles_per_packet();
  d.run = [p = prog](const SegCtxPtr& ctx) {
    xdp::XdpMd md{*ctx->pkt, ctx->rx_time_ps};
    switch (p->run(md)) {
      case xdp::XdpAction::Drop:
        return pipeline::XdpVerdict::Drop;
      case xdp::XdpAction::Tx:
        return pipeline::XdpVerdict::Tx;
      case xdp::XdpAction::Redirect:
        return pipeline::XdpVerdict::Redirect;
      case xdp::XdpAction::Pass:
        break;
    }
    return pipeline::XdpVerdict::Pass;
  };
  graph_->attach_xdp_stage(std::move(d));
  xdp_programs_.push_back(std::move(prog));
}

void Datapath::clear_xdp_programs() {
  graph_->clear_xdp_stages();
  xdp_programs_.clear();
}

void Datapath::set_profiling(bool on) {
  cfg_.profiling = on;  // the graph reads the live config
}

// --------------------------------------------------------------- MAC RX

// MAC RX filter accounting: these packets were never the offload's
// (non-TCP traffic goes to the kernel stack; foreign-IP frames belong
// to another host), so they are counted apart from the drop taxonomy —
// which must keep summing to drops() — but never vanish silently.
// Telemetry keys register lazily on the first hit so default scenario
// snapshots (which never exercise the filter) stay byte-identical.
void Datapath::count_kernel_path() {
  ++kernel_path_;
  if (telem_.enabled()) {
    if (t_kernel_path_ == nullptr) {
      t_kernel_path_ = telem_.counter("mac/kernel_path");
    }
    t_kernel_path_->inc();
  }
}

void Datapath::count_not_local() {
  ++not_local_;
  if (telem_.enabled()) {
    if (t_not_local_ == nullptr) {
      t_not_local_ = telem_.counter("mac/not_local");
    }
    t_not_local_->inc();
  }
}

void Datapath::deliver(const net::PacketPtr& pkt) {
  if (pkt->ip.proto != net::kProtoTcp) {  // non-TCP -> kernel path
    count_kernel_path();
    return;
  }
  if (local_ip_ != 0 && pkt->ip.dst != local_ip_) {  // not for us
    count_not_local();
    return;
  }
  ++rx_segments_;

  auto ctx = ctx_pool_.acquire();
  ctx->kind = SegCtx::Kind::Rx;
  ctx->pkt = pkt;
  // Sequencer: compute the flow group (CRC on the 4-tuple, hardware
  // accelerated); the graph assigns the pipeline sequence number at
  // admission.
  tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport,
                   pkt->tcp.sport};
  ctx->flow_group = static_cast<std::uint8_t>(t.flow_group(
      static_cast<std::uint32_t>(graph_->group_count())));
  ctx->lookup_key = t.hash();
  // One clock read per segment, shared by the telemetry birth stamp and
  // every XDP program in the chain (xdp::XdpMd::rx_timestamp_ps).
  const sim::TimePs now = ev_.now();
  ctx->rx_time_ps = now;
  graph_->stamp_birth_at(*ctx, now);
  graph_->ingress_rx(ctx);
}

void Datapath::deliver_burst(std::span<const net::PacketPtr> pkts) {
  // Same admission steps as deliver(), amortized per chunk: one clock
  // read, one graph ingress call. No events run inside a chunk, so the
  // shared timestamp and the span-ordered dispatch are exactly what
  // per-packet delivery would produce.
  const auto ngroups = static_cast<std::uint32_t>(graph_->group_count());
  std::array<SegCtxPtr, kMaxBurst> burst;
  std::size_t i = 0;
  while (i < pkts.size()) {
    const std::size_t lim = std::min(pkts.size() - i, batch_);
    const sim::TimePs now = ev_.now();
    std::size_t n = 0;
    for (std::size_t k = 0; k < lim; ++k) {
      const net::PacketPtr& pkt = pkts[i + k];
      if (pkt->ip.proto != net::kProtoTcp) {  // kernel path
        count_kernel_path();
        continue;
      }
      if (local_ip_ != 0 && pkt->ip.dst != local_ip_) {
        count_not_local();
        continue;
      }
      ++rx_segments_;
      auto ctx = ctx_pool_.acquire();
      ctx->kind = SegCtx::Kind::Rx;
      ctx->pkt = pkt;
      tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport,
                       pkt->tcp.sport};
      ctx->flow_group = static_cast<std::uint8_t>(t.flow_group(ngroups));
      ctx->lookup_key = t.hash();
      ctx->rx_time_ps = now;
      graph_->stamp_birth_at(*ctx, now);
      burst[n++] = std::move(ctx);
    }
    graph_->ingress_rx_burst(burst.data(), n);
    for (std::size_t k = 0; k < n; ++k) burst[k].reset();
    i += lim;
  }
}

void Datapath::stage_pre_rx(const SegCtxPtr& ctx) {
  // XDP programs no longer run inline here: the graph dispatches them as
  // first-class stage nodes between the sequencer and this stage
  // (Graph::attach_xdp_stage), so a segment only reaches pre-processing
  // with a Pass verdict from the whole chain.
  net::Packet& pkt = *ctx->pkt;

  // --- Val: filter non-data-path segments to the control plane ---
  if (!pkt.tcp.is_datapath_segment()) {
    ++to_control_count_;
    host_.to_control(ctx->pkt);
    graph_->skip_proto(ctx);
    return;
  }

  // --- Id: active-connection DB lookup (IMEM lookup engine + cache) ---
  // Probes the owning island's shard with the sequencer's precomputed
  // CRC (ctx->lookup_key): no re-hash, no directory access.
  tcp::FlowTuple t{pkt.ip.dst, pkt.ip.src, pkt.tcp.dport, pkt.tcp.sport};
  tcp::ConnId conn = tcp::kInvalidConn;
  if (table_.lookup(
          tcp::FlowKey{t, static_cast<std::uint32_t>(ctx->lookup_key)},
          &conn) == nullptr) {
    // Not an established data-path flow (e.g. final handshake ACK).
    ++to_control_count_;
    host_.to_control(ctx->pkt);
    graph_->skip_proto(ctx);
    return;
  }
  ctx->conn_idx = conn;
  ctx->conn_known = true;

  // --- Sum: header summary for later stages ---
  HeaderSummary& s = ctx->sum;
  s.seq = pkt.tcp.seq;
  s.ack = pkt.tcp.ack;
  s.flags = pkt.tcp.flags;
  s.window = static_cast<std::uint32_t>(pkt.tcp.window) << tcp::kWindowShift;
  s.payload_len = pkt.payload_len();
  if (pkt.tcp.ts) {
    s.ts_val = pkt.tcp.ts->val;
    s.ts_ecr = pkt.tcp.ts->ecr;
  }
  s.ecn_ce = pkt.ip.ecn == net::Ecn::Ce;

  // --- Steer: in-order admission to the flow-group's protocol stage ---
  graph_->to_proto(ctx);
}

// ----------------------------------------------------------- TX trigger

std::uint32_t Datapath::tx_trigger(std::uint32_t conn) {
  ConnRecord* rec = table_.get(conn);
  if (rec == nullptr) return 0;
  FlowState& fs = rec->fs;
  // Admission estimate (authoritative check happens in the protocol
  // stage; the scheduler tracks appended-but-untriggered bytes itself).
  const std::uint32_t outstanding = fs.proto.tx_sent + rec->pending_planned;
  if (fs.proto.remote_win <= outstanding) return 0;  // window closed
  const std::uint32_t room = fs.proto.remote_win - outstanding;
  const std::uint32_t planned = std::min(cfg_.mss, room);

  auto ctx = ctx_pool_.acquire();
  ctx->kind = SegCtx::Kind::Tx;
  ctx->conn_idx = conn;
  ctx->conn_known = true;
  ctx->flow_group = fs.pre.flow_group;
  ctx->hc_len = planned;
  graph_->stamp_birth(*ctx);

  if (!graph_->ingress_tx(ctx)) return 0;  // inter-stage back-pressure
  rec->pending_planned += planned;
  return planned;
}

void Datapath::stage_pre_tx(const SegCtxPtr& ctx) {
  // Alloc + Head happen here in the real pipeline; the packet itself is
  // materialized in post-processing once the protocol stage has assigned
  // the sequence number. Steer:
  graph_->to_proto(ctx);
}

// ------------------------------------------------------------- HC path

void Datapath::doorbell(std::uint16_t ctx_id) {
  // MMIO doorbell -> context-queue FPC polls and fetches descriptors in
  // batch_-sized bursts (one clock read and one graph ingress call per
  // burst; descriptor order and per-descriptor semantics unchanged —
  // the whole drain runs in one event turn either way).
  dma_.mmio([this, alive = alive_, ctx_id] {
    if (!*alive) return;
    host::CtxQueue& q = hc_queue(ctx_id);
    host::CtxDesc d;
    std::array<SegCtxPtr, kMaxBurst> burst;
    bool more = true;
    while (more) {
      const sim::TimePs now = ev_.now();
      std::size_t n = 0;
      while (n < batch_ && (more = q.pop(d))) {
        auto ctx = ctx_pool_.acquire();
        ctx->kind = SegCtx::Kind::Hc;
        ctx->conn_idx = d.conn;
        ctx->conn_known = true;
        ctx->hc_len = d.a;
        switch (d.type) {
          case host::CtxDescType::TxDoorbell:
            ctx->hc_op = HcOp::TxDoorbell;
            break;
          case host::CtxDescType::RxFreed:
            ctx->hc_op = HcOp::RxFreed;
            break;
          case host::CtxDescType::Fin:
            ctx->hc_op = HcOp::Fin;
            break;
          case host::CtxDescType::Retransmit:
            ctx->hc_op = HcOp::Retransmit;
            break;
          default:
            continue;
        }
        const ConnRecord* rec = table_.get(ctx->conn_idx);
        if (rec == nullptr) continue;
        ctx->flow_group = rec->fs.pre.flow_group;
        graph_->stamp_birth_at(*ctx, now);
        burst[n++] = std::move(ctx);
      }
      graph_->ingress_hc_burst(burst.data(), n);
      for (std::size_t k = 0; k < n; ++k) burst[k].reset();
    }
  });
}

// Re-synchronizes the flow scheduler with the protocol stage's
// authoritative view: untriggered bytes = appended-but-unsent minus
// segments already in flight through the pipeline.
void Datapath::sched_resync(ConnId conn, const ConnRecord& rec) {
  const std::uint64_t pend = rec.pending_planned;
  const std::uint64_t avail = rec.fs.proto.tx_avail;
  const std::uint64_t untrig = avail > pend ? avail - pend : 0;
  sched_.update_avail(conn, untrig);
}

// --------------------------------------------------------- protocol stage

void Datapath::stage_proto(const SegCtxPtr& ctx) {
  ConnRecord* rec = table_.get(ctx->conn_idx);
  if (rec == nullptr) return;
  switch (ctx->kind) {
    case SegCtx::Kind::Rx:
      proto_rx(*rec, ctx);
      break;
    case SegCtx::Kind::Tx:
      proto_tx(*rec, ctx);
      break;
    case SegCtx::Kind::Hc:
      proto_hc(*rec, ctx);
      break;
  }
}

void Datapath::proto_rx(ConnRecord& rec, const SegCtxPtr& ctx) {
  graph_->mark(pipeline::StageId::ProtoRx, *ctx);
  FlowState& fs = rec.fs;
  ProtoState& p = fs.proto;
  const HeaderSummary& s = ctx->sum;
  ProtoSnapshot& snap = ctx->snap;
  const ConnId conn = ctx->conn_idx;

  p.remote_win = s.window;

  // ---- ACK processing (Win) ----
  if (s.flags & flag::kAck) {
    const SeqNum snd_una = p.seq - p.tx_sent;
    if (seq_gt(s.ack, snd_una) && seq_le(s.ack, rec.snd_max)) {
      const std::uint32_t acked = seq_diff(s.ack, snd_una);
      const std::uint32_t from_sent =
          std::min<std::uint32_t>(acked, p.tx_sent);
      p.tx_sent -= from_sent;
      const std::uint32_t leap = acked - from_sent;
      if (leap > 0) {
        // Receiver merged its OOO interval past our rewound position:
        // those bytes are delivered; skip ahead.
        p.seq += leap;
        p.tx_pos += leap;
        p.tx_avail -= std::min(p.tx_avail, leap);
      }
      p.dupack_cnt = 0;
      snap.tx_freed = acked;
      snap.window_opened = true;
      // CC statistics (collected by post-processing, paper §3.1.3).
      snap.ecn_bytes = (s.flags & flag::kEce) ? acked : 0;
      if (s.ts_ecr != 0) {
        const std::uint32_t now_us32 = now_us_of(ev_);
        const std::uint32_t sample = now_us32 - s.ts_ecr;
        if (sample < 10'000'000) {
          snap.rtt_sample_us = sample == 0 ? 1 : sample;
        }
      }
    } else if (s.ack == snd_una && p.tx_sent > 0 && s.payload_len == 0 &&
               !(s.flags & flag::kFin)) {
      // Duplicate ACK tracking; fast retransmit via go-back-N reset.
      if (++p.dupack_cnt == 3 && seq_ge(snd_una, rec.high_rtx)) {
        p.dupack_cnt = 0;
        rec.high_rtx = rec.snd_max;
        snap.fast_retransmit = true;
        ++fast_retransmits_;
        // Reset transmission state to the last ACKed position.
        p.seq = snd_una;
        p.tx_pos -= p.tx_sent;
        p.tx_avail += p.tx_sent;
        p.tx_sent = 0;
      }
    }
  }

  // ---- Payload reassembly (Win/Pos) ----
  bool ack_needed = false;
  if (s.payload_len > 0) {
    const auto r = p.ooo.on_segment(p.ack, s.seq, s.payload_len, p.rx_avail);
    if (r.buf_offset > 0) {
      ++ooo_segments_;
    }
    if (r.accept && r.accept_len > 0) {
      snap.accept_payload = true;
      snap.payload_trim =
          seq_lt(s.seq, p.ack) ? seq_diff(p.ack, s.seq) : 0;
      snap.rx_write_pos = p.rx_pos + r.buf_offset;
      snap.rx_write_len = r.accept_len;
    }
    if (r.advance > 0) {
      p.ack += r.advance;
      p.rx_pos += r.advance;
      p.rx_avail -= std::min(p.rx_avail, r.advance);
      snap.rx_advance = r.advance;
      ctx->notify_host = true;
    }
    ack_needed = true;  // FlexTOE acknowledges every data segment (§5.2)
  }

  // ---- FIN ----
  if (s.flags & flag::kFin) {
    const SeqNum fin_seq = s.seq + s.payload_len;
    if (fin_seq == p.ack && !p.peer_fin) {
      p.ack += 1;
      p.peer_fin = true;
      snap.fin_consumed = true;
    }
    ack_needed = true;
  }

  if (ack_needed) {
    snap.send_ack = true;
    snap.ack_seq = p.ack;
    snap.self_seq = p.seq;
    snap.rx_window = p.rx_avail;
    snap.echo_ecn = s.ecn_ce;  // precise per-segment DCTCP ECN echo
    snap.ts_echo = s.ts_val;
    p.next_ts = s.ts_val;
    snap.egress_seq = graph_->next_egress(ctx->flow_group);
  }

  // ACKs can open the send window or re-expose bytes (go-back-N reset):
  // re-sync the flow scheduler with the authoritative protocol view.
  if (s.flags & flag::kAck) {
    const std::uint32_t room =
        p.remote_win > p.tx_sent ? p.remote_win - p.tx_sent : 0;
    if (p.tx_avail > 0 && room > 0) sched_resync(conn, rec);
  }

  // Forward snapshot to post-processing.
  graph_->to_post(ctx);
}

void Datapath::proto_tx(ConnRecord& rec, const SegCtxPtr& ctx) {
  graph_->mark(pipeline::StageId::ProtoTx, *ctx);
  ProtoState& p = rec.fs.proto;
  ProtoSnapshot& snap = ctx->snap;
  const ConnId conn = ctx->conn_idx;
  const std::uint32_t planned = ctx->hc_len;
  rec.pending_planned -= std::min(rec.pending_planned, planned);

  // Authoritative admission: window and available data.
  const std::uint32_t room =
      p.remote_win > p.tx_sent ? p.remote_win - p.tx_sent : 0;
  std::uint32_t len = std::min({planned, p.tx_avail, room});

  if (len == 0 && !(p.fin_pending && !p.fin_sent && p.tx_avail == 0)) {
    // Abort: window closed or no data. The flow parks in the scheduler;
    // an ACK (window open) or doorbell (new data) re-syncs and unparks.
    sched_resync(conn, rec);
    return;
  }

  snap.tx_valid = len > 0;
  snap.tx_seq = p.seq;
  snap.tx_read_pos = p.tx_pos;
  snap.tx_len = len;
  snap.ack_seq = p.ack;
  snap.rx_window = p.rx_avail;
  snap.ts_echo = p.next_ts;
  p.seq += len;
  p.tx_pos += len;
  p.tx_avail -= len;
  p.tx_sent += len;

  // Piggyback / emit FIN once the transmit buffer is fully drained.
  if (p.fin_pending && !p.fin_sent && p.tx_avail == 0) {
    snap.tx_fin = true;
    p.fin_seq = p.seq;
    p.seq += 1;
    p.tx_sent += 1;
    p.fin_sent = true;
  }
  if (!snap.tx_valid && !snap.tx_fin) return;

  rec.snd_max = seq_ge(p.seq, rec.snd_max) ? p.seq : rec.snd_max;
  if (planned != len) sched_resync(conn, rec);
  snap.egress_seq = graph_->next_egress(ctx->flow_group);

  graph_->to_post(ctx);
}

void Datapath::proto_hc(ConnRecord& rec, const SegCtxPtr& ctx) {
  graph_->mark(pipeline::StageId::ProtoHc, *ctx);
  ProtoState& p = rec.fs.proto;
  ProtoSnapshot& snap = ctx->snap;
  const ConnId conn = ctx->conn_idx;

  switch (ctx->hc_op) {
    case HcOp::TxDoorbell:
      p.tx_avail += ctx->hc_len;
      sched_resync(conn, rec);
      break;
    case HcOp::RxFreed: {
      const bool was_closed = p.rx_avail < cfg_.mss;
      p.rx_avail += ctx->hc_len;
      if (was_closed && p.rx_avail >= cfg_.mss) {
        // Window-update ACK so the peer resumes.
        snap.send_ack = true;
        snap.ack_seq = p.ack;
        snap.self_seq = p.seq;
        snap.rx_window = p.rx_avail;
        snap.ts_echo = p.next_ts;
        snap.egress_seq = graph_->next_egress(ctx->flow_group);
      }
      break;
    }
    case HcOp::Fin:
      p.fin_pending = true;
      break;
    case HcOp::Retransmit: {
      // Control-plane timeout: go-back-N reset (paper §3.1.1).
      const SeqNum snd_una = p.seq - p.tx_sent;
      if (p.tx_sent > 0 || (p.fin_sent && seq_lt(snd_una, rec.snd_max))) {
        p.seq = snd_una;
        p.tx_pos -= p.tx_sent;
        p.tx_avail += p.tx_sent;
        p.tx_sent = 0;
        if (p.fin_sent) {
          p.fin_sent = false;  // FIN will be re-emitted after data
        }
        p.dupack_cnt = 0;
        rec.high_rtx = rec.snd_max;
        sched_resync(conn, rec);
      }
      break;
    }
  }

  // FIN with an already-empty transmit buffer: emit it now.
  const bool want_fin_now =
      p.fin_pending && !p.fin_sent && p.tx_avail == 0;

  graph_->to_post(ctx);

  if (want_fin_now) spawn_fin_segment(conn);
}

void Datapath::spawn_fin_segment(ConnId conn) {
  auto ctx = ctx_pool_.acquire();
  ctx->kind = SegCtx::Kind::Tx;
  ctx->conn_idx = conn;
  ctx->conn_known = true;
  ctx->flow_group = table_.get(conn)->fs.pre.flow_group;
  ctx->hc_len = 0;  // pure FIN
  graph_->stamp_birth(*ctx);
  graph_->spawn_tx(ctx);
}

// ------------------------------------------------------------ post stage

void Datapath::stage_post(const SegCtxPtr& ctx) {
  ConnRecord* rec = table_.get(ctx->conn_idx);
  if (rec == nullptr) {
    // Flow removed mid-flight: release any NBI egress slot the protocol
    // stage assigned so the egress reorder point cannot stall.
    graph_->skip_nbi(ctx);
    return;
  }
  graph_->mark(pipeline::StageId::Post, *ctx);
  FlowState& fs = rec->fs;
  ProtoSnapshot& snap = ctx->snap;

  // ---- Stats: CC counters (commutative, out-of-order safe) ----
  CcAccum& acc = rec->cc;
  acc.acked += snap.tx_freed;
  acc.ecn += snap.ecn_bytes;
  if (snap.fast_retransmit) {
    ++acc.fretx;
    fs.post.cnt_fretx++;
  }
  fs.post.cnt_ackb += snap.tx_freed;
  fs.post.cnt_ecnb += snap.ecn_bytes;
  if (snap.rtt_sample_us > 0) {
    // EWMA in integer arithmetic (FPCs lack floating point).
    fs.post.rtt_est = fs.post.rtt_est == 0
                          ? snap.rtt_sample_us
                          : (7 * fs.post.rtt_est + snap.rtt_sample_us) / 8;
  }

  // ---- Ack preparation (+ ECN feedback, timestamps) ----
  if (snap.send_ack) emit_ack_packet(ctx);

  // ---- TX packet materialization ----
  if (snap.tx_valid || snap.tx_fin) {
    ctx->pkt = build_tx_packet(fs, snap);
  }

  // ---- Route onward ----
  const bool needs_payload_dma =
      (snap.accept_payload && snap.rx_write_len > 0) || snap.tx_valid;
  if (needs_payload_dma || ctx->ack_pkt || (snap.tx_fin && ctx->pkt)) {
    graph_->to_dma(ctx);
  } else if (ctx->notify_host || snap.tx_freed > 0 || snap.fin_consumed) {
    graph_->to_ctx_notify(ctx);
  }
}

void Datapath::emit_ack_packet(const SegCtxPtr& ctx) {
  FlowState& fs = table_.get(ctx->conn_idx)->fs;
  const ProtoSnapshot& snap = ctx->snap;
  auto ack = pkt_pool_.acquire();
  ack->eth.src = local_mac_;
  ack->eth.dst = fs.pre.peer_mac;
  ack->ip.src = fs.tuple.local_ip;
  ack->ip.dst = fs.tuple.remote_ip;
  ack->tcp.sport = fs.pre.local_port;
  ack->tcp.dport = fs.pre.remote_port;
  ack->tcp.seq = snap.self_seq;
  ack->tcp.ack = snap.ack_seq;
  ack->tcp.flags = static_cast<std::uint8_t>(
      flag::kAck | (snap.echo_ecn ? flag::kEce : 0));
  ack->tcp.window = static_cast<std::uint16_t>(std::min<std::uint32_t>(
      snap.rx_window >> tcp::kWindowShift, 0xFFFF));
  ack->tcp.ts = net::TcpTsOpt{now_us_of(ev_), snap.ts_echo};
  ctx->ack_pkt = std::move(ack);
}

net::PacketPtr Datapath::build_tx_packet(const FlowState& fs,
                                         const ProtoSnapshot& snap) {
  auto pkt = pkt_pool_.acquire();
  pkt->eth.src = local_mac_;
  pkt->eth.dst = fs.pre.peer_mac;
  pkt->ip.src = fs.tuple.local_ip;
  pkt->ip.dst = fs.tuple.remote_ip;
  pkt->ip.ecn = net::Ecn::Ect0;  // DCTCP ECT marking
  pkt->tcp.sport = fs.pre.local_port;
  pkt->tcp.dport = fs.pre.remote_port;
  pkt->tcp.seq = snap.tx_seq;
  pkt->tcp.ack = snap.ack_seq;
  pkt->tcp.flags = static_cast<std::uint8_t>(
      flag::kAck | (snap.tx_len > 0 ? flag::kPsh : 0) |
      (snap.tx_fin ? flag::kFin : 0));
  pkt->tcp.window = static_cast<std::uint16_t>(std::min<std::uint32_t>(
      snap.rx_window >> tcp::kWindowShift, 0xFFFF));
  pkt->tcp.ts = net::TcpTsOpt{now_us_of(ev_), snap.ts_echo};
  return pkt;
}

// ------------------------------------------------------------- DMA stage

void Datapath::stage_dma(const SegCtxPtr& ctx) {
  const ProtoSnapshot& snap = ctx->snap;

  if (ctx->kind == SegCtx::Kind::Rx) {
    // RX: payload DMA to the host socket buffer, then (a) ACK to NBI and
    // (b) notification to the context-queue stage. Ordering matters: the
    // host and the peer must not learn of data before it has landed
    // (paper §3.1.3, DMA stage).
    const std::uint32_t len = snap.accept_payload ? snap.rx_write_len : 0;
    ConnRecord* rec = table_.get(ctx->conn_idx);
    auto finish = [this, ctx] {
      graph_->record_pipe_total(*ctx);  // payload has landed in the host
      if (ctx->ack_pkt) {
        ++acks_sent_;
        auto ack_ctx = ctx_pool_.acquire();
        ack_ctx->kind = SegCtx::Kind::Rx;
        ack_ctx->pkt = ctx->ack_pkt;
        ack_ctx->trace_id = ctx->trace_id;
        ack_ctx->flow_group = ctx->flow_group;
        ack_ctx->snap.egress_seq = ctx->snap.egress_seq;
        ack_ctx->rtc_token = ctx->rtc_token;
        graph_->to_nbi(ctx->flow_group, ctx->snap.egress_seq,
                       std::move(ack_ctx));
      }
      if (ctx->notify_host || ctx->snap.tx_freed > 0 ||
          ctx->snap.fin_consumed) {
        graph_->to_ctx_notify(ctx);
      }
    };
    if (len > 0) {
      host::PayloadBuf* buf = rec != nullptr ? rec->rx_buf : nullptr;
      const std::uint64_t pos = snap.rx_write_pos;
      const std::uint32_t trim = snap.payload_trim;
      auto pkt = ctx->pkt;
      const std::uint32_t copy_cost =
          cfg_.shared_memory_ctx
              ? cfg_.copy_cycles_per_kb * (len / 1024 + 1)
              : 0;
      if (copy_cost > 0) {
        // Software copy on the DMA-module core (x86/BlueField ports).
        graph_->charge_dma_copy(copy_cost);
      }
      dma_.issue(len + 64, [buf, pos, trim, len, pkt, finish] {
        if (buf != nullptr) {
          buf->write(pos, std::span<const std::uint8_t>(
                              pkt->payload.data() + trim, len));
        }
        finish();
      });
    } else {
      finish();
    }
    return;
  }

  // TX: fetch payload from the host socket buffer into the segment, then
  // hand to the NBI (in egress order).
  if (ctx->kind == SegCtx::Kind::Tx && ctx->pkt) {
    const std::uint32_t len = snap.tx_len;
    ConnRecord* rec = table_.get(ctx->conn_idx);
    host::PayloadBuf* buf = rec != nullptr ? rec->tx_buf : nullptr;
    auto pkt = ctx->pkt;
    const std::uint64_t pos = snap.tx_read_pos;
    const std::uint32_t copy_cost =
        cfg_.shared_memory_ctx ? cfg_.copy_cycles_per_kb * (len / 1024 + 1)
                               : 0;
    if (copy_cost > 0) {
      graph_->charge_dma_copy(copy_cost);
    }
    dma_.issue(len + 64, [this, ctx, buf, pkt, pos, len] {
      if (len > 0 && buf != nullptr) {
        pkt->payload.resize(len);
        buf->read(pos, pkt->payload);
      }
      ++tx_segments_;
      graph_->record_pipe_total(*ctx);  // fully materialized for the NBI
      graph_->to_nbi(ctx->flow_group, ctx->snap.egress_seq, ctx);
    });
    return;
  }

  // HC with a window-update ACK.
  if (ctx->ack_pkt) {
    ++acks_sent_;
    auto ack_ctx = ctx_pool_.acquire();
    ack_ctx->kind = SegCtx::Kind::Hc;
    ack_ctx->pkt = ctx->ack_pkt;
    ack_ctx->trace_id = ctx->trace_id;
    ack_ctx->flow_group = ctx->flow_group;
    ack_ctx->snap.egress_seq = ctx->snap.egress_seq;
    ack_ctx->rtc_token = ctx->rtc_token;
    graph_->to_nbi(ctx->flow_group, ctx->snap.egress_seq,
                   std::move(ack_ctx));
  }
}

// ----------------------------------------------------- context-queue stage

void Datapath::stage_ctx_notify(const SegCtxPtr& ctx) {
  graph_->record_pipe_total(*ctx);
  const ProtoSnapshot& snap = ctx->snap;
  const ConnId conn = ctx->conn_idx;

  // Notification descriptors DMA'd to the host context queue.
  auto send = [this, conn](host::CtxDescType type, std::uint32_t a) {
    host::CtxDesc d;
    d.type = type;
    d.conn = conn;
    d.a = a;
    host_notify(d);
  };
  if (snap.rx_advance > 0) send(host::CtxDescType::RxNotify, snap.rx_advance);
  if (snap.tx_freed > 0) send(host::CtxDescType::TxFreed, snap.tx_freed);
  if (snap.fin_consumed) {
    send(host::CtxDescType::RxEof, 0);
    if (host_.peer_fin) host_.peer_fin(conn);
  }
}

void Datapath::host_notify(const host::CtxDesc& desc) {
  if (telem_.enabled()) t_host_notify_->inc();
  // 32-byte descriptor DMA + interrupt/eventfd (or polling) delay.
  dma_.issue(32, [this, alive = alive_, desc] {
    if (!*alive) return;
    ev_.schedule_in(cfg_.notify_latency, [this, alive, desc] {
      if (!*alive) return;
      if (host_.notify) host_.notify(desc);
    });
  });
}

// ------------------------------------------------------------------ NBI

void Datapath::nbi_transmit(const net::PacketPtr& pkt) {
  if (mac_sink_ != nullptr) mac_sink_->deliver(pkt);
}

void Datapath::control_tx(const net::PacketPtr& pkt) {
  // Control-plane segments bypass the data pipeline (separate queue into
  // the NBI).
  nbi_transmit(pkt);
}

}  // namespace flextoe::core
