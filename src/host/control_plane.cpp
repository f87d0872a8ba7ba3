#include "host/control_plane.hpp"

#include <algorithm>

#include "host/libtoe.hpp"

namespace flextoe::host {

using tcp::ConnId;
using tcp::SeqNum;
namespace flag = net::tcpflag;

ControlPlane::ControlPlane(sim::Domain& ev, core::Datapath& dp,
                           sim::Rng rng, ControlPlaneConfig cfg)
    : ev_(ev), dp_(dp), rng_(rng), cfg_(cfg) {}

ConnId ControlPlane::alloc_conn() {
  const auto cid = static_cast<ConnId>(conns_.size());
  conns_.push_back(std::make_unique<ConnCtl>());
  return cid;
}

void ControlPlane::listen(std::uint16_t port) { listening_[port] = true; }

net::PacketPtr ControlPlane::make_ctrl_packet(const ConnCtl& c, SeqNum seq,
                                              SeqNum ack,
                                              std::uint8_t flags) {
  // Handshake segments share the data-path's recycled Packet slots.
  auto pkt = dp_.pkt_pool().acquire();
  pkt->eth.src = mac_;
  pkt->eth.dst = c.peer_mac;
  pkt->ip.src = c.tuple.local_ip;
  pkt->ip.dst = c.tuple.remote_ip;
  pkt->tcp.sport = c.tuple.local_port;
  pkt->tcp.dport = c.tuple.remote_port;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = ack;
  pkt->tcp.flags = flags;
  pkt->tcp.window = static_cast<std::uint16_t>(std::min<std::size_t>(
      cfg_.sockbuf_bytes >> tcp::kWindowShift, 0xFFFF));
  if (flags & flag::kSyn) pkt->tcp.mss = static_cast<std::uint16_t>(cfg_.mss);
  pkt->tcp.ts = net::TcpTsOpt{now_us(), 0};
  return pkt;
}

void ControlPlane::send_syn(ConnId conn) {
  ConnCtl& c = *conns_[conn];
  dp_.control_tx(make_ctrl_packet(c, c.iss, 0, flag::kSyn));
  const std::uint64_t gen = ++c.timer_gen;
  ev_.schedule_in(cfg_.handshake_rto * c.syn_tries,
                  [this, conn, gen] { handshake_timer(conn, gen); });
}

void ControlPlane::send_synack(ConnId conn) {
  ConnCtl& c = *conns_[conn];
  dp_.control_tx(
      make_ctrl_packet(c, c.iss, c.irs + 1, flag::kSyn | flag::kAck));
  const std::uint64_t gen = ++c.timer_gen;
  ev_.schedule_in(cfg_.handshake_rto * c.syn_tries,
                  [this, conn, gen] { handshake_timer(conn, gen); });
}

void ControlPlane::handshake_timer(ConnId conn, std::uint64_t gen) {
  if (conn >= conns_.size()) return;
  ConnCtl& c = *conns_[conn];
  if (c.timer_gen != gen) return;
  if (c.state == CState::SynSent) {
    if (++c.syn_tries > cfg_.syn_retries) {
      pending_.erase(c.tuple);
      c.state = CState::Dead;
      if (lib_ != nullptr) lib_->on_connected(conn, false);
      return;
    }
    send_syn(conn);
  } else if (c.state == CState::SynRcvd) {
    if (++c.syn_tries > cfg_.syn_retries) {
      pending_.erase(c.tuple);
      c.state = CState::Dead;
      if (lib_ != nullptr) lib_->on_aborted(conn);
      return;
    }
    send_synack(conn);
  }
}

ConnId ControlPlane::connect(net::Ipv4Addr remote_ip,
                             std::uint16_t remote_port) {
  const ConnId conn = alloc_conn();
  ConnCtl& c = *conns_[conn];
  c.tuple.local_ip = ip_;
  c.tuple.remote_ip = remote_ip;
  c.tuple.remote_port = remote_port;
  for (int tries = 0; tries < 35000; ++tries) {
    c.tuple.local_port = next_ephemeral_;
    next_ephemeral_ = next_ephemeral_ == 65535 ? 30000 : next_ephemeral_ + 1;
    if (pending_.find(c.tuple) == pending_.end()) break;
  }
  // Static "ARP": MACs are derived from IPs in the testbed; the switch
  // learns real locations, so any well-formed MAC works.
  c.peer_mac = net::MacAddr::from_u64(0x020000000000ull + remote_ip);
  c.state = CState::SynSent;
  c.iss = static_cast<SeqNum>(rng_.next_u64() & 0xFFFFFF);
  c.syn_tries = 1;
  c.cc = tcp::make_cc(cfg_.cc_algo);
  pending_[c.tuple] = conn;
  if (lib_ != nullptr) lib_->alloc_bufs(conn);
  send_syn(conn);
  return conn;
}

void ControlPlane::install(ConnId conn, std::uint32_t remote_win) {
  ConnCtl& c = *conns_[conn];
  core::FlowInstall ins;
  ins.conn_id = conn;
  ins.tuple = c.tuple;
  ins.local_mac = mac_;
  ins.peer_mac = c.peer_mac;
  ins.iss = c.iss;
  ins.irs = c.irs;
  ins.remote_win = remote_win;
  ins.mss = cfg_.mss;
  if (lib_ != nullptr) {
    LibToe::SockBufs* bufs = lib_->bind_bufs(conn);
    ins.rx_buf = bufs->rx.get();
    ins.tx_buf = bufs->tx.get();
    ins.context_id = lib_->context_id();
  }
  ins.opaque = conn;
  dp_.install_flow(ins);
  pending_.erase(c.tuple);
  c.state = CState::Established;
  c.last_progress = ev_.now();
  ++established_;
  if (!cc_timer_running_) {
    cc_timer_running_ = true;
    ev_.schedule_in(cfg_.cc_interval, [this] { cc_tick(); });
  }
}

void ControlPlane::on_control_segment(const net::PacketPtr& pkt) {
  tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport,
                   pkt->tcp.sport};
  auto it = pending_.find(t);
  const net::TcpHeader& h = pkt->tcp;

  if (it != pending_.end()) {
    const ConnId conn = it->second;
    ConnCtl& c = *conns_[conn];
    if (h.has(flag::kRst)) {
      pending_.erase(it);
      c.state = CState::Dead;
      if (lib_ != nullptr) lib_->on_connected(conn, false);
      return;
    }
    if (c.state == CState::SynSent && h.has(flag::kSyn) &&
        h.has(flag::kAck) && h.ack == c.iss + 1) {
      c.irs = h.seq;
      ++c.timer_gen;
      // Complete the handshake and install the data path.
      install(conn, static_cast<std::uint32_t>(h.window)
                        << tcp::kWindowShift);
      dp_.control_tx(make_ctrl_packet(c, c.iss + 1, c.irs + 1, flag::kAck));
      if (lib_ != nullptr) lib_->on_connected(conn, true);
      return;
    }
    if (c.state == CState::SynRcvd && h.has(flag::kAck) &&
        !h.has(flag::kSyn) && h.ack == c.iss + 1) {
      ++c.timer_gen;
      install(conn, static_cast<std::uint32_t>(h.window)
                        << tcp::kWindowShift);
      if (lib_ != nullptr) lib_->on_accepted(conn);
      // The final ACK may carry data (or the client may already be
      // streaming): re-inject so the data-path processes the payload.
      if (!pkt->payload.empty()) dp_.deliver(pkt);
      return;
    }
    if (c.state == CState::SynRcvd && h.has(flag::kSyn) &&
        !h.has(flag::kAck)) {
      send_synack(conn);  // duplicate SYN
      return;
    }
    return;
  }

  // New inbound connection?
  if (h.has(flag::kSyn) && !h.has(flag::kAck) && listening_[h.dport]) {
    const ConnId conn = alloc_conn();
    ConnCtl& c = *conns_[conn];
    c.tuple = t;
    c.peer_mac = pkt->eth.src;
    c.state = CState::SynRcvd;
    c.iss = static_cast<SeqNum>(rng_.next_u64() & 0xFFFFFF);
    c.irs = h.seq;
    c.syn_tries = 1;
    c.cc = tcp::make_cc(cfg_.cc_algo);
    pending_[t] = conn;
    if (lib_ != nullptr) lib_->alloc_bufs(conn);
    send_synack(conn);
    return;
  }

  if (h.has(flag::kRst)) {
    // RST for an established flow: tear down.
    // (Datapath forwarded it because RSTs are not data-path segments.)
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      ConnCtl& c = *conns_[i];
      if (c.state != CState::Dead && c.tuple == t) {
        dp_.remove_flow(static_cast<ConnId>(i));
        c.state = CState::Dead;
        if (lib_ != nullptr) lib_->on_closed(static_cast<ConnId>(i));
        return;
      }
    }
    return;
  }

  // Unknown segment: reset the sender (unless it is itself a RST).
  if (!h.has(flag::kRst)) {
    ConnCtl tmp;
    tmp.tuple = t;
    tmp.peer_mac = pkt->eth.src;
    dp_.control_tx(make_ctrl_packet(tmp, h.ack, h.seq + pkt->payload_len() + 1,
                                    flag::kRst | flag::kAck));
  }
}

void ControlPlane::app_close(ConnId conn) {
  if (conn >= conns_.size()) return;
  ConnCtl& c = *conns_[conn];
  if (c.state == CState::Established) c.state = CState::Closing;
  c.fin_requested = true;
  maybe_teardown(conn);
}

void ControlPlane::on_peer_fin(ConnId conn) {
  if (conn >= conns_.size()) return;
  ConnCtl& c = *conns_[conn];
  c.peer_fin = true;
  if (c.state == CState::Established) {
    // Passive close: wait for the app to close() too.
  }
  maybe_teardown(conn);
}

void ControlPlane::maybe_teardown(ConnId conn) {
  ConnCtl& c = *conns_[conn];
  if (!(c.fin_requested && c.peer_fin)) return;
  const core::ProtoState* p = dp_.proto_state(conn);
  if (p == nullptr) return;
  if (p->tx_sent > 0 || p->tx_avail > 0 || !p->fin_sent) {
    // Our FIN (or data) still in flight; the CC/RTO loop re-checks.
    return;
  }
  if (c.state == CState::TimeWait || c.state == CState::Dead) return;
  c.state = CState::TimeWait;
  const std::uint64_t gen = ++c.timer_gen;
  ev_.schedule_in(cfg_.time_wait, [this, conn, gen] {
    ConnCtl& cc = *conns_[conn];
    if (cc.timer_gen != gen || cc.state != CState::TimeWait) return;
    dp_.remove_flow(conn);
    cc.state = CState::Dead;
    if (established_ > 0) --established_;
    if (lib_ != nullptr) lib_->on_closed(conn);
  });
}

// The control loop: congestion control + RTO monitoring (Appendix D).
void ControlPlane::cc_tick() {
  bool any_active = false;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    ConnCtl& c = *conns_[i];
    if (c.state != CState::Established && c.state != CState::Closing) {
      continue;
    }
    const auto conn = static_cast<ConnId>(i);
    if (!dp_.flow_valid(conn)) continue;
    any_active = true;

    auto stats = dp_.read_cc_stats(conn, /*clear=*/true);

    // ---- RTO monitoring ----
    if (stats.tx_sent > 0) {
      if (stats.snd_una != c.last_una || stats.acked_bytes > 0) {
        c.last_una = stats.snd_una;
        c.last_progress = ev_.now();
        c.backoff = 1;
      } else {
        const sim::TimePs rtt =
            stats.rtt_us > 0 ? sim::us(stats.rtt_us) : sim::us(100);
        sim::TimePs rto = std::clamp<sim::TimePs>(3 * rtt, cfg_.min_rto,
                                                  cfg_.max_rto);
        rto = std::min<sim::TimePs>(rto * c.backoff, cfg_.max_rto);
        if (ev_.now() - c.last_progress > rto) {
          // Trigger a go-back-N retransmission through the HC pipeline.
          CtxDesc d;
          d.type = CtxDescType::Retransmit;
          d.conn = conn;
          dp_.hc_queue(0).push(d);
          dp_.doorbell(0);
          ++rto_retransmits_;
          ++c.timeouts_pending;
          c.backoff = std::min(c.backoff * 2, 32u);
          c.last_progress = ev_.now();
        }
      }
    } else {
      c.last_progress = ev_.now();
      c.backoff = 1;
    }

    // ---- Congestion control ----
    if (cfg_.cc_enabled && c.cc) {
      tcp::CcInput in;
      in.acked_bytes = stats.acked_bytes;
      in.ecn_bytes = stats.ecn_bytes;
      in.fast_retx = stats.fast_retx;
      in.timeouts = c.timeouts_pending;
      in.rtt = stats.rtt_us > 0 ? sim::us(stats.rtt_us) : 0;
      c.timeouts_pending = 0;
      const std::uint64_t rate = c.cc->update(in);
      dp_.set_rate(conn, rate);
    }

    if (c.state == CState::Closing) maybe_teardown(conn);
  }

  if (any_active || established_ > 0) {
    ev_.schedule_in(cfg_.cc_interval, [this] { cc_tick(); });
  } else {
    cc_timer_running_ = false;
  }
}

}  // namespace flextoe::host
