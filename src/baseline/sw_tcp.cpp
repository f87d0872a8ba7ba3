#include "baseline/sw_tcp.hpp"

#include <algorithm>
#include <cassert>

namespace flextoe::baseline {

using tcp::ConnId;
using tcp::SeqNum;
using tcp::seq_diff;
using tcp::seq_ge;
using tcp::seq_gt;
using tcp::seq_le;
using tcp::seq_lt;
namespace flag = net::tcpflag;

using tcp::kWindowShift;

SwTcpStack::SwTcpStack(sim::Domain& ev, sim::Rng rng, SwTcpConfig cfg)
    : ev_(ev), rng_(rng), cfg_(cfg) {}

SwTcpStack::~SwTcpStack() = default;

SwTcpStack::Conn* SwTcpStack::get(ConnId c) const {
  if (c >= conns_.size()) return nullptr;
  return conns_[c].get();
}

ConnId SwTcpStack::alloc_conn(const tcp::FlowTuple& t, net::MacAddr peer_mac) {
  auto conn = std::make_unique<Conn>(cfg_.sockbuf_bytes, cfg_.ooo);
  conn->tuple = t;
  conn->peer_mac = peer_mac;
  conn->cwnd = cfg_.init_cwnd_segments * cfg_.mss;
  conn->ssthresh = cfg_.max_cwnd_bytes;
  conn->rtt = tcp::RttEstimator(cfg_.min_rto, cfg_.max_rto);
  const auto cid = static_cast<ConnId>(conns_.size());
  conns_.push_back(std::move(conn));
  by_tuple_[t] = cid;
  return cid;
}

void SwTcpStack::free_conn(ConnId cid) {
  Conn* c = get(cid);
  if (c == nullptr) return;
  by_tuple_.erase(c->tuple);
  conns_[cid].reset();
}

void SwTcpStack::listen(std::uint16_t port) { listening_[port] = true; }

ConnId SwTcpStack::connect(net::Ipv4Addr remote_ip,
                           std::uint16_t remote_port) {
  tcp::FlowTuple t;
  t.local_ip = cfg_.ip;
  t.remote_ip = remote_ip;
  t.remote_port = remote_port;
  // Ephemeral port allocation.
  for (int tries = 0; tries < 40000; ++tries) {
    t.local_port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? 20000 : next_ephemeral_ + 1;
    if (by_tuple_.find(t) == by_tuple_.end()) break;
  }
  // Testbed "ARP": when no gateway is configured, derive the peer MAC
  // from the IP (all testbed nodes use MAC 02:…:<ip>); the switch learns
  // real locations either way.
  net::MacAddr peer = gateway_mac_;
  if (peer.to_u64() == 0) {
    peer = net::MacAddr::from_u64(0x020000000000ull + remote_ip);
  }
  const ConnId cid = alloc_conn(t, peer);
  Conn& c = *get(cid);
  c.state = State::SynSent;
  c.iss = static_cast<SeqNum>(rng_.next_u64() & 0xFFFFFF);
  c.snd_una = c.iss;
  c.snd_nxt = c.iss + 1;
  c.snd_max = c.snd_nxt;
  send_ctrl(t, c.peer_mac, c.iss, 0, flag::kSyn, cfg_.mss, 0);
  arm_rto(cid, c);
  return cid;
}

std::size_t SwTcpStack::send(ConnId cid, std::span<const std::uint8_t> data) {
  Conn* c = get(cid);
  if (c == nullptr) return 0;
  if (c->state != State::Established && c->state != State::CloseWait) {
    return 0;
  }
  if (cpu_ != nullptr) {
    const auto& k = cfg_.costs;
    const std::uint64_t cyc =
        k.sock_op + k.other_op +
        k.copy_per_kb * (static_cast<std::uint64_t>(data.size()) / 1024);
    cpu_->run(cyc, sim::CpuCat::Sockets, nullptr);
    cpu_->reattribute(sim::CpuCat::Sockets, sim::CpuCat::Other, k.other_op);
  }
  const std::size_t n = c->tx.write(data);
  if (n > 0) try_transmit(cid);
  return n;
}

std::size_t SwTcpStack::recv(ConnId cid, std::span<std::uint8_t> out) {
  Conn* c = get(cid);
  if (c == nullptr) return 0;
  if (cpu_ != nullptr) {
    cpu_->run(cfg_.costs.sock_op + cfg_.costs.other_op,
              sim::CpuCat::Sockets, nullptr);
    cpu_->reattribute(sim::CpuCat::Sockets, sim::CpuCat::Other,
                      cfg_.costs.other_op);
  }
  const std::size_t before_free = c->rx.free_space();
  const std::size_t n = c->rx.read(out);
  // Window update if we crossed from nearly-closed to open.
  if (n > 0 && before_free < cfg_.mss &&
      c->rx.free_space() >= cfg_.mss &&
      (c->state == State::Established || c->state == State::FinWait1 ||
       c->state == State::FinWait2)) {
    send_ack(cid, *c);
  }
  maybe_close_notify(cid, *c);
  return n;
}

std::size_t SwTcpStack::rx_available(ConnId cid) const {
  const Conn* c = get(cid);
  return c == nullptr ? 0 : c->rx.used();
}

std::size_t SwTcpStack::tx_space(ConnId cid) const {
  const Conn* c = get(cid);
  return c == nullptr ? 0 : c->tx.free_space();
}

void SwTcpStack::close(ConnId cid) {
  Conn* c = get(cid);
  if (c == nullptr) return;
  switch (c->state) {
    case State::SynSent:
    case State::Listen:
      free_conn(cid);
      break;
    case State::SynRcvd:
    case State::Established:
    case State::CloseWait:
      c->fin_pending = true;
      try_transmit(cid);
      break;
    default:
      break;  // already closing
  }
}

SwTcpStack::State SwTcpStack::conn_state(ConnId cid) const {
  const Conn* c = get(cid);
  return c == nullptr ? State::Closed : c->state;
}

std::uint64_t SwTcpStack::cwnd_bytes(ConnId cid) const {
  const Conn* c = get(cid);
  return c == nullptr ? 0 : c->cwnd;
}

SwTcpStack::ConnDebug SwTcpStack::conn_debug(ConnId cid) const {
  ConnDebug d;
  const Conn* c = get(cid);
  if (c == nullptr) return d;
  d.snd_una = c->snd_una;
  d.snd_nxt = c->snd_nxt;
  d.rcv_nxt = c->rcv_nxt;
  d.snd_wnd = c->snd_wnd;
  d.tx_used = c->tx.used();
  d.rx_used = c->rx.used();
  return d;
}

// ---------------------------------------------------------------- RX path

void SwTcpStack::deliver(const net::PacketPtr& pkt) {
  if (pkt->ip.dst != cfg_.ip || pkt->ip.proto != net::kProtoTcp) return;
  ++segs_rx_;

  if (cpu_ == nullptr) {
    process_segment(pkt);
    return;
  }
  const auto& k = cfg_.costs;
  std::uint64_t cyc = k.driver_rx + k.stack_rx +
                      k.copy_per_kb * (pkt->payload.size() / 1024);
  // Per-connection serialization: a connection's segments process in
  // order, mirroring per-flow critical sections in host stacks.
  tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport, pkt->tcp.sport};
  auto it = by_tuple_.find(t);
  sim::TimePs not_before = 0;
  Conn* c = it != by_tuple_.end() ? get(it->second) : nullptr;
  if (c != nullptr) not_before = c->cpu_chain;
  const sim::TimePs done = cpu_->run(
      cyc, sim::CpuCat::Stack, not_before,
      [this, pkt] { process_segment(pkt); });
  if (c != nullptr) c->cpu_chain = done;
  cpu_->reattribute(sim::CpuCat::Stack, sim::CpuCat::Driver, k.driver_rx);
}

void SwTcpStack::process_segment(const net::PacketPtr& pkt) {
  tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport, pkt->tcp.sport};
  auto it = by_tuple_.find(t);
  if (it != by_tuple_.end()) {
    handle_conn_segment(it->second, pkt);
    return;
  }
  if (pkt->tcp.has(flag::kSyn) && !pkt->tcp.has(flag::kAck) &&
      listening_[pkt->tcp.dport]) {
    handle_listen_syn(pkt);
    return;
  }
  // No matching connection: reset (unless this is itself a reset).
  if (!pkt->tcp.has(flag::kRst)) {
    send_ctrl(t, pkt->eth.src, pkt->tcp.ack,
              pkt->tcp.seq + pkt->payload_len() + 1, flag::kRst | flag::kAck,
              std::nullopt, 0);
  }
}

void SwTcpStack::handle_listen_syn(const net::PacketPtr& pkt) {
  tcp::FlowTuple t{pkt->ip.dst, pkt->ip.src, pkt->tcp.dport, pkt->tcp.sport};
  const ConnId cid = alloc_conn(t, pkt->eth.src);
  Conn& c = *get(cid);
  c.state = State::SynRcvd;
  c.irs = pkt->tcp.seq;
  c.rcv_nxt = c.irs + 1;
  c.iss = static_cast<SeqNum>(rng_.next_u64() & 0xFFFFFF);
  c.snd_una = c.iss;
  c.snd_nxt = c.iss + 1;
  c.snd_max = c.snd_nxt;
  if (pkt->tcp.mss) c.peer_mss = std::min<std::uint32_t>(*pkt->tcp.mss, cfg_.mss);
  if (pkt->tcp.ts) c.ts_recent = pkt->tcp.ts->val;
  send_ctrl(t, c.peer_mac, c.iss, c.rcv_nxt, flag::kSyn | flag::kAck,
            cfg_.mss, c.ts_recent);
  arm_rto(cid, c);
}

void SwTcpStack::handle_conn_segment(ConnId cid, const net::PacketPtr& pkt) {
  Conn* cp = get(cid);
  if (cp == nullptr) return;
  Conn& c = *cp;
  const net::TcpHeader& h = pkt->tcp;

  if (h.has(flag::kRst)) {
    // Abort.
    const State old = c.state;
    if (old == State::SynSent && cbs_.on_connected) {
      cbs_.on_connected(cid, false);
    } else if (cbs_.on_close && !c.cbs_closed && old != State::Closed) {
      c.cbs_closed = true;
      cbs_.on_close(cid);
    }
    free_conn(cid);
    return;
  }

  switch (c.state) {
    case State::SynSent: {
      if (h.has(flag::kSyn) && h.has(flag::kAck) && h.ack == c.iss + 1) {
        c.irs = h.seq;
        c.rcv_nxt = c.irs + 1;
        c.snd_una = h.ack;
        c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWindowShift;
        if (h.mss) c.peer_mss = std::min<std::uint32_t>(*h.mss, cfg_.mss);
        if (h.ts) c.ts_recent = h.ts->val;
        c.state = State::Established;
        cancel_rto(c);  // SYN timer
        c.rtt.reset_backoff();
        send_ack(cid, c);
        if (cbs_.on_connected) cbs_.on_connected(cid, true);
        try_transmit(cid);
      }
      return;
    }
    case State::SynRcvd: {
      if (h.has(flag::kAck) && h.ack == c.snd_una + 1) {
        c.snd_una = h.ack;
        c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWindowShift;
        c.state = State::Established;
        cancel_rto(c);
        c.rtt.reset_backoff();
        if (cbs_.on_accept) cbs_.on_accept(cid);
        // continue processing payload below if present
        break;
      }
      if (h.has(flag::kSyn)) {
        // Duplicate SYN: re-send SYN-ACK.
        send_ctrl(c.tuple, c.peer_mac, c.iss, c.rcv_nxt,
                  flag::kSyn | flag::kAck, cfg_.mss, c.ts_recent);
      }
      return;
    }
    case State::Closed:
    case State::Listen:
      return;
    default:
      break;
  }

  if (h.has(flag::kAck)) process_ack(cid, c, *pkt);
  if (get(cid) == nullptr) return;  // ack processing may free (LastAck)

  bool ack_needed = false;
  if (!pkt->payload.empty()) {
    process_payload(cid, c, *pkt);
    ack_needed = true;
  }

  if (h.has(flag::kFin)) {
    const SeqNum fin_seq = h.seq + pkt->payload_len();
    if (fin_seq == c.rcv_nxt && !c.peer_fin) {
      c.rcv_nxt = fin_seq + 1;
      c.peer_fin = true;
      switch (c.state) {
        case State::Established:
          c.state = State::CloseWait;
          break;
        case State::FinWait1:
          c.state = State::Closing;
          break;
        case State::FinWait2:
          enter_time_wait(cid, c);
          break;
        default:
          break;
      }
      maybe_close_notify(cid, c);
    }
    ack_needed = true;
  }

  if (ack_needed) send_ack(cid, c);
  if (get(cid) != nullptr) try_transmit(cid);
}

void SwTcpStack::process_ack(ConnId cid, Conn& c, const net::Packet& pkt) {
  const net::TcpHeader& h = pkt.tcp;
  const SeqNum ack = h.ack;
  const bool ece = h.has(flag::kEce);

  // RTT sample from the timestamp echo.
  if (h.ts && h.ts->ecr != 0 && seq_gt(ack, c.snd_una)) {
    const std::uint32_t now_us32 = now_ts();
    const std::uint32_t rtt_us = now_us32 - h.ts->ecr;
    if (rtt_us < 10'000'000) {
      c.rtt.on_sample(sim::us(rtt_us == 0 ? 1 : rtt_us));
    }
  }

  if (seq_gt(ack, c.snd_una) && seq_le(ack, c.snd_max)) {
    const std::uint32_t acked = seq_diff(ack, c.snd_una);
    const std::size_t data_acked =
        std::min<std::size_t>(acked, c.tx.used());
    c.tx.discard(data_acked);
    c.bytes_acked += data_acked;
    c.snd_una = ack;
    // After a go-back-N rewind, the receiver may ACK past snd_nxt by
    // merging its buffered out-of-order interval: skip ahead.
    if (seq_gt(c.snd_una, c.snd_nxt)) c.snd_nxt = c.snd_una;
    c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWindowShift;
    c.dupacks = 0;
    c.rtt.reset_backoff();
    cc_on_ack(c, acked, ece);

    if (c.fin_sent && seq_ge(ack, c.fin_seq + 1)) {
      switch (c.state) {
        case State::FinWait1:
          c.state = State::FinWait2;
          break;
        case State::Closing:
          enter_time_wait(cid, c);
          break;
        case State::LastAck:
          free_conn(cid);
          return;
        default:
          break;
      }
    }

    if (c.snd_nxt == c.snd_una) {
      cancel_rto(c);  // everything acked
    } else {
      arm_rto(cid, c);
    }
    if (data_acked > 0 && cbs_.on_sendable) cbs_.on_sendable(cid);
  } else if (ack == c.snd_una && seq_gt(c.snd_max, c.snd_una) &&
             pkt.payload.empty() && !h.has(flag::kFin)) {
    // Duplicate ACK.
    c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWindowShift;
    if (++c.dupacks == 3 && seq_ge(c.snd_una, c.high_rtx)) {
      ++fast_retransmits_;
      cc_on_fast_rtx(c);
      c.high_rtx = c.snd_max;
      if (cfg_.go_back_n) {
        c.snd_nxt = c.snd_una;  // resend everything outstanding
        c.fin_sent = false;
        try_transmit(cid);
      } else {
        // SACK-quality: retransmit only the first missing segment.
        const std::uint32_t len = std::min<std::uint32_t>(
            {cfg_.mss, c.peer_mss,
             static_cast<std::uint32_t>(c.tx.used())});
        if (len > 0) {
          ++retransmits_;
          emit_segment(cid, c, c.snd_una, len, 0);
        }
      }
    }
  } else {
    // Window update or stale ACK.
    c.snd_wnd = static_cast<std::uint32_t>(h.window) << kWindowShift;
  }
}

void SwTcpStack::process_payload(ConnId cid, Conn& c, const net::Packet& pkt) {
  const net::TcpHeader& h = pkt.tcp;
  const auto window = static_cast<std::uint32_t>(c.rx.free_space());
  const auto r = c.ooo.on_segment(c.rcv_nxt, h.seq,
                                  pkt.payload_len(), window);
  if (pkt.ip.ecn == net::Ecn::Ce) c.ece_pending = true;
  if (h.ts) c.ts_recent = h.ts->val;

  if (r.accept && r.accept_len > 0) {
    const std::uint32_t front_trim =
        seq_lt(h.seq, c.rcv_nxt) ? seq_diff(c.rcv_nxt, h.seq) : 0;
    std::span<const std::uint8_t> slice(pkt.payload.data() + front_trim,
                                        r.accept_len);
    c.rx.write_at(r.buf_offset, slice);
  }
  if (r.advance > 0) {
    c.rx.advance_tail(r.advance);
    c.rcv_nxt += r.advance;
    c.bytes_rxed += r.advance;
    bytes_delivered_ += r.advance;
    notify_data(cid, c);
  }
}

void SwTcpStack::notify_data(ConnId cid, Conn& c) {
  if (cbs_.on_data && c.rx.used() > 0) cbs_.on_data(cid);
}

void SwTcpStack::maybe_close_notify(ConnId cid, Conn& c) {
  if (c.peer_fin && c.rx.empty() && !c.cbs_closed) {
    c.cbs_closed = true;
    if (cbs_.on_close) cbs_.on_close(cid);
  }
}

// ---------------------------------------------------------------- TX path

std::uint64_t SwTcpStack::effective_window(const Conn& c) const {
  return std::min<std::uint64_t>(c.cwnd, c.snd_wnd);
}

void SwTcpStack::try_transmit(ConnId cid) {
  Conn* cp = get(cid);
  if (cp == nullptr) return;
  Conn& c = *cp;
  if (c.state != State::Established && c.state != State::CloseWait &&
      c.state != State::FinWait1 && c.state != State::Closing &&
      c.state != State::LastAck) {
    return;
  }

  while (true) {
    const std::uint32_t inflight = seq_diff(c.snd_nxt, c.snd_una);
    const std::uint64_t wnd = effective_window(c);
    const std::uint32_t sent_off = inflight;  // ring offset of snd_nxt
    const std::size_t unsent =
        c.tx.used() > sent_off ? c.tx.used() - sent_off : 0;
    std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({cfg_.mss, c.peer_mss, unsent}));
    if (wnd <= inflight) len = 0;
    if (len > 0) {
      len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(len, wnd - inflight));
    }
    if (len == 0) {
      // Maybe emit FIN once all data is sent and acknowledged space allows.
      if (c.fin_pending && !c.fin_sent && unsent == 0) {
        c.fin_seq = c.snd_nxt;
        emit_segment(cid, c, c.snd_nxt, 0, flag::kFin);
        c.snd_nxt += 1;
        c.snd_max = tcp::seq_max(c.snd_max, c.snd_nxt);
        c.fin_sent = true;
        switch (c.state) {
          case State::Established:
            c.state = State::FinWait1;
            break;
          case State::CloseWait:
            c.state = State::LastAck;
            break;
          default:
            break;
        }
        arm_rto(cid, c);
      }
      return;
    }
    const bool retx = seq_lt(c.snd_nxt, c.snd_max);
    if (retx) ++retransmits_;
    emit_segment(cid, c, c.snd_nxt, len, 0);
    c.snd_nxt += len;
    c.snd_max = tcp::seq_max(c.snd_max, c.snd_nxt);
    arm_rto(cid, c);
  }
}

void SwTcpStack::emit_segment(ConnId cid, Conn& c, SeqNum seq,
                              std::uint32_t len, std::uint8_t extra_flags) {
  (void)cid;
  auto pkt = pool_.acquire();
  pkt->eth.src = cfg_.mac;
  pkt->eth.dst = resolve_mac(c);
  pkt->ip.src = c.tuple.local_ip;
  pkt->ip.dst = c.tuple.remote_ip;
  pkt->ip.ecn = cfg_.ecn ? net::Ecn::Ect0 : net::Ecn::NotEct;
  pkt->tcp.sport = c.tuple.local_port;
  pkt->tcp.dport = c.tuple.remote_port;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = c.rcv_nxt;
  pkt->tcp.flags =
      static_cast<std::uint8_t>(flag::kAck | extra_flags |
                                (len > 0 ? flag::kPsh : 0) |
                                (c.ece_pending ? flag::kEce : 0));
  c.ece_pending = false;
  pkt->tcp.window = adv_window(c);
  pkt->tcp.ts = net::TcpTsOpt{now_ts(), c.ts_recent};

  if (len > 0) {
    pkt->payload.resize(len);
    const std::uint32_t off = seq_diff(seq, c.snd_una);
    const std::size_t got = c.tx.peek(off, pkt->payload);
    assert(got == len);
    (void)got;
  }

  if (cpu_ != nullptr) {
    const auto& k = cfg_.costs;
    const std::uint64_t cyc =
        k.driver_tx + k.stack_tx + k.copy_per_kb * (len / 1024);
    c.cpu_chain = cpu_->run(cyc, sim::CpuCat::Stack, c.cpu_chain,
                            [this, pkt] { xmit(pkt); });
    cpu_->reattribute(sim::CpuCat::Stack, sim::CpuCat::Driver, k.driver_tx);
  } else {
    xmit(pkt);
  }
}

void SwTcpStack::send_ack(ConnId cid, Conn& c) {
  (void)cid;
  auto pkt = pool_.acquire();
  pkt->eth.src = cfg_.mac;
  pkt->eth.dst = resolve_mac(c);
  pkt->ip.src = c.tuple.local_ip;
  pkt->ip.dst = c.tuple.remote_ip;
  pkt->tcp.sport = c.tuple.local_port;
  pkt->tcp.dport = c.tuple.remote_port;
  pkt->tcp.seq = c.snd_nxt;
  pkt->tcp.ack = c.rcv_nxt;
  pkt->tcp.flags = static_cast<std::uint8_t>(
      flag::kAck | (c.ece_pending ? flag::kEce : 0));
  c.ece_pending = false;
  pkt->tcp.window = adv_window(c);
  pkt->tcp.ts = net::TcpTsOpt{now_ts(), c.ts_recent};

  if (cpu_ != nullptr) {
    const auto& k = cfg_.costs;
    c.cpu_chain = cpu_->run(k.driver_tx + k.stack_tx, sim::CpuCat::Stack,
                            c.cpu_chain, [this, pkt] { xmit(pkt); });
    cpu_->reattribute(sim::CpuCat::Stack, sim::CpuCat::Driver, k.driver_tx);
  } else {
    xmit(pkt);
  }
}

void SwTcpStack::send_ctrl(const tcp::FlowTuple& t, net::MacAddr peer_mac,
                           SeqNum seq, SeqNum ack, std::uint8_t flags,
                           std::optional<std::uint16_t> mss_opt,
                           std::uint32_t ts_ecr) {
  auto pkt = pool_.acquire();
  pkt->eth.src = cfg_.mac;
  pkt->eth.dst = peer_mac;
  pkt->ip.src = t.local_ip;
  pkt->ip.dst = t.remote_ip;
  pkt->tcp.sport = t.local_port;
  pkt->tcp.dport = t.remote_port;
  pkt->tcp.seq = seq;
  pkt->tcp.ack = ack;
  pkt->tcp.flags = flags;
  pkt->tcp.window = static_cast<std::uint16_t>(
      std::min<std::size_t>(cfg_.sockbuf_bytes >> kWindowShift, 0xFFFF));
  pkt->tcp.mss = mss_opt;
  pkt->tcp.ts = net::TcpTsOpt{now_ts(), ts_ecr};
  xmit(pkt);
}

void SwTcpStack::xmit(const net::PacketPtr& pkt) {
  ++segs_tx_;
  if (tx_sink_ != nullptr) tx_sink_->deliver(pkt);
}

net::MacAddr SwTcpStack::resolve_mac(const Conn& c) const {
  return c.peer_mac;
}

std::uint16_t SwTcpStack::adv_window(const Conn& c) const {
  const std::size_t units = c.rx.free_space() >> kWindowShift;
  return static_cast<std::uint16_t>(std::min<std::size_t>(units, 0xFFFF));
}

// ------------------------------------------------------------------ DCTCP

void SwTcpStack::cc_on_ack(Conn& c, std::uint32_t acked, bool ece) {
  c.acked_win += acked;
  if (ece) c.ecn_win += acked;

  // Once per observation window (~cwnd of ACKed data): update alpha.
  if (seq_ge(c.snd_una, c.alpha_seq)) {
    if (c.acked_win > 0) {
      const double frac = static_cast<double>(c.ecn_win) /
                          static_cast<double>(c.acked_win);
      c.alpha = (1.0 - 1.0 / 16.0) * c.alpha + (1.0 / 16.0) * frac;
      if (c.ecn_win > 0) {
        const auto reduced = static_cast<std::uint64_t>(
            static_cast<double>(c.cwnd) * (1.0 - c.alpha / 2.0));
        c.cwnd = std::max<std::uint64_t>(reduced, 2 * cfg_.mss);
      }
    }
    c.acked_win = 0;
    c.ecn_win = 0;
    c.alpha_seq = c.snd_nxt;
  }

  if (!ece) {
    if (c.cwnd < c.ssthresh) {
      c.cwnd = std::min<std::uint64_t>(c.cwnd + acked, cfg_.max_cwnd_bytes);
    } else {
      const std::uint64_t incr =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cfg_.mss) *
                                         acked / std::max<std::uint64_t>(c.cwnd, 1));
      c.cwnd = std::min<std::uint64_t>(c.cwnd + incr, cfg_.max_cwnd_bytes);
    }
  }
}

void SwTcpStack::cc_on_fast_rtx(Conn& c) {
  c.ssthresh = std::max<std::uint64_t>(c.cwnd / 2, 2 * cfg_.mss);
  c.cwnd = c.ssthresh;
}

void SwTcpStack::cc_on_timeout(Conn& c) {
  c.ssthresh = std::max<std::uint64_t>(c.cwnd / 2, 2 * cfg_.mss);
  c.cwnd = cfg_.mss;
}

// ------------------------------------------------------------------ timers

void SwTcpStack::arm_rto(ConnId cid, Conn& c) {
  c.rto_at = ev_.now() + c.rtt.rto_backed_off();
  c.rto_seq = ev_.reserve_seq();
  if (c.rto_at < c.rto_queued_at) queue_rto(cid, c);
}

void SwTcpStack::cancel_rto(Conn& c) {
  ++c.timer_gen;
  c.rto_at = kNoTimer;
}

void SwTcpStack::queue_rto(ConnId cid, Conn& c) {
  const std::uint64_t seq = c.rto_seq;
  c.rto_queued_at = c.rto_at;
  c.rto_queued_seq = seq;
  ev_.schedule_at(c.rto_at, seq, [this, cid, seq] { on_rto_event(cid, seq); });
}

void SwTcpStack::on_rto_event(ConnId cid, std::uint64_t seq) {
  Conn* cp = get(cid);
  if (cp == nullptr || cp->rto_queued_seq != seq) return;  // superseded
  Conn& c = *cp;
  c.rto_queued_at = kNoTimer;
  if (c.rto_at == kNoTimer) return;  // cancelled
  if (c.rto_at != ev_.now() || c.rto_seq != seq) {
    // Re-armed since this event was queued: the armed (deadline, seq)
    // lies after this event's, so re-queueing keeps its exact place.
    queue_rto(cid, c);
    return;
  }
  c.rto_at = kNoTimer;
  on_rto(cid, c);
}

void SwTcpStack::enter_time_wait(ConnId cid, Conn& c) {
  c.state = State::TimeWait;
  cancel_rto(c);
  const std::uint64_t gen = c.timer_gen;
  ev_.schedule_in(cfg_.time_wait, [this, cid, gen] {
    Conn* cc = get(cid);
    if (cc != nullptr && cc->timer_gen == gen) free_conn(cid);
  });
}

void SwTcpStack::on_rto(ConnId cid, Conn& c) {
  switch (c.state) {
    case State::SynSent:
      ++timeouts_;
      c.rtt.backoff();
      send_ctrl(c.tuple, c.peer_mac, c.iss, 0, flag::kSyn, cfg_.mss, 0);
      arm_rto(cid, c);
      return;
    case State::SynRcvd:
      ++timeouts_;
      c.rtt.backoff();
      send_ctrl(c.tuple, c.peer_mac, c.iss, c.rcv_nxt,
                flag::kSyn | flag::kAck, cfg_.mss, c.ts_recent);
      arm_rto(cid, c);
      return;
    case State::TimeWait:
    case State::Closed:
      return;
    default:
      break;
  }

  if (seq_ge(c.snd_una, c.snd_max)) return;  // nothing outstanding

  ++timeouts_;
  cc_on_timeout(c);
  c.rtt.backoff();
  c.dupacks = 0;
  c.high_rtx = c.snd_max;
  // Go-back-N from the last acknowledged byte.
  c.snd_nxt = c.snd_una;
  if (c.fin_sent) c.fin_sent = false;  // FIN will be re-emitted
  try_transmit(cid);
  Conn* again = get(cid);
  if (again != nullptr && again->snd_nxt != again->snd_una) {
    arm_rto(cid, *again);
  }
}

}  // namespace flextoe::baseline
