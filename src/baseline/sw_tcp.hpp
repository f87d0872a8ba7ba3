// A complete software TCP endpoint for the simulated fabric.
//
// This one engine plays several roles in the reproduction:
//  * the client-side stack driving load at FlexTOE servers,
//  * the Linux / TAS / Chelsio baseline stacks (via cost/feature
//    "personalities", see personality.hpp),
//  * the interoperability peer for FlexTOE (§5: "FlexTOE maintains high
//    performance when interoperating with other network stacks").
//
// It implements the full TCP state machine over the byte-exact packet
// substrate: 3-way handshake, data transfer with flow control, DCTCP
// congestion control with ECN echo, timestamp-based RTT estimation,
// duplicate-ACK fast retransmit, RTO with exponential backoff, go-back-N
// or SACK-quality recovery (per personality), and FIN/RST teardown.
// Host processing costs are charged to a CpuPool per packet/operation.
//
// Timers: one RTO event per connection. The stack arms the RTO on every
// segment it sends and on every ACK that leaves data outstanding, so
// arming only records the deadline (now + backed-off RTO) and a FIFO
// rank reserved from the event queue at arm time
// (EventQueue::reserve_seq). An event is queued only when none is, or
// when the new deadline is earlier than the queued one (the RTO shrank);
// the superseded event then sees a stale token when it fires and drops
// out. A cancel clears the deadline; the queued event drops out when it
// fires. An event that fires before the armed deadline re-queues itself
// at the armed (deadline, rank); only the event at exactly that key runs
// the timeout. Each timeout therefore runs at the same (time, rank) as
// if every arm had queued its own event, while the heap holds about one
// RTO event per connection instead of one per segment and ACK of the
// last RTO. TIME_WAIT keeps its own single event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/cpu.hpp"
#include "sim/domain.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "tcp/byte_ring.hpp"
#include "tcp/flow.hpp"
#include "tcp/ooo.hpp"
#include "tcp/rtt.hpp"
#include "tcp/seq.hpp"
#include "tcp/stack_iface.hpp"

namespace flextoe::baseline {

// Host cycles charged per operation; defaults are zero (ideal stack).
struct SwTcpCosts {
  std::uint32_t driver_rx = 0;   // NIC driver, per received segment
  std::uint32_t driver_tx = 0;   // NIC driver, per transmitted segment
  std::uint32_t stack_rx = 0;    // TCP/IP processing, per received segment
  std::uint32_t stack_tx = 0;    // TCP/IP processing, per transmitted segment
  std::uint32_t sock_op = 0;     // sockets layer, per send()/recv() call
  std::uint32_t other_op = 0;    // kernel crossings etc., per send()/recv()
  std::uint32_t copy_per_kb = 0; // payload copy cost per KiB (0 = free)
};

struct SwTcpConfig {
  net::MacAddr mac;
  net::Ipv4Addr ip = 0;
  std::uint32_t mss = tcp::kDefaultMss;
  std::size_t sockbuf_bytes = 512 * 1024;
  tcp::OooMode ooo = tcp::OooMode::Single;
  bool go_back_n = true;     // false: SACK-quality single-segment rtx (Linux)
  bool ecn = true;           // DCTCP ECT marking + ECE echo
  bool delayed_ack = false;  // coalesce ACKs (off: ack every segment)
  SwTcpCosts costs;
  std::uint64_t init_cwnd_segments = 10;
  std::uint64_t max_cwnd_bytes = 2 * 1024 * 1024;
  sim::TimePs min_rto = sim::ms(1);
  sim::TimePs max_rto = sim::ms(200);
  sim::TimePs time_wait = sim::ms(1);
};

class SwTcpStack final : public tcp::StackIface, public net::PacketSink {
 public:
  SwTcpStack(sim::Domain& ev, sim::Rng rng, SwTcpConfig cfg);
  ~SwTcpStack() override;

  // Wiring.
  void set_tx_sink(net::PacketSink* sink) { tx_sink_ = sink; }
  void set_cpu(sim::CpuPool* cpu) { cpu_ = cpu; }
  void set_gateway_mac(net::MacAddr mac) { gateway_mac_ = mac; }

  // StackIface.
  void set_callbacks(tcp::StackCallbacks cbs) override { cbs_ = std::move(cbs); }
  void listen(std::uint16_t port) override;
  tcp::ConnId connect(net::Ipv4Addr remote_ip,
                      std::uint16_t remote_port) override;
  std::size_t send(tcp::ConnId c, std::span<const std::uint8_t> data) override;
  std::size_t recv(tcp::ConnId c, std::span<std::uint8_t> out) override;
  std::size_t rx_available(tcp::ConnId c) const override;
  std::size_t tx_space(tcp::ConnId c) const override;
  void close(tcp::ConnId c) override;
  net::Ipv4Addr local_ip() const override { return cfg_.ip; }

  // PacketSink (NIC RX).
  void deliver(const net::PacketPtr& pkt) override;

  // Introspection for tests and benches.
  enum class State : std::uint8_t {
    Closed,
    Listen,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
  };
  State conn_state(tcp::ConnId c) const;
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t segs_rx() const { return segs_rx_; }
  std::uint64_t segs_tx() const { return segs_tx_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t cwnd_bytes(tcp::ConnId c) const;
  const net::MacAddr& mac() const { return cfg_.mac; }
  // Recycled allocator behind every segment this stack emits (client
  // stacks are segment producers on the data path too).
  const net::PacketPool& pkt_pool() const { return pool_; }

  // Debug/diagnostic snapshot of one connection's sequence state.
  struct ConnDebug {
    tcp::SeqNum snd_una = 0;
    tcp::SeqNum snd_nxt = 0;
    tcp::SeqNum rcv_nxt = 0;
    std::uint32_t snd_wnd = 0;
    std::size_t tx_used = 0;
    std::size_t rx_used = 0;
  };
  ConnDebug conn_debug(tcp::ConnId c) const;

 private:
  static constexpr sim::TimePs kNoTimer = sim::EventQueue::kNoEvent;

  struct Conn {
    tcp::FlowTuple tuple;
    State state = State::Closed;
    net::MacAddr peer_mac;

    // Send side.
    tcp::SeqNum iss = 0;
    tcp::SeqNum snd_una = 0;
    tcp::SeqNum snd_nxt = 0;
    tcp::SeqNum snd_max = 0;  // highest seq ever sent (go-back-N rewinds
                              // snd_nxt; ACKs up to snd_max remain valid)
    std::uint32_t snd_wnd = 0;   // peer-advertised window
    std::uint32_t peer_mss = tcp::kDefaultMss;
    tcp::ByteRing tx;
    bool fin_pending = false;    // app closed; FIN after tx drains
    bool fin_sent = false;
    tcp::SeqNum fin_seq = 0;

    // DCTCP window state.
    std::uint64_t cwnd = 0;
    std::uint64_t ssthresh = 0;
    double alpha = 0.0;
    std::uint64_t acked_win = 0;   // bytes ACKed in current observation wnd
    std::uint64_t ecn_win = 0;     // of which ECN-echoed
    tcp::SeqNum alpha_seq = 0;     // window boundary for alpha update

    // Receive side.
    tcp::SeqNum irs = 0;
    tcp::SeqNum rcv_nxt = 0;
    tcp::ByteRing rx;
    tcp::OooTracker ooo;
    bool peer_fin = false;      // FIN consumed (rcv side finished)
    bool rx_win_closed = false; // advertised zero window at some point
    bool cbs_closed = false;    // on_close already delivered

    // Loss recovery.
    std::uint32_t dupacks = 0;
    // Bumped by every RTO cancel; retires the TIME_WAIT event.
    std::uint64_t timer_gen = 0;
    // The RTO (see "Timers" above): the armed deadline and its reserved
    // FIFO rank, then the time and rank of the one queued RTO event.
    // The queued rank is the token that retires superseded events.
    sim::TimePs rto_at = kNoTimer;
    std::uint64_t rto_seq = 0;
    sim::TimePs rto_queued_at = kNoTimer;
    std::uint64_t rto_queued_seq = 0;
    tcp::RttEstimator rtt;
    tcp::SeqNum high_rtx = 0;   // fast-rtx dedup within one window

    // ECN echo state.
    bool ece_pending = false;

    // Timestamps.
    std::uint32_t ts_recent = 0;

    // Per-conn processing serialization on the CPU pool.
    sim::TimePs cpu_chain = 0;

    std::uint64_t bytes_rxed = 0;
    std::uint64_t bytes_acked = 0;

    Conn(std::size_t bufsz, tcp::OooMode mode)
        : tx(bufsz), rx(bufsz), ooo(mode) {}
  };

  Conn* get(tcp::ConnId c) const;
  tcp::ConnId alloc_conn(const tcp::FlowTuple& t, net::MacAddr peer_mac);
  void free_conn(tcp::ConnId c);

  // RX path (after CPU charge).
  void process_segment(const net::PacketPtr& pkt);
  void handle_listen_syn(const net::PacketPtr& pkt);
  void handle_conn_segment(tcp::ConnId cid, const net::PacketPtr& pkt);
  void process_ack(tcp::ConnId cid, Conn& c, const net::Packet& pkt);
  void process_payload(tcp::ConnId cid, Conn& c, const net::Packet& pkt);

  // TX path.
  void try_transmit(tcp::ConnId cid);
  void emit_segment(tcp::ConnId cid, Conn& c, tcp::SeqNum seq,
                    std::uint32_t len, std::uint8_t extra_flags);
  void send_ack(tcp::ConnId cid, Conn& c);
  void send_ctrl(const tcp::FlowTuple& t, net::MacAddr peer_mac,
                 tcp::SeqNum seq, tcp::SeqNum ack, std::uint8_t flags,
                 std::optional<std::uint16_t> mss_opt,
                 std::uint32_t ts_ecr);
  void xmit(const net::PacketPtr& pkt);

  // DCTCP helpers.
  void cc_on_ack(Conn& c, std::uint32_t acked, bool ece);
  void cc_on_fast_rtx(Conn& c);
  void cc_on_timeout(Conn& c);
  std::uint64_t effective_window(const Conn& c) const;

  // Timers.
  void arm_rto(tcp::ConnId cid, Conn& c);
  void cancel_rto(Conn& c);
  void queue_rto(tcp::ConnId cid, Conn& c);
  void on_rto_event(tcp::ConnId cid, std::uint64_t seq);
  void on_rto(tcp::ConnId cid, Conn& c);
  void enter_time_wait(tcp::ConnId cid, Conn& c);

  std::uint32_t now_ts() const {
    return static_cast<std::uint32_t>(ev_.now() / sim::kPsPerUs);
  }
  std::uint16_t adv_window(const Conn& c) const;
  void notify_data(tcp::ConnId cid, Conn& c);
  void maybe_close_notify(tcp::ConnId cid, Conn& c);
  net::MacAddr resolve_mac(const Conn& c) const;

  sim::Domain& ev_;
  sim::Rng rng_;
  SwTcpConfig cfg_;
  // Pooled Packet slots for emit_segment/send_ack/send_ctrl; packets
  // already serialized onto links safely outlive a destroyed stack.
  net::PacketPool pool_;
  net::PacketSink* tx_sink_ = nullptr;
  sim::CpuPool* cpu_ = nullptr;
  net::MacAddr gateway_mac_{};  // dst MAC fallback (switch learns anyway)
  tcp::StackCallbacks cbs_;

  std::vector<std::unique_ptr<Conn>> conns_;
  std::unordered_map<tcp::FlowTuple, tcp::ConnId, tcp::FlowTupleHash>
      by_tuple_;
  std::vector<bool> listening_ = std::vector<bool>(65536, false);
  std::uint16_t next_ephemeral_ = 20000;

  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t segs_rx_ = 0;
  std::uint64_t segs_tx_ = 0;
  std::uint64_t bytes_delivered_ = 0;
};

}  // namespace flextoe::baseline
