// End-to-end tests of the software TCP stack over the simulated fabric:
// handshake, data transfer, loss recovery, flow control, teardown.
#include "baseline/sw_tcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "net/switch.hpp"
#include "sim/domain.hpp"

namespace flextoe::baseline {
namespace {

using tcp::ConnId;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 7) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 31 + seed);
  }
  return v;
}

// Two stacks joined through a 2-port switch.
struct Pair {
  sim::Domain ev;
  net::Switch sw;
  net::Link link_a, link_b;
  SwTcpStack a, b;

  explicit Pair(SwTcpConfig ca = {}, SwTcpConfig cb = {},
                double link_loss = 0.0)
      : sw(ev, sim::Rng(1), 2),
        link_a(ev, sim::Rng(2), {40.0, sim::ns(500), link_loss}),
        link_b(ev, sim::Rng(3), {40.0, sim::ns(500), link_loss}),
        a(ev, sim::Rng(4), fill(ca, 1)),
        b(ev, sim::Rng(5), fill(cb, 2)) {
    link_a.set_sink(sw.ingress_sink(0));
    link_b.set_sink(sw.ingress_sink(1));
    a.set_tx_sink(&link_a);
    b.set_tx_sink(&link_b);
    sw.attach(0, &a);
    sw.attach(1, &b);
    a.set_gateway_mac(b.mac());
    b.set_gateway_mac(a.mac());
  }

  static SwTcpConfig fill(SwTcpConfig c, int idx) {
    c.mac = net::MacAddr::from_u64(0x020000000000ull + idx);
    c.ip = net::make_ip(10, 0, 0, static_cast<std::uint8_t>(idx));
    return c;
  }

  void run_for(sim::TimePs t) { ev.run_until(ev.now() + t); }
};

TEST(SwTcp, HandshakeEstablishes) {
  Pair p;
  bool accepted = false, connected = false;
  ConnId server_conn = tcp::kInvalidConn;
  tcp::StackCallbacks scb;
  scb.on_accept = [&](ConnId c) {
    accepted = true;
    server_conn = c;
  };
  p.b.set_callbacks(scb);
  p.b.listen(7777);

  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId, bool ok) { connected = ok; };
  p.a.set_callbacks(ccb);
  const ConnId c = p.a.connect(p.b.local_ip(), 7777);

  p.run_for(sim::ms(10));
  EXPECT_TRUE(connected);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(p.a.conn_state(c), SwTcpStack::State::Established);
  EXPECT_EQ(p.b.conn_state(server_conn), SwTcpStack::State::Established);
}

TEST(SwTcp, ConnectToClosedPortFails) {
  Pair p;
  bool ok = true, called = false;
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId, bool o) {
    ok = o;
    called = true;
  };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 9999);
  p.run_for(sim::ms(10));
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

TEST(SwTcp, SmallTransferDeliversIntact) {
  Pair p;
  const auto data = pattern(1000);
  std::vector<std::uint8_t> rxed;
  ConnId server_conn = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_accept = [&](ConnId c) { server_conn = c; };
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) {
      rxed.insert(rxed.end(), buf, buf + n);
    }
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) { p.a.send(c, data); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(50));
  EXPECT_EQ(rxed, data);
}

TEST(SwTcp, MultiSegmentTransfer) {
  Pair p;
  const auto data = pattern(100 * 1024);  // ~70 segments
  std::vector<std::uint8_t> rxed;
  std::size_t sent = 0;
  ConnId client_conn = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) rxed.insert(rxed.end(), buf, buf + n);
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  auto push = [&] {
    if (sent < data.size()) {
      sent += p.a.send(client_conn,
                       std::span(data.data() + sent, data.size() - sent));
    }
  };
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(200));
  EXPECT_EQ(rxed.size(), data.size());
  EXPECT_EQ(rxed, data);
}

TEST(SwTcp, EchoRoundTrip) {
  Pair p;
  const auto data = pattern(4000, 3);
  std::vector<std::uint8_t> echoed;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) {
      p.b.send(c, std::span(buf, n));  // echo back
    }
  };
  p.b.set_callbacks(scb);
  p.b.listen(7);

  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) { p.a.send(c, data); };
  ccb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.a.recv(c, buf)) > 0) {
      echoed.insert(echoed.end(), buf, buf + n);
    }
  };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 7);

  p.run_for(sim::ms(100));
  EXPECT_EQ(echoed, data);
}

TEST(SwTcp, GracefulCloseBothSides) {
  Pair p;
  ConnId server_conn = tcp::kInvalidConn;
  ConnId client_conn = tcp::kInvalidConn;
  bool server_closed = false;

  tcp::StackCallbacks scb;
  scb.on_accept = [&](ConnId c) { server_conn = c; };
  scb.on_close = [&](ConnId c) {
    server_closed = true;
    p.b.close(c);  // passive close
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    p.a.close(c);  // active close right away
  };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(50));
  EXPECT_TRUE(server_closed);
  // Server side fully freed (LastAck -> Closed); client in TimeWait or
  // already recycled.
  EXPECT_EQ(p.b.conn_state(server_conn), SwTcpStack::State::Closed);
  const auto cs = p.a.conn_state(client_conn);
  EXPECT_TRUE(cs == SwTcpStack::State::TimeWait ||
              cs == SwTcpStack::State::Closed);
}

TEST(SwTcp, FlowControlBlocksAndResumes) {
  SwTcpConfig small;
  small.sockbuf_bytes = 16 * 1024;  // tiny server RX buffer
  Pair p({}, small);
  const auto data = pattern(64 * 1024);
  std::vector<std::uint8_t> rxed;
  ConnId server_conn = tcp::kInvalidConn;
  ConnId client_conn = tcp::kInvalidConn;
  std::size_t sent = 0;

  tcp::StackCallbacks scb;
  scb.on_accept = [&](ConnId c) { server_conn = c; };
  p.b.set_callbacks(scb);  // note: no on_data drain — receiver stalls
  p.b.listen(80);

  auto push = [&] {
    if (sent < data.size()) {
      sent += p.a.send(client_conn,
                       std::span(data.data() + sent, data.size() - sent));
    }
  };
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(100));
  // Receiver never read: at most the RX buffer worth of data can have
  // been delivered; the rest is held back by the advertised window.
  EXPECT_LE(p.b.rx_available(server_conn), 16 * 1024u);
  EXPECT_GT(p.b.rx_available(server_conn), 0u);

  // Now drain the server; transfer should complete.
  std::uint8_t buf[4096];
  for (int i = 0; i < 20000 && rxed.size() < data.size(); ++i) {
    std::size_t n = p.b.recv(server_conn, buf);
    if (n > 0) {
      rxed.insert(rxed.end(), buf, buf + n);
    } else {
      p.run_for(sim::us(200));
    }
  }
  EXPECT_EQ(rxed, data);
}

TEST(SwTcp, BidirectionalSimultaneousTransfer) {
  Pair p;
  const auto da = pattern(50 * 1024, 1);
  const auto db = pattern(50 * 1024, 2);
  std::vector<std::uint8_t> rx_at_b, rx_at_a;
  ConnId sc = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_accept = [&](ConnId c) {
    sc = c;
    p.b.send(c, db);
  };
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) {
      rx_at_b.insert(rx_at_b.end(), buf, buf + n);
    }
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) { p.a.send(c, da); };
  ccb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.a.recv(c, buf)) > 0) {
      rx_at_a.insert(rx_at_a.end(), buf, buf + n);
    }
  };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(200));
  EXPECT_EQ(rx_at_b, da);
  EXPECT_EQ(rx_at_a, db);
}

// Property sweep: transfers complete intact across loss rates, OOO modes
// and seeds (go-back-N + single interval / multi interval / none).
//
// GoogleTest names each case by the raw bytes of its LossCase, padding
// included. `name_bytes` occupies what was padding, whose contents used to
// be whatever the stack held, so case names changed from build to build;
// the fixed values keep every case under the name it is recorded with.
struct LossCase {
  double loss;
  tcp::OooMode ooo;
  bool go_back_n;
  std::array<std::uint8_t, 2> name_bytes;
  int seed;
};
static_assert(sizeof(LossCase) == 16, "every byte of LossCase is a member");

class SwTcpLossTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(SwTcpLossTest, TransferSurvivesLoss) {
  const auto c = GetParam();
  SwTcpConfig receiver;
  receiver.ooo = c.ooo;
  SwTcpConfig sender;
  sender.go_back_n = c.go_back_n;
  Pair p(sender, receiver, c.loss);

  const auto data = pattern(120 * 1024, static_cast<std::uint8_t>(c.seed));
  std::vector<std::uint8_t> rxed;
  ConnId client_conn = tcp::kInvalidConn;
  std::size_t sent = 0;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId cc) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(cc, buf)) > 0) rxed.insert(rxed.end(), buf, buf + n);
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  auto push = [&] {
    if (sent < data.size()) {
      sent += p.a.send(client_conn,
                       std::span(data.data() + sent, data.size() - sent));
    }
  };
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId cc, bool) {
    client_conn = cc;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  // Generous budget: heavy loss needs many RTOs.
  for (int i = 0; i < 600 && rxed.size() < data.size(); ++i) {
    p.run_for(sim::ms(10));
  }
  ASSERT_EQ(rxed.size(), data.size());
  EXPECT_EQ(rxed, data);
  if (c.loss >= 0.01) {
    EXPECT_GT(p.a.retransmits(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossMatrix, SwTcpLossTest,
    ::testing::Values(
        LossCase{0.0, tcp::OooMode::Single, true, {0x04, 0x00}, 1},
        LossCase{0.001, tcp::OooMode::Single, true, {0x70, 0x00}, 2},
        LossCase{0.01, tcp::OooMode::Single, true, {0x00, 0x00}, 3},
        LossCase{0.05, tcp::OooMode::Single, true, {0x00, 0x00}, 4},
        LossCase{0.01, tcp::OooMode::Multi, false, {0x04, 0x00}, 5},
        LossCase{0.05, tcp::OooMode::Multi, false, {0x55, 0x00}, 6},
        LossCase{0.01, tcp::OooMode::None, true, {0x00, 0x00}, 7},
        LossCase{0.001, tcp::OooMode::None, true, {0x00, 0x00}, 8}));

TEST(SwTcp, RetransmitsOnLossAndCountsThem) {
  Pair p({}, {}, 0.02);
  const auto data = pattern(200 * 1024);
  std::vector<std::uint8_t> rxed;
  ConnId client_conn = tcp::kInvalidConn;
  std::size_t sent = 0;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) rxed.insert(rxed.end(), buf, buf + n);
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  auto push = [&] {
    if (sent < data.size()) {
      sent += p.a.send(client_conn,
                       std::span(data.data() + sent, data.size() - sent));
    }
  };
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  for (int i = 0; i < 500 && rxed.size() < data.size(); ++i) {
    p.run_for(sim::ms(10));
  }
  EXPECT_EQ(rxed, data);
  EXPECT_GT(p.a.retransmits(), 0u);
}

TEST(SwTcp, CwndGrowsDuringSlowStart) {
  Pair p;
  ConnId client_conn = tcp::kInvalidConn;
  const auto data = pattern(256 * 1024);
  std::size_t sent = 0;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[16384];
    while (p.b.recv(c, buf) > 0) {
    }
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  std::uint64_t cwnd_at_start = 0;
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    cwnd_at_start = p.a.cwnd_bytes(c);
    sent += p.a.send(c, data);
  };
  ccb.on_sendable = [&](ConnId c) {
    if (sent < data.size()) {
      sent += p.a.send(c, std::span(data.data() + sent, data.size() - sent));
    }
  };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  p.run_for(sim::ms(100));
  EXPECT_GT(p.a.cwnd_bytes(client_conn), cwnd_at_start);
}

// The RTO is armed on every segment sent and on every ACK that leaves
// data outstanding; the event queue must still hold at most one RTO
// event per connection. An 8 KiB window caps what the links and the
// switch hold in flight (~6 data segments and their ACKs, at most one
// event each), while a 1 MiB transfer sends ~725 segments and gets as
// many ACKs well inside one 1 ms RTO — one queued event per arm would
// put ~1400 dead timers in the heap.
TEST(SwTcp, LosslessTransferQueuesOneRtoEventPerConnection) {
  SwTcpConfig cfg;
  cfg.sockbuf_bytes = 8 * 1024;
  Pair p(cfg, cfg);
  const auto data = pattern(1024 * 1024, 5);
  std::size_t rxed = 0, sent = 0;
  ConnId client_conn = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = p.b.recv(c, buf)) > 0) rxed += n;
  };
  p.b.set_callbacks(scb);
  p.b.listen(80);

  auto push = [&] {
    if (sent < data.size()) {
      sent += p.a.send(client_conn,
                       std::span(data.data() + sent, data.size() - sent));
    }
  };
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) {
    client_conn = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  p.a.set_callbacks(ccb);
  p.a.connect(p.b.local_ip(), 80);

  // In-flight bound: 2 x (8 KiB / MSS + 1) packet events, plus one RTO
  // event per connection and slack for the handshake's control packets.
  const std::size_t in_flight = 2 * (cfg.sockbuf_bytes / cfg.mss + 1);
  const std::size_t bound = in_flight + 2 + 4;
  std::size_t peak = 0;
  for (int i = 0; i < 5000 && rxed < data.size(); ++i) {
    p.run_for(sim::ns(200));
    peak = std::max(peak, p.ev.pending());
  }
  ASSERT_EQ(rxed, data.size());
  EXPECT_EQ(p.a.timeouts(), 0u);
  EXPECT_LE(peak, bound);
}

// A sink that drops every packet and logs when it saw one.
struct BlackHole final : net::PacketSink {
  sim::Domain* ev = nullptr;
  std::vector<std::string>* log = nullptr;
  std::vector<sim::TimePs> at;
  void deliver(const net::PacketPtr&) override {
    at.push_back(ev->now());
    log->push_back("pkt");
  }
};

// Every arm moves the deadline to now + RTO; only the last arm counts,
// and the timeout runs exactly where an event queued at that arm would:
// after same-time events queued before the arm, before those queued
// after it — with one RTO event in the queue however often it re-arms.
TEST(SwTcp, ForcedRtoFiresAtLastArmPlusRto) {
  SwTcpConfig cfg;
  cfg.min_rto = cfg.max_rto = sim::ms(1);  // the RTO is 1 ms throughout
  Pair p(cfg, cfg);
  ConnId client_conn = tcp::kInvalidConn;
  tcp::StackCallbacks ccb;
  ccb.on_connected = [&](ConnId c, bool) { client_conn = c; };
  p.a.set_callbacks(ccb);
  p.b.listen(80);
  p.a.connect(p.b.local_ip(), 80);
  p.run_for(sim::ms(5));  // the cancelled handshake timers dropped out
  ASSERT_EQ(p.a.conn_state(client_conn), SwTcpStack::State::Established);
  ASSERT_TRUE(p.ev.empty());

  std::vector<std::string> log;
  BlackHole hole;
  hole.ev = &p.ev;
  hole.log = &log;
  p.a.set_tx_sink(&hole);
  const auto data = pattern(4 * 1024);

  // First arms at t0 (two segments), last arms at t1 (two more).
  const sim::TimePs t0 = p.ev.now();
  ASSERT_EQ(p.a.send(client_conn, std::span(data.data(), 2048)), 2048u);
  p.run_for(sim::us(100));
  const sim::TimePs t1 = p.ev.now();
  const sim::TimePs fire = t1 + cfg.min_rto;
  p.ev.schedule_at(fire, [&] { log.push_back("before"); });
  ASSERT_EQ(p.a.send(client_conn, std::span(data.data() + 2048, 2048)),
            2048u);
  p.ev.schedule_at(fire, [&] { log.push_back("after"); });
  EXPECT_EQ(hole.at.size(), 4u);  // 2 x 2048 B in 1448 B segments
  // Two markers and a single RTO event, after four arms at two times.
  EXPECT_EQ(p.ev.pending(), 3u);

  p.ev.run_until(t0 + cfg.min_rto);
  EXPECT_EQ(p.a.timeouts(), 0u);  // the first arms were superseded
  log.clear();
  p.ev.run_until(fire);
  EXPECT_EQ(p.a.timeouts(), 1u);
  ASSERT_EQ(log.size(), 3u);  // go-back-N resends one segment (cwnd 1)
  EXPECT_EQ(log, (std::vector<std::string>{"before", "pkt", "after"}));
  EXPECT_EQ(hole.at.back(), fire);
}

}  // namespace
}  // namespace flextoe::baseline
