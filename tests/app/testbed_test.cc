// Application + testbed integration: the same app binaries (KV server,
// echo, producers) running over FlexTOE and every baseline personality.
#include "app/testbed.hpp"

#include <gtest/gtest.h>

#include "app/kv.hpp"
#include "app/rpc_app.hpp"
#include "host/flextoe_nic.hpp"
#include "host/libtoe.hpp"

namespace flextoe::app {
namespace {

TEST(Testbed, KvOverFlexToe) {
  Testbed tb(1);
  auto& server = tb.add_flextoe_node({.cores = 2});
  auto& client = tb.add_client_node();

  KvServer srv(tb.ev(), *server.stack, {}, server.cpu.get());
  KvClient::Params cp;
  cp.connections = 4;
  cp.pipeline = 2;
  cp.get_ratio = 0.5;
  KvClient cli(tb.ev(), *client.stack, server.ip, cp);
  cli.start();

  tb.run_for(sim::ms(50));
  EXPECT_GT(cli.completed(), 500u);
  EXPECT_GT(srv.sets(), 100u);
  EXPECT_GT(srv.gets(), 100u);
  EXPECT_GT(srv.store().size(), 10u);
  // Some GETs hit values previously SET.
  EXPECT_LT(srv.misses(), srv.gets());
}

struct PersonalityCase {
  const char* name;
};

class KvOverBaselines : public ::testing::TestWithParam<const char*> {};

TEST_P(KvOverBaselines, CompletesTransactions) {
  const std::string which = GetParam();
  Testbed tb(2);
  baseline::Personality pers = which == "linux"   ? baseline::linux_personality()
                               : which == "chelsio" ? baseline::chelsio_personality()
                                                    : baseline::tas_personality();
  auto& server = tb.add_sw_node({.cores = 2}, pers);
  auto& client = tb.add_client_node();

  KvServer srv(tb.ev(), *server.stack, {.port = 11211, .app_cycles = pers.app_cycles_per_req},
               server.cpu.get());
  KvClient::Params cp;
  cp.connections = 4;
  cp.pipeline = 2;
  KvClient cli(tb.ev(), *client.stack, server.ip, cp);
  cli.start();

  tb.run_for(sim::ms(50));
  EXPECT_GT(cli.completed(), 200u) << which;
  EXPECT_GT(srv.gets() + srv.sets(), 200u) << which;
  // Host CPU cycles were actually charged.
  EXPECT_GT(server.cpu->total_cycles(), 0u) << which;
}

INSTANTIATE_TEST_SUITE_P(Stacks, KvOverBaselines,
                         ::testing::Values("linux", "chelsio", "tas"));

TEST(Testbed, EchoRpcOverFlexToeSaturates) {
  Testbed tb(3);
  auto& server = tb.add_flextoe_node({.cores = 4});
  auto& client = tb.add_client_node();

  EchoServer srv(tb.ev(), *server.stack, {.port = 7}, nullptr);
  ClosedLoopClient::Params cp;
  cp.connections = 16;
  cp.pipeline = 4;
  cp.request_size = 64;
  ClosedLoopClient cli(tb.ev(), *client.stack, server.ip, cp);
  cli.start();

  tb.run_for(sim::ms(20));
  cli.clear_stats();
  tb.run_for(sim::ms(50));
  const double mops = static_cast<double>(cli.completed()) / 50e3;
  EXPECT_GT(mops, 0.2) << "echo RPC rate too low: " << mops << " MOps";
  EXPECT_GT(cli.latency().median(), 0.0);
}

TEST(Testbed, ProducerStreamsToDrainClients) {
  Testbed tb(4);
  auto& server = tb.add_flextoe_node({.cores = 2});
  auto& client = tb.add_client_node();

  ProducerServer srv(tb.ev(), *server.stack, {.port = 9, .frame_size = 4096});
  DrainClient::Params dp;
  dp.connections = 4;
  dp.port = 9;
  DrainClient cli(tb.ev(), *client.stack, server.ip, dp);
  cli.start();

  tb.run_for(sim::ms(50));
  // Should move serious volume (tens of Mbit in 50 ms).
  EXPECT_GT(cli.bytes_rx(), 5u * 1024 * 1024);
  const auto per_conn = cli.per_conn_bytes();
  for (double b : per_conn) EXPECT_GT(b, 0.0);
}

TEST(Testbed, MultipleServersShareSwitch) {
  Testbed tb(5);
  auto& s1 = tb.add_flextoe_node({.cores = 1});
  auto& s2 = tb.add_sw_node({.cores = 1}, baseline::tas_personality());
  auto& client = tb.add_client_node();

  EchoServer e1(tb.ev(), *s1.stack, {.port = 7});
  EchoServer e2(tb.ev(), *s2.stack, {.port = 7});

  ClosedLoopClient::Params cp;
  cp.connections = 2;
  cp.request_size = 128;
  // One client stack can only hold one callback set; use two client nodes.
  auto& client2 = tb.add_client_node();
  ClosedLoopClient c1(tb.ev(), *client.stack, s1.ip, cp);
  ClosedLoopClient c2(tb.ev(), *client2.stack, s2.ip, cp);
  c1.start();
  c2.start();

  tb.run_for(sim::ms(30));
  EXPECT_GT(c1.completed(), 100u);
  EXPECT_GT(c2.completed(), 100u);
}

// Socket-buffer lifecycle over two FlexTOE nodes: libTOE allocates one
// RX/TX pair per connection when its handshake starts, the data path
// binds that same pair, and the pair is released once the connection is
// dead and the app has closed it.
struct TwoToeNodes {
  Testbed tb{6};
  Testbed::Node& server = tb.add_flextoe_node({.cores = 1});
  Testbed::Node& client = tb.add_flextoe_node({.cores = 1});
  host::LibToe& slib = server.toe->libtoe();
  host::LibToe& clib = client.toe->libtoe();
  std::size_t connected = 0;
  std::size_t accepted = 0;

  explicit TwoToeNodes(bool close_when_connected) {
    tcp::StackCallbacks scbs;
    scbs.on_accept = [this](tcp::ConnId) { ++accepted; };
    scbs.on_close = [this](tcp::ConnId c) { slib.close(c); };
    slib.set_callbacks(std::move(scbs));
    slib.listen(80);
    tcp::StackCallbacks ccbs;
    ccbs.on_connected = [this, close_when_connected](tcp::ConnId c,
                                                     bool ok) {
      if (!ok) return;
      ++connected;
      if (close_when_connected) clib.close(c);
    };
    ccbs.on_close = [this](tcp::ConnId c) { clib.close(c); };
    clib.set_callbacks(std::move(ccbs));
  }
};

TEST(SocketBufs, OnePairPerHandshake) {
  TwoToeNodes t(/*close_when_connected=*/false);
  constexpr std::size_t kConns = 8;
  for (std::size_t i = 0; i < kConns; ++i) t.clib.connect(t.server.ip, 80);
  // Active side: the pair exists from connect() on.
  EXPECT_EQ(t.clib.live_bufs(), 2 * kConns);
  t.tb.run_for(sim::ms(2));
  ASSERT_EQ(t.connected, kConns);
  ASSERT_EQ(t.accepted, kConns);
  for (host::LibToe* lib : {&t.clib, &t.slib}) {
    EXPECT_EQ(lib->live_bufs(), 2 * kConns);
    EXPECT_EQ(lib->allocated_bufs(), 2 * kConns);  // none replaced
  }
}

TEST(SocketBufs, ChurnReturnsToIdle) {
  TwoToeNodes t(/*close_when_connected=*/true);
  constexpr std::size_t kCycles = 6;
  for (std::size_t i = 0; i < kCycles; ++i) {
    t.clib.connect(t.server.ip, 80);
    t.tb.run_for(sim::ms(1));
  }
  // Past every TIME_WAIT (1 ms): all connections are dead and closed.
  t.tb.run_for(sim::ms(5));
  ASSERT_EQ(t.connected, kCycles);
  ASSERT_EQ(t.accepted, kCycles);
  for (host::LibToe* lib : {&t.clib, &t.slib}) {
    EXPECT_EQ(lib->live_bufs(), 0u);
    EXPECT_EQ(lib->allocated_bufs(), 2 * kCycles);
  }
}

TEST(SocketBufs, FailedConnectFreesAtOnce) {
  TwoToeNodes t(/*close_when_connected=*/false);
  // Nobody listens on port 81: the server answers the SYN with a RST.
  t.clib.connect(t.server.ip, 81);
  EXPECT_EQ(t.clib.live_bufs(), 2u);
  t.tb.run_for(sim::ms(1));
  EXPECT_EQ(t.connected, 0u);
  EXPECT_EQ(t.clib.live_bufs(), 0u);
  EXPECT_EQ(t.slib.allocated_bufs(), 0u);
}

TEST(SocketBufs, AbortedPassiveOpenFrees) {
  TwoToeNodes t(/*close_when_connected=*/false);
  // A SYN from a host that never answers the SYN-ACK.
  const net::Ipv4Addr ghost = net::make_ip(10, 0, 0, 99);
  t.server.toe->datapath().deliver(net::make_tcp_packet(
      Testbed::mac_for(ghost), Testbed::mac_for(t.server.ip), ghost,
      t.server.ip, 5555, 80, 1000, 0, net::tcpflag::kSyn, {}));
  t.tb.run_for(sim::ms(1));
  EXPECT_EQ(t.slib.live_bufs(), 2u);
  t.tb.run_for(sim::ms(200));  // past every SYN-ACK retry
  EXPECT_EQ(t.accepted, 0u);
  EXPECT_EQ(t.slib.live_bufs(), 0u);
  EXPECT_EQ(t.slib.allocated_bufs(), 2u);
}

}  // namespace
}  // namespace flextoe::app
