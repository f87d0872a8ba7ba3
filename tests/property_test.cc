// Property-based tests: randomized sweeps over the invariants the system
// must preserve regardless of segmentation, ordering, loss, or stack
// pairing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>

#include "baseline/sw_tcp.hpp"
#include "host/flextoe_nic.hpp"
#include "net/switch.hpp"
#include "sim/domain.hpp"
#include "sim/rng.hpp"
#include "tcp/byte_ring.hpp"
#include "tcp/ooo.hpp"

namespace flextoe {
namespace {

using tcp::ConnId;

// --- Property: the single-interval tracker never advances past data the
// receiver does not hold, and always converges when the sender eventually
// retransmits everything in order (go-back-N contract). ---

class OooPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(OooPropertyTest, RandomSegmentArrivalsConverge) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  tcp::SingleIntervalTracker tracker;

  const std::uint32_t total = 64 * 1024;
  const std::uint32_t window = 256 * 1024;
  std::vector<bool> received(total, false);
  tcp::SeqNum rcv_nxt = 0;

  // Phase 1: a random mix of in-order, out-of-order, duplicate and
  // overlapping segments.
  for (int iter = 0; iter < 3000 && rcv_nxt < total; ++iter) {
    std::uint32_t base;
    if (rng.chance(0.6)) {
      base = rcv_nxt;  // in-order
    } else {
      base = rcv_nxt + static_cast<std::uint32_t>(rng.next_below(8000));
    }
    if (rng.chance(0.2) && rcv_nxt > 2000) {
      base = rcv_nxt - static_cast<std::uint32_t>(rng.next_below(2000));
    }
    const auto len = static_cast<std::uint32_t>(rng.next_range(1, 1448));
    const auto r = tracker.on_segment(rcv_nxt, base, len, window);

    if (r.accept) {
      // Mark the accepted byte range as held.
      const std::uint32_t start =
          base < rcv_nxt ? rcv_nxt : base;  // front trim
      for (std::uint32_t i = 0; i < r.accept_len; ++i) {
        if (start + i < total) received[start + i] = true;
      }
    }
    if (r.advance > 0) {
      // INVARIANT: everything rcv_nxt advances over was received.
      for (std::uint32_t i = 0; i < r.advance; ++i) {
        ASSERT_TRUE(rcv_nxt + i >= total || received[rcv_nxt + i])
            << "advanced over missing byte " << rcv_nxt + i;
      }
      rcv_nxt += r.advance;
    }
  }

  // Phase 2: go-back-N — deliver everything in order from rcv_nxt.
  while (rcv_nxt < total) {
    const std::uint32_t len =
        std::min<std::uint32_t>(1448, total - rcv_nxt);
    const auto r = tracker.on_segment(rcv_nxt, rcv_nxt, len, window);
    ASSERT_TRUE(r.accept);
    for (std::uint32_t i = 0; i < r.accept_len; ++i) {
      received[rcv_nxt + i] = true;
    }
    ASSERT_GT(r.advance, 0u);
    rcv_nxt += r.advance;
  }
  // Random phase-1 segments may legitimately extend past `total`
  // (buffered future bytes merge on the final advance), so converge-at-
  // or-beyond is the invariant.
  EXPECT_GE(rcv_nxt, total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooPropertyTest,
                         ::testing::Range(1, 13));

// --- Property: ByteRing preserves content across arbitrary interleaved
// reads/writes at any capacity/offset combination. ---

class ByteRingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ByteRingPropertyTest, FifoIntegrityUnderRandomOps) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 77);
  const std::size_t cap = 256 + rng.next_below(2048);
  tcp::ByteRing ring(cap);
  std::deque<std::uint8_t> model;
  std::uint8_t next = 0;

  for (int op = 0; op < 5000; ++op) {
    if (rng.chance(0.55)) {
      std::vector<std::uint8_t> data(rng.next_range(1, 300));
      for (auto& b : data) b = next++;
      const std::size_t n = ring.write(data);
      ASSERT_LE(n, data.size());
      for (std::size_t i = 0; i < n; ++i) model.push_back(data[i]);
      // write() accepts exactly min(len, free).
      if (n < data.size()) {
        EXPECT_EQ(ring.free_space(), 0u);
      }
    } else {
      std::vector<std::uint8_t> out(rng.next_range(1, 300));
      const std::size_t n = ring.read(out);
      ASSERT_EQ(n, std::min(out.size(), model.size()));
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], model.front());
        model.pop_front();
      }
    }
    ASSERT_EQ(ring.used(), model.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByteRingPropertyTest,
                         ::testing::Range(1, 9));

// --- Property: any pairing of FlexTOE and software-stack endpoints
// transfers data intact in both directions under loss (interop). ---

//
// GoogleTest names each case by the raw bytes of its InteropCase, padding
// included. `name_bytes` and `name_tail` occupy what was padding, whose
// contents used to be whatever the stack held, so case names changed from
// build to build; the fixed values keep every case under the name it is
// recorded with.
struct InteropCase {
  bool server_flextoe;
  bool client_flextoe;
  std::array<std::uint8_t, 6> name_bytes;
  double loss;
  int seed;
  std::array<std::uint8_t, 4> name_tail{};
};
static_assert(sizeof(InteropCase) == 24,
              "every byte of InteropCase is a member");

class InteropTest : public ::testing::TestWithParam<InteropCase> {};

TEST_P(InteropTest, BidirectionalIntegrity) {
  const auto pc = GetParam();
  sim::Domain ev;
  net::Switch sw(ev, sim::Rng(1), 2);
  net::Link l0(ev, sim::Rng(2), {40.0, sim::ns(500), pc.loss});
  net::Link l1(ev, sim::Rng(3), {40.0, sim::ns(500), pc.loss});
  l0.set_sink(sw.ingress_sink(0));
  l1.set_sink(sw.ingress_sink(1));

  const auto ip0 = net::make_ip(10, 0, 0, 1);
  const auto ip1 = net::make_ip(10, 0, 0, 2);
  auto mac = [](net::Ipv4Addr ip) {
    return net::MacAddr::from_u64(0x020000000000ull + ip);
  };

  std::unique_ptr<host::FlexToeNic> toe0, toe1;
  std::unique_ptr<baseline::SwTcpStack> sws0, sws1;
  tcp::StackIface* s0;
  tcp::StackIface* s1;
  auto build = [&](bool flextoe, net::Ipv4Addr ip, net::Link& link,
                   int port, std::unique_ptr<host::FlexToeNic>& toe,
                   std::unique_ptr<baseline::SwTcpStack>& sws,
                   std::uint64_t seed) -> tcp::StackIface* {
    if (flextoe) {
      toe = std::make_unique<host::FlexToeNic>(ev, sim::Rng(seed), mac(ip),
                                               ip);
      toe->set_mac_tx(&link);
      sw.attach(port, &toe->mac_rx());
      return &toe->stack();
    }
    baseline::SwTcpConfig cfg;
    cfg.mac = mac(ip);
    cfg.ip = ip;
    sws = std::make_unique<baseline::SwTcpStack>(ev, sim::Rng(seed), cfg);
    sws->set_tx_sink(&link);
    sw.attach(port, sws.get());
    return sws.get();
  };
  s0 = build(pc.server_flextoe, ip0, l0, 0, toe0, sws0, 11);
  s1 = build(pc.client_flextoe, ip1, l1, 1, toe1, sws1, 13);

  // Server echoes; client sends a seeded pattern and checks the echo.
  std::vector<std::uint8_t> data(40 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + pc.seed);
  }
  std::vector<std::uint8_t> echoed;
  std::size_t sent = 0;
  ConnId cc = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = s0->recv(c, buf)) > 0) s0->send(c, std::span(buf, n));
  };
  s0->set_callbacks(scb);
  s0->listen(80);

  tcp::StackCallbacks ccb;
  auto push = [&] {
    if (sent < data.size()) {
      sent += s1->send(cc, std::span(data.data() + sent,
                                     data.size() - sent));
    }
  };
  ccb.on_connected = [&](ConnId c, bool ok) {
    ASSERT_TRUE(ok);
    cc = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  ccb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = s1->recv(c, buf)) > 0) {
      echoed.insert(echoed.end(), buf, buf + n);
    }
    push();
  };
  s1->set_callbacks(ccb);
  s1->connect(ip0, 80);

  for (int i = 0; i < 800 && echoed.size() < data.size(); ++i) {
    ev.run_until(ev.now() + sim::ms(5));
  }
  ASSERT_EQ(echoed.size(), data.size());
  EXPECT_EQ(echoed, data);
}

INSTANTIATE_TEST_SUITE_P(
    Pairings, InteropTest,
    ::testing::Values(
        InteropCase{true, false, {0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, 0.0, 1},
        InteropCase{false, true, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 0.0, 2},
        InteropCase{true, true, {0xD2, 0xF4, 0xAF, 0x55, 0x00, 0x00}, 0.0, 3},
        InteropCase{true, false, {0xE0, 0xDE, 0xFB, 0xF1, 0x64, 0xD4}, 0.01,
                    4},
        InteropCase{false, true, {0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, 0.01,
                    5},
        InteropCase{true, true, {0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, 0.01,
                    6}));

// --- Property: the data-path delivers identical bytes under every
// pipeline topology (correctness is configuration-independent). ---

class TopologyTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologyTest, TransferIntactUnderAnyTopology) {
  core::DatapathConfig cfgs[] = {
      core::ablation_baseline(),   core::ablation_pipelined(),
      core::ablation_threads(),    core::ablation_replicated(),
      core::ablation_flow_groups(), core::x86_config(),
      core::bluefield_config(),
  };
  const auto& dp_cfg = cfgs[GetParam()];

  sim::Domain ev;
  net::Switch sw(ev, sim::Rng(1), 2);
  net::Link l0(ev, sim::Rng(2), {40.0, sim::ns(500), 0.002});
  net::Link l1(ev, sim::Rng(3), {40.0, sim::ns(500), 0.002});
  l0.set_sink(sw.ingress_sink(0));
  l1.set_sink(sw.ingress_sink(1));

  const auto ip0 = net::make_ip(10, 0, 0, 1);
  const auto ip1 = net::make_ip(10, 0, 0, 2);
  host::FlexToeNicConfig cfg;
  cfg.datapath = dp_cfg;
  host::FlexToeNic toe(ev, sim::Rng(4),
                       net::MacAddr::from_u64(0x020000000000ull + ip0), ip0,
                       cfg);
  toe.set_mac_tx(&l0);
  sw.attach(0, &toe.mac_rx());

  baseline::SwTcpConfig ccfg;
  ccfg.mac = net::MacAddr::from_u64(0x020000000000ull + ip1);
  ccfg.ip = ip1;
  baseline::SwTcpStack cli(ev, sim::Rng(5), ccfg);
  cli.set_tx_sink(&l1);
  sw.attach(1, &cli);

  std::vector<std::uint8_t> data(24 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  std::vector<std::uint8_t> rxed;
  std::size_t sent = 0;
  ConnId cc = tcp::kInvalidConn;

  tcp::StackCallbacks scb;
  scb.on_data = [&](ConnId c) {
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = toe.stack().recv(c, buf)) > 0) {
      rxed.insert(rxed.end(), buf, buf + n);
    }
  };
  toe.stack().set_callbacks(scb);
  toe.stack().listen(80);

  tcp::StackCallbacks ccb;
  auto push = [&] {
    if (sent < data.size()) {
      sent += cli.send(cc, std::span(data.data() + sent,
                                     data.size() - sent));
    }
  };
  ccb.on_connected = [&](ConnId c, bool) {
    cc = c;
    push();
  };
  ccb.on_sendable = [&](ConnId) { push(); };
  cli.set_callbacks(ccb);
  cli.connect(ip0, 80);

  for (int i = 0; i < 600 && rxed.size() < data.size(); ++i) {
    ev.run_until(ev.now() + sim::ms(5));
  }
  ASSERT_EQ(rxed.size(), data.size());
  EXPECT_EQ(rxed, data);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyTest, ::testing::Range(0, 7));

// --- Property: packets survive serialize->parse for arbitrary field
// combinations (wire-format fuzz). ---

class WireFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzzTest, SerializeParseIdentity) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int i = 0; i < 300; ++i) {
    net::Packet p;
    p.eth.src = net::MacAddr::from_u64(rng.next_u64() & 0xFFFFFFFFFFFF);
    p.eth.dst = net::MacAddr::from_u64(rng.next_u64() & 0xFFFFFFFFFFFF);
    p.ip.src = static_cast<net::Ipv4Addr>(rng.next_u64());
    p.ip.dst = static_cast<net::Ipv4Addr>(rng.next_u64());
    p.ip.ttl = static_cast<std::uint8_t>(rng.next_range(1, 255));
    p.ip.ecn = static_cast<net::Ecn>(rng.next_below(4));
    p.tcp.sport = static_cast<std::uint16_t>(rng.next_u64());
    p.tcp.dport = static_cast<std::uint16_t>(rng.next_u64());
    p.tcp.seq = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp.ack = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp.flags = static_cast<std::uint8_t>(rng.next_u64());
    p.tcp.window = static_cast<std::uint16_t>(rng.next_u64());
    if (rng.chance(0.5)) {
      p.tcp.ts = net::TcpTsOpt{static_cast<std::uint32_t>(rng.next_u64()),
                               static_cast<std::uint32_t>(rng.next_u64())};
    }
    if (rng.chance(0.3)) {
      p.tcp.mss = static_cast<std::uint16_t>(rng.next_range(500, 9000));
    }
    if (rng.chance(0.2)) {
      p.vlan = net::VlanTag{static_cast<std::uint16_t>(rng.next_u64())};
    }
    p.payload.resize(rng.next_below(2000));
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u64());

    const auto parsed = net::Packet::parse(p.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tcp.seq, p.tcp.seq);
    EXPECT_EQ(parsed->tcp.ack, p.tcp.ack);
    EXPECT_EQ(parsed->tcp.flags, p.tcp.flags);
    EXPECT_EQ(parsed->payload, p.payload);
    EXPECT_EQ(parsed->ip.ecn, p.ip.ecn);
    EXPECT_EQ(parsed->vlan.has_value(), p.vlan.has_value());
    EXPECT_EQ(parsed->tcp.ts.has_value(), p.tcp.ts.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Range(1, 5));

}  // namespace
}  // namespace flextoe
