// Destruction-ordering regression tests: a Datapath destroyed while the
// EventQueue still holds its events (FPC work completions, DMA
// completions, scheduler ticks, host notifications, RTC gate
// continuations) must never fire callbacks into freed state. Draining
// the queue after destruction must be a sequence of no-ops.
//
// Run under the Sanitize preset these tests are use-after-free
// detectors; in a plain build they still catch crashes and assert that
// no host-interface callback fires after the NIC is gone.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/datapath.hpp"
#include "host/payload_buf.hpp"
#include "net/packet.hpp"
#include "sim/domain.hpp"

namespace flextoe::core {
namespace {

struct Rig {
  sim::Domain ev;
  host::PayloadBuf rx{1 << 16}, tx{1 << 16};
  std::optional<Datapath> dp;
  int notifies = 0;
  int to_controls = 0;
  tcp::ConnId conn = tcp::kInvalidConn;
  std::function<void()> on_control;  // runs on each control segment

  // The flow uses `rx_buf`/`tx_buf` when given, else the Rig's own.
  explicit Rig(DatapathConfig cfg, host::PayloadBuf* rx_buf = nullptr,
               host::PayloadBuf* tx_buf = nullptr) {
    Datapath::HostIface host;
    host.notify = [this](const host::CtxDesc&) { ++notifies; };
    host.to_control = [this](const net::PacketPtr&) {
      ++to_controls;
      if (on_control) on_control();
    };
    host.peer_fin = [](tcp::ConnId) {};
    dp.emplace(ev, cfg, host);
    dp->set_local(net::MacAddr::from_u64(0x02AA), net::make_ip(10, 0, 0, 1));

    FlowInstall ins;
    ins.tuple = {net::make_ip(10, 0, 0, 1), net::make_ip(10, 0, 0, 2), 80,
                 9999};
    ins.local_mac = net::MacAddr::from_u64(0x02AA);
    ins.peer_mac = net::MacAddr::from_u64(0x02BB);
    ins.iss = 1000;
    ins.irs = 2000;
    ins.rx_buf = rx_buf != nullptr ? rx_buf : &rx;
    ins.tx_buf = tx_buf != nullptr ? tx_buf : &tx;
    conn = dp->install_flow(ins);
  }

  // One in-order segment from the peer for the installed flow.
  net::PacketPtr data_segment(
      std::uint32_t seq_off, std::uint32_t len,
      std::uint8_t flags = net::tcpflag::kAck | net::tcpflag::kPsh) {
    return net::make_tcp_packet(
        net::MacAddr::from_u64(0x02BB), net::MacAddr::from_u64(0x02AA),
        net::make_ip(10, 0, 0, 2), net::make_ip(10, 0, 0, 1), 9999, 80,
        2001 + seq_off, 1001, flags, std::vector<std::uint8_t>(len, 0x42));
  }

  void push_hc(host::CtxDescType type, std::uint32_t a) {
    host::CtxDesc d;
    d.type = type;
    d.conn = conn;
    d.a = a;
    dp->hc_queue(0).push(d);
    dp->doorbell(0);
  }
};

// Destroy mid-pipeline: segments in flight through pre/proto/post/DMA
// stages, then the Datapath dies and the queue drains.
TEST(DatapathLifetime, DestroyWithSegmentsInFlight) {
  Rig r(agilio_cx40_config());
  for (std::uint32_t i = 0; i < 8; ++i) {
    r.dp->deliver(r.data_segment(i * 100, 100));
  }
  // Advance part-way: work completions and DMA events remain pending.
  for (int i = 0; i < 5 && !r.ev.empty(); ++i) r.ev.step();
  ASSERT_FALSE(r.ev.empty());
  r.dp.reset();
  r.ev.run_all();  // must not touch freed state (ASan-verified)
}

// Destroy with a doorbell MMIO and HC descriptors pending.
TEST(DatapathLifetime, DestroyWithDoorbellPending) {
  Rig r(agilio_cx40_config());
  r.push_hc(host::CtxDescType::TxDoorbell, 4096);
  ASSERT_FALSE(r.ev.empty());  // MMIO latency event is in flight
  r.dp.reset();
  r.ev.run_all();
}

// Destroy with host notifications in flight: a received segment has
// landed and the notify DMA + interrupt delay are scheduled. After
// destruction the host must observe no further callbacks.
TEST(DatapathLifetime, NoHostCallbacksAfterDestruction) {
  Rig r(agilio_cx40_config());
  r.dp->deliver(r.data_segment(0, 256));
  // Run until at least the payload DMA is done but events still pend.
  r.ev.run_until(sim::us(2));
  const int seen = r.notifies;
  if (r.ev.empty()) GTEST_SKIP() << "pipeline drained too fast";
  r.dp.reset();
  r.ev.run_all();
  EXPECT_EQ(r.notifies, seen);  // nothing fired into the dead NIC's host
}

// Run-to-completion mode: the admission gate holds deferred work and the
// gate token deleters run during/after destruction. Both the deferred
// continuations and the tokens must be inert once the graph is gone.
TEST(DatapathLifetime, RtcGateDestroyedWithBacklog) {
  Rig r(ablation_baseline());
  for (std::uint32_t i = 0; i < 16; ++i) {
    r.dp->deliver(r.data_segment(i * 64, 64));
  }
  for (int i = 0; i < 3 && !r.ev.empty(); ++i) r.ev.step();
  EXPECT_GT(r.dp->graph().gate_backlog(), 0u);
  r.dp.reset();
  r.ev.run_all();
}

// Immediate destruction: nothing ran at all.
TEST(DatapathLifetime, DestroyBeforeAnyEvent) {
  Rig r(agilio_cx40_config());
  r.dp->deliver(r.data_segment(0, 128));
  r.dp.reset();
  r.ev.run_all();
  EXPECT_EQ(r.notifies, 0);
}

// Segment contexts (pooled) may outlive the Datapath inside the queue;
// the pool core must stay alive until the last context dies (freed-block
// teardown is ASan-verified when the Rig, and with it the EventQueue
// holding the last context references, dies at scope exit).
TEST(DatapathLifetime, PooledContextsOutliveDatapath) {
  Rig r(agilio_cx40_config());
  for (std::uint32_t i = 0; i < 4; ++i) {
    r.dp->deliver(r.data_segment(i * 100, 100));
  }
  r.ev.step();
  r.dp.reset();
  ASSERT_FALSE(r.ev.empty());  // contexts still referenced from events
  r.ev.run_all();
}

// A RST tears the flow down while its RX and TX payload DMAs are in
// flight, and the owner drops both socket buffers there and then, as
// libTOE does for a connection that is dead and closed. The DMA pins
// keep the buffers alive until both completions have run (under the
// Sanitize preset a write into or read from a freed buffer aborts).
TEST(DatapathLifetime, RstTeardownWithPayloadDmaInFlight) {
  DatapathConfig cfg = agilio_cx40_config();
  cfg.dma.latency = sim::us(20);  // DMAs outlast the RST's trip
  auto rx = host::PayloadBuf::make(1 << 16);
  auto tx = host::PayloadBuf::make(1 << 16);
  Rig r(cfg, rx.get(), tx.get());
  bool torn_down = false;
  r.on_control = [&] {
    // Both payload DMAs are still in flight.
    EXPECT_EQ(rx->pins(), 1u);
    EXPECT_EQ(tx->pins(), 1u);
    EXPECT_EQ(r.dp->tx_segments(), 0u);
    r.dp->remove_flow(r.conn);
    rx.reset();
    tx.reset();
    torn_down = true;
  };

  const std::vector<std::uint8_t> out(512, 0x17);
  tx->write(0, out);
  r.push_hc(host::CtxDescType::TxDoorbell, 512);
  while (tx->pins() == 0 && !r.ev.empty()) r.ev.step();
  ASSERT_EQ(tx->pins(), 1u);  // TX payload DMA issued
  r.dp->deliver(r.data_segment(0, 512));
  while (rx->pins() == 0 && !r.ev.empty()) r.ev.step();
  ASSERT_EQ(rx->pins(), 1u);  // RX payload DMA issued
  ASSERT_FALSE(torn_down);

  r.dp->deliver(r.data_segment(512, 0, net::tcpflag::kRst));
  r.ev.run_all();
  EXPECT_TRUE(torn_down);
  EXPECT_EQ(r.to_controls, 1);
  // Both completions ran after the teardown.
  EXPECT_EQ(r.dp->tx_segments(), 1u);
  EXPECT_GE(r.dp->acks_sent(), 1u);
}

}  // namespace
}  // namespace flextoe::core
