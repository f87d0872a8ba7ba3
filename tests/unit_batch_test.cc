// Unit tests for substrate components: FPC model, caches and memory
// hierarchy, DMA engine, CPU pool, flow scheduler, reorder buffers, byte
// rings, payload buffers, framing, CC algorithms, RTT estimation.
#include <gtest/gtest.h>

#include "app/framer.hpp"
#include "pipeline/reorder.hpp"
#include "host/payload_buf.hpp"
#include "nfp/caches.hpp"
#include "nfp/dma.hpp"
#include "nfp/fpc.hpp"
#include "nfp/memory.hpp"
#include "sched/timing_wheel.hpp"
#include "sim/domain.hpp"
#include "sim/cpu.hpp"
#include "tcp/byte_ring.hpp"
#include "tcp/cc.hpp"
#include "tcp/rtt.hpp"

namespace flextoe {
namespace {

// ----------------------------------------------------------------- FPC

TEST(Fpc, SingleThreadSerializesCompute) {
  sim::Domain ev;
  nfp::Fpc fpc(ev, {.threads = 1}, "t");
  int done = 0;
  // Two items of 800 cycles (1 us each at 800 MHz) serialize.
  for (int i = 0; i < 2; ++i) {
    fpc.submit({800, 0, [&] { ++done; }});
  }
  ev.run_until(sim::us(1));
  EXPECT_EQ(done, 1);
  ev.run_until(sim::us(2));
  EXPECT_EQ(done, 2);
}

TEST(Fpc, ThreadsHideMemoryLatency) {
  sim::Domain ev;
  nfp::Fpc fast(ev, {.threads = 8}, "fast");
  // 8 items: 80 compute + 720 memory cycles each. With 8 threads the
  // memory waits overlap: total ~ 8*80 compute + 720 tail.
  int done = 0;
  for (int i = 0; i < 8; ++i) fast.submit({80, 720, [&] { ++done; }});
  ev.run_all();
  EXPECT_EQ(done, 8);
  // 8*80 + 720 = 1360 cycles = 1.7us (vs 8us if fully serialized).
  EXPECT_LE(ev.now(), sim::kFpcClock.cycles(1400));
}

TEST(Fpc, QueueFullDropsWork) {
  sim::Domain ev;
  nfp::Fpc fpc(ev, {.threads = 1, .queue_capacity = 4}, "q");
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (fpc.submit({100, 0, nullptr})) ++accepted;
  }
  EXPECT_LT(accepted, 20);
  EXPECT_GT(fpc.items_dropped(), 0u);
  ev.run_all();
  EXPECT_EQ(fpc.items_done(), static_cast<std::uint64_t>(accepted));
}

// --------------------------------------------------------------- caches

TEST(CamCache, LruEviction) {
  nfp::CamCache cam(4);
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_FALSE(cam.access(k));
  for (std::uint32_t k = 0; k < 4; ++k) EXPECT_TRUE(cam.access(k));
  cam.access(99);                  // evicts LRU (key 0)
  EXPECT_FALSE(cam.contains(0));
  EXPECT_TRUE(cam.contains(99));
  EXPECT_TRUE(cam.contains(1));
}

TEST(CamCache, AccessRefreshesLru) {
  nfp::CamCache cam(2);
  cam.access(1);
  cam.access(2);
  cam.access(1);   // 2 becomes LRU
  cam.access(3);   // evicts 2
  EXPECT_TRUE(cam.contains(1));
  EXPECT_FALSE(cam.contains(2));
}

TEST(DirectMapped, IndexCollisions) {
  nfp::DirectMappedCache dm(8);
  EXPECT_FALSE(dm.access(3));
  EXPECT_TRUE(dm.access(3));
  EXPECT_FALSE(dm.access(11));  // 11 % 8 == 3: collision evicts
  EXPECT_FALSE(dm.access(3));
}

TEST(StateAccess, HierarchyCosts) {
  nfp::MemLatencies lat;
  nfp::IslandMemory island(8);
  nfp::NicMemory nic(16);
  nfp::StateAccessModel m(lat, &island, &nic, 2);
  // Cold: misses all the way to EMEM DRAM.
  EXPECT_EQ(m.access_cycles(1), lat.emem_dram);
  // Hot in local CAM.
  EXPECT_EQ(m.access_cycles(1), lat.local);
  // Another key evicts nothing yet (local holds 2).
  EXPECT_EQ(m.access_cycles(2), lat.emem_dram);
  EXPECT_EQ(m.access_cycles(1), lat.local);
  // Third key evicts key 2 from local; 2 still hits CLS.
  m.access_cycles(3);
  EXPECT_EQ(m.access_cycles(2), lat.cls);
}

TEST(StateAccess, EmemSramCapacityCliff) {
  nfp::MemLatencies lat;
  nfp::IslandMemory island(4);
  nfp::NicMemory nic(8);
  nfp::StateAccessModel m(lat, &island, &nic, 1);
  // Sweep 32 connections round-robin: island (4) and EMEM cache (8)
  // thrash, so steady-state accesses pay DRAM.
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t c = 0; c < 32; ++c) m.access_cycles(c);
  }
  EXPECT_EQ(m.access_cycles(0), lat.emem_dram);
}

// ------------------------------------------------------------------ DMA

TEST(Dma, CompletionAfterLatencyAndBandwidth) {
  sim::Domain ev;
  nfp::DmaParams p;
  p.gbps = 8.0;  // 1 byte/ns
  p.latency = sim::ns(500);
  nfp::DmaEngine dma(ev, p);
  sim::TimePs done_at = 0;
  dma.issue(1000, [&] { done_at = ev.now(); });
  ev.run_all();
  EXPECT_EQ(done_at, sim::ns(1000) + sim::ns(500));
}

TEST(Dma, OutstandingLimitQueues) {
  sim::Domain ev;
  nfp::DmaParams p;
  p.max_outstanding = 2;
  nfp::DmaEngine dma(ev, p);
  int done = 0;
  for (int i = 0; i < 5; ++i) dma.issue(64, [&] { ++done; });
  EXPECT_EQ(dma.outstanding(), 2u);
  ev.run_all();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(dma.transactions(), 5u);
}

// -------------------------------------------------------------- CpuPool

TEST(CpuPool, ParallelAcrossCores) {
  sim::Domain ev;
  sim::CpuPool cpu(ev, 4, sim::kHostClock);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    cpu.run(2000, sim::CpuCat::App, [&] { ++done; });  // 1 us each
  }
  ev.run_until(sim::us(1));
  EXPECT_EQ(done, 4);  // all four finish together on four cores
}

TEST(CpuPool, SerialFractionLimitsScaling) {
  sim::Domain ev;
  sim::CpuPool cpu(ev, 8, sim::kHostClock);
  cpu.set_serial_fraction(1.0);  // everything under one lock
  int done = 0;
  for (int i = 0; i < 8; ++i) cpu.run(2000, sim::CpuCat::App, [&] { ++done; });
  ev.run_until(sim::us(1));
  EXPECT_LT(done, 8);  // lock serializes: not all done after 1 us
  ev.run_until(sim::us(9));
  EXPECT_EQ(done, 8);
}

TEST(CpuPool, CategoryAccounting) {
  sim::Domain ev;
  sim::CpuPool cpu(ev, 1);
  cpu.run(100, sim::CpuCat::Stack, nullptr);
  cpu.reattribute(sim::CpuCat::Stack, sim::CpuCat::Driver, 40);
  EXPECT_EQ(cpu.cycles(sim::CpuCat::Stack), 60u);
  EXPECT_EQ(cpu.cycles(sim::CpuCat::Driver), 40u);
  EXPECT_EQ(cpu.total_cycles(), 100u);
}

// ------------------------------------------------------- flow scheduler

TEST(TimingWheel, UncongestedRoundRobin) {
  sim::Domain ev;
  sched::TimingWheel whl(ev);
  std::vector<std::uint32_t> order;
  whl.set_trigger([&](std::uint32_t f) {
    order.push_back(f);
    return 100u;
  });
  whl.set_rate(1, 0);
  whl.set_rate(2, 0);
  whl.update_avail(1, 300);
  whl.update_avail(2, 300);
  ev.run_until(sim::us(50));
  // Both flows fully drained, interleaved.
  ASSERT_GE(order.size(), 6u);
  EXPECT_NE(order[0], order[1]);
}

TEST(TimingWheel, BlockedFlowParksUntilKick) {
  sim::Domain ev;
  sched::TimingWheel whl(ev);
  int calls = 0;
  bool blocked = true;
  whl.set_trigger([&](std::uint32_t) -> std::uint32_t {
    ++calls;
    return blocked ? 0 : 500;
  });
  whl.set_rate(1, 0);
  whl.update_avail(1, 500);
  ev.run_until(sim::us(100));
  EXPECT_EQ(calls, 1);  // parked after the first blocked trigger
  blocked = false;
  whl.kick(1);
  ev.run_until(sim::us(200));
  EXPECT_EQ(calls, 2);  // resumed and drained
}

TEST(TimingWheel, RemoveFlowStopsService) {
  sim::Domain ev;
  sched::TimingWheel whl(ev);
  int calls = 0;
  whl.set_trigger([&](std::uint32_t) {
    ++calls;
    return 100u;
  });
  whl.set_rate(3, 1'000'000);
  whl.update_avail(3, 10'000);
  ev.run_until(sim::us(150));
  const int before = calls;
  whl.remove_flow(3);
  ev.run_until(sim::ms(2));
  EXPECT_LE(calls, before + 1);
}

// ------------------------------------------------------- reorder buffer

TEST(Reorder, ReleasesInOrder) {
  std::vector<int> out;
  pipeline::ReorderBuffer<int> rob([&](int v) { out.push_back(v); });
  rob.push(2, 102);
  rob.push(0, 100);
  EXPECT_EQ(out, (std::vector<int>{100}));
  rob.push(1, 101);
  EXPECT_EQ(out, (std::vector<int>{100, 101, 102}));
}

TEST(Reorder, SkipUnblocks) {
  std::vector<int> out;
  pipeline::ReorderBuffer<int> rob([&](int v) { out.push_back(v); });
  rob.push(1, 101);
  rob.push(3, 103);
  EXPECT_TRUE(out.empty());
  rob.skip(0);
  EXPECT_EQ(out, (std::vector<int>{101}));
  rob.skip(2);
  EXPECT_EQ(out, (std::vector<int>{101, 103}));
  EXPECT_EQ(rob.pending(), 0u);
}

TEST(Reorder, SkipAheadOfTime) {
  std::vector<int> out;
  pipeline::ReorderBuffer<int> rob([&](int v) { out.push_back(v); });
  rob.skip(1);  // future skip arrives before item 0
  rob.push(0, 100);
  rob.push(2, 102);
  EXPECT_EQ(out, (std::vector<int>{100, 102}));
}

// ------------------------------------------------------------ byte ring

TEST(ByteRing, WrapAroundReadWrite) {
  tcp::ByteRing ring(16);
  std::vector<std::uint8_t> a{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ring.write(a), 10u);
  std::uint8_t out[6];
  EXPECT_EQ(ring.read(out), 6u);
  // Now head=6; write 10 more wraps around the 16-byte buffer.
  std::vector<std::uint8_t> b{11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  EXPECT_EQ(ring.write(b), 10u);
  std::vector<std::uint8_t> all(14);
  EXPECT_EQ(ring.read(all), 14u);
  EXPECT_EQ(all[0], 7);
  EXPECT_EQ(all[13], 20);
}

TEST(ByteRing, WriteAtAndAdvance) {
  tcp::ByteRing ring(32);
  std::vector<std::uint8_t> hole{9, 9, 9};
  ring.write_at(4, hole);  // OOO placement 4 bytes past tail
  std::vector<std::uint8_t> head{1, 2, 3, 4};
  ring.write(head);
  ring.advance_tail(3);  // the OOO bytes become valid
  std::vector<std::uint8_t> out(7);
  EXPECT_EQ(ring.read(out), 7u);
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(out[4], 9);
}

TEST(ByteRing, PeekDoesNotConsume) {
  tcp::ByteRing ring(16);
  std::vector<std::uint8_t> d{5, 6, 7, 8};
  ring.write(d);
  std::uint8_t out[2];
  EXPECT_EQ(ring.peek(1, out), 2u);
  EXPECT_EQ(out[0], 6);
  EXPECT_EQ(ring.used(), 4u);
}

// Storage is not initialised, so every byte a reader sees must be one a
// writer put there: OOO placement and peeks across the wrap point.
TEST(ByteRing, OooPlacementAndPeekAcrossWrap) {
  tcp::ByteRing ring(16);
  std::vector<std::uint8_t> skip(11, 0);
  ring.write(skip);
  ring.discard(11);  // head = tail = 11
  // The segment after a 3-byte hole lands across the wrap (14..18).
  const std::vector<std::uint8_t> ooo{14, 15, 16, 17, 18};
  ring.write_at(3, ooo);
  EXPECT_EQ(ring.used(), 0u);
  const std::vector<std::uint8_t> gap{11, 12, 13};
  EXPECT_EQ(ring.write(gap), 3u);
  ring.advance_tail(ooo.size());
  ASSERT_EQ(ring.used(), 8u);
  std::uint8_t mid[4];
  EXPECT_EQ(ring.peek(3, mid), 4u);  // physical 14, 15, 0, 1
  EXPECT_EQ(std::vector<std::uint8_t>(mid, mid + 4),
            (std::vector<std::uint8_t>{14, 15, 16, 17}));
  std::uint8_t tail[8];
  EXPECT_EQ(ring.peek(6, tail), 2u);  // clipped at the valid region
  EXPECT_EQ(tail[0], 17);
  EXPECT_EQ(tail[1], 18);
  std::vector<std::uint8_t> all(8);
  EXPECT_EQ(ring.read(all), 8u);
  EXPECT_EQ(all, (std::vector<std::uint8_t>{11, 12, 13, 14, 15, 16, 17, 18}));
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------- payload buf

TEST(PayloadBuf, AbsolutePositionsWrap) {
  host::PayloadBuf buf(64);
  std::vector<std::uint8_t> d(10, 0xAB);
  buf.write(60, d);  // wraps: 4 at end, 6 at start
  std::vector<std::uint8_t> out(10);
  buf.read(60, out);
  EXPECT_EQ(out, d);
  // Same physical bytes visible at pos 60 + k*64.
  buf.read(60 + 64 * 3, out);
  EXPECT_EQ(out, d);
}

// RX payload DMAs land out of order at absolute positions that straddle
// the wrap point; the host then reads the whole run back from the middle.
TEST(PayloadBuf, OutOfOrderWritesAcrossWrap) {
  host::PayloadBuf buf(32);
  const std::uint64_t base = 32 * 5 + 26;  // physical offset 26
  std::vector<std::uint8_t> seg1(8), seg2(8);
  for (std::uint8_t i = 0; i < 8; ++i) {
    seg1[i] = static_cast<std::uint8_t>(0x10 + i);
    seg2[i] = static_cast<std::uint8_t>(0x20 + i);
  }
  buf.write(base + 8, seg2);  // second segment first: physical 2..9
  buf.write(base, seg1);      // then the hole: physical 26..31, 0..1
  std::vector<std::uint8_t> out(12);
  buf.read(base + 2, out);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(out[i], 0x12 + i);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(out[6 + i], 0x20 + i);
}

// -------------------------------------------------------------- framing

TEST(Framer, SplitAcrossFeeds) {
  app::FrameReader r;
  const auto f = app::make_frame(10, 0x7E);
  r.feed(std::span(f.data(), 5));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(r.next(out));
  r.feed(std::span(f.data() + 5, f.size() - 5));
  ASSERT_TRUE(r.next(out));
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0], 0x7E);
}

TEST(Framer, MultipleFramesBackToBack) {
  app::FrameReader r;
  auto a = app::make_frame(3, 1);
  auto b = app::make_frame(5, 2);
  a.insert(a.end(), b.begin(), b.end());
  r.feed(a);
  std::uint32_t len;
  ASSERT_TRUE(r.skip_frame(len));
  EXPECT_EQ(len, 3u);
  ASSERT_TRUE(r.skip_frame(len));
  EXPECT_EQ(len, 5u);
  EXPECT_FALSE(r.skip_frame(len));
}

// ---------------------------------------------------------- CC and RTT

TEST(Dctcp, GrowsWithoutEcn) {
  tcp::Dctcp cc;
  const auto w0 = cc.cwnd();
  tcp::CcInput in;
  in.acked_bytes = 20000;
  in.rtt = sim::us(50);
  cc.update(in);
  EXPECT_GT(cc.cwnd(), w0);
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.0);
}

TEST(Dctcp, EcnShrinksProportionally) {
  tcp::Dctcp cc;
  tcp::CcInput in;
  in.acked_bytes = 100000;
  in.rtt = sim::us(50);
  for (int i = 0; i < 5; ++i) cc.update(in);  // grow
  const auto grown = cc.cwnd();
  in.ecn_bytes = 50000;  // 50% marked
  cc.update(in);
  EXPECT_GT(cc.alpha(), 0.0);
  EXPECT_LT(cc.cwnd(), grown);
}

TEST(Dctcp, TimeoutCollapsesToOneMss) {
  tcp::Dctcp cc;
  tcp::CcInput in;
  in.timeouts = 1;
  in.rtt = sim::us(50);
  cc.update(in);
  EXPECT_EQ(cc.cwnd(), tcp::kDefaultMss);
}

TEST(Timely, RttAboveThighDecreasesRate) {
  tcp::Timely cc;
  tcp::CcInput in;
  in.rtt = sim::us(40);
  cc.update(in);  // prime prev_rtt
  const auto r0 = cc.rate();
  in.rtt = sim::us(900);  // way above t_high
  cc.update(in);
  EXPECT_LT(cc.rate(), r0);
}

TEST(Timely, LowRttIncreasesRate) {
  tcp::Timely cc;
  tcp::CcInput in;
  in.rtt = sim::us(30);
  cc.update(in);
  const auto r0 = cc.rate();
  cc.update(in);
  EXPECT_GT(cc.rate(), r0);
}

TEST(Rtt, Rfc6298Smoothing) {
  tcp::RttEstimator est;
  est.on_sample(sim::us(100));
  EXPECT_EQ(est.srtt(), sim::us(100));
  est.on_sample(sim::us(200));
  EXPECT_GT(est.srtt(), sim::us(100));
  EXPECT_LT(est.srtt(), sim::us(200));
  EXPECT_GE(est.rto(), sim::ms(1));  // min RTO clamp
}

TEST(Rtt, BackoffDoublesAndResets) {
  tcp::RttEstimator est(sim::us(100), sim::sec(1));
  est.on_sample(sim::ms(10));
  const auto r = est.rto_backed_off();
  est.backoff();
  EXPECT_EQ(est.rto_backed_off(), std::min(r * 2, sim::sec(1)));
  est.reset_backoff();
  EXPECT_EQ(est.rto_backed_off(), r);
}

}  // namespace
}  // namespace flextoe
