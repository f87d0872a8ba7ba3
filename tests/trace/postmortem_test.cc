// Drop post-mortems: when the data path drops a traced segment, the
// Tracer freezes the last-K flight-recorder events touching the victim.
// Unit tests pin the exactly-last-K window, the cid/arg matching rule
// and the report cap; the e2e test forces real fpc_queue_full drops
// through a tiny-queue pipeline graph and asserts the frozen slice
// reconstructs the victim's path.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "core/datapath.hpp"
#include "core/seg_ctx.hpp"
#include "pipeline/graph.hpp"
#include "sim/domain.hpp"
#include "trace/trace.hpp"

namespace flextoe::trace {
namespace {

struct PostMortemTest : ::testing::Test {
  void SetUp() override {
    if (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
    Tracer::instance().reset();
    set_enabled(false);
  }
  void TearDown() override {
    set_enabled(false);
    Tracer::instance().reset();
  }
};

// --------------------------------------------------------- unit tests

TEST_F(PostMortemTest, CapturesExactlyLastKVictimEvents) {
  Ring ring(3, 9, 64);
  const std::uint64_t victim = ring.make_cid();
  const std::uint64_t bystander = ring.make_cid();
  // Interleave 10 victim events with noise; only the newest 5 victim
  // events may survive in the report.
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.record(100 * i, Phase::kInstant, 1, 1, victim, i);
    ring.record(100 * i + 1, Phase::kInstant, 2, 1, bystander, i);
    ring.record(100 * i + 2, Phase::kInstant, 3, 1, 0, i);
  }
  Tracer::instance().set_postmortem_depth(5);
  Tracer::instance().report_drop(ring, victim, "unit_reason", 999);

  const auto pms = Tracer::instance().postmortems();
  ASSERT_EQ(pms.size(), 1u);
  const auto& pm = pms[0];
  EXPECT_EQ(pm.reason, "unit_reason");
  EXPECT_EQ(pm.victim, victim);
  EXPECT_EQ(pm.t, 999u);
  EXPECT_EQ(pm.domain_id, 3u);
  EXPECT_EQ(pm.ring_label, 9u);
  ASSERT_EQ(pm.events.size(), 5u);  // exactly last K, not "up to ring size"
  for (std::size_t i = 0; i < pm.events.size(); ++i) {
    EXPECT_EQ(pm.events[i].cid, victim);
    EXPECT_EQ(pm.events[i].arg, 5 + i);  // the NEWEST five, oldest first
  }
}

TEST_F(PostMortemTest, ArgMatchCatchesActorPairedEvents) {
  // DMA/flow-scheduler sites key their own span ids in `cid` and carry the
  // segment's causal id in `arg`; the backward scan must match either.
  Ring ring(0, 1, 64);
  const std::uint64_t victim = ring.make_cid();
  const std::uint64_t actor_span = Tracer::instance().next_actor_base() | 7;
  ring.record(10, Phase::kAsyncBegin, 1, 1, victim, 0);       // cid match
  ring.record(20, Phase::kAsyncBegin, 2, 2, actor_span, victim);  // arg match
  ring.record(30, Phase::kInstant, 3, 3, 0, 12345);           // unrelated
  Tracer::instance().report_drop(ring, victim, "r", 40);

  const auto pms = Tracer::instance().postmortems();
  ASSERT_EQ(pms.size(), 1u);
  ASSERT_EQ(pms[0].events.size(), 2u);
  EXPECT_EQ(pms[0].events[0].t, 10u);
  EXPECT_EQ(pms[0].events[1].t, 20u);
}

TEST_F(PostMortemTest, ShorterHistoryYieldsShorterSlice) {
  Ring ring(0, 1, 64);
  const std::uint64_t victim = ring.make_cid();
  ring.record(1, Phase::kInstant, 1, 1, victim, 0);
  ring.record(2, Phase::kInstant, 1, 1, victim, 1);
  Tracer::instance().set_postmortem_depth(16);
  Tracer::instance().report_drop(ring, victim, "r", 3);
  const auto pms = Tracer::instance().postmortems();
  ASSERT_EQ(pms.size(), 1u);
  EXPECT_EQ(pms[0].events.size(), 2u);  // all that exists, no padding
}

TEST_F(PostMortemTest, ReportCountIsBounded) {
  Ring ring(0, 1, 64);
  Tracer::instance().set_postmortem_max_reports(2);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t victim = ring.make_cid();
    ring.record(static_cast<sim::TimePs>(i), Phase::kInstant, 1, 1, victim,
                0);
    Tracer::instance().report_drop(ring, victim, "r",
                                   static_cast<sim::TimePs>(i));
  }
  // A drop storm must not grow memory without bound: first N kept.
  EXPECT_EQ(Tracer::instance().postmortems().size(), 2u);
}

// ---------------------------------------------------------------- e2e

// Minimal Datapath host so the pipeline graph is fully wired.
struct BuiltGraph {
  sim::Domain ev;
  std::optional<core::Datapath> dp;

  explicit BuiltGraph(const core::DatapathConfig& cfg) {
    core::Datapath::HostIface host;
    host.notify = [](const host::CtxDesc&) {};
    host.to_control = [](const net::PacketPtr&) {};
    host.peer_fin = [](tcp::ConnId) {};
    dp.emplace(ev, cfg, host);
  }
  pipeline::Graph& graph() { return dp->graph(); }
};

// Force real FpcQueueFull drops: a pipelined graph with a 2-deep work
// queue, fed ingress segments without ever running the event queue, so
// the pre-stage FPC saturates (8 hardware threads + 2 queue slots) and
// every further admission drops — exactly the overload path the paper's
// one-shot data path resolves by dropping (§3.2).
TEST_F(PostMortemTest, FpcQueueFullDropProducesPostMortem) {
  set_enabled(true);
  core::DatapathConfig cfg = core::ablation_pipelined();
  cfg.fpc_queue_depth = 2;
  BuiltGraph b(cfg);

  std::uint64_t last_victim = 0;
  for (int i = 0; i < 32; ++i) {
    auto ctx = std::make_shared<core::SegCtx>();
    ctx->kind = core::SegCtx::Kind::Rx;
    ctx->flow_group = 0;
    ctx->lookup_key = 0x1000u + static_cast<std::uint64_t>(i);
    b.graph().stamp_birth(*ctx);
    ASSERT_NE(ctx->trace_id, 0u) << "stamp_birth must mint a causal id";
    last_victim = ctx->trace_id;
    b.graph().ingress_rx(ctx);
  }

  // Queue depth 2 must overflow within 32 segments (8 hardware threads
  // + 2 slots), and each traced drop files a post-mortem.
  const auto pms = Tracer::instance().postmortems();
  ASSERT_FALSE(pms.empty());
  for (const auto& pm : pms) {
    EXPECT_EQ(pm.reason, "fpc_queue_full");
    EXPECT_NE(pm.victim, 0u);
    ASSERT_FALSE(pm.events.empty());
    // Every frozen event touches the victim, and the slice ends with
    // the drop instant count_drop records before freezing.
    for (const Event& e : pm.events) {
      EXPECT_TRUE(e.cid == pm.victim || e.arg == pm.victim);
    }
    const Event& last = pm.events.back();
    EXPECT_EQ(last.cid, pm.victim);
    EXPECT_EQ(Tracer::instance().string(last.name), "fpc_queue_full");
  }
  // The newest victim was one of the dropped ones (everything after the
  // queue filled drops), so its path is reconstructable.
  EXPECT_EQ(pms.back().victim, last_victim);
}

}  // namespace
}  // namespace flextoe::trace
