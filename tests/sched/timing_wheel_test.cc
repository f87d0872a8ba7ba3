// Timing-wheel flow scheduler battery. Two layers:
//
//  1. Differential: the wheel against a small reference scheduler
//     (Oracle below) that shares its ready deque, pump, service
//     interval, tick anchoring and slot quantization but keeps armed
//     flows in a sorted std::multimap<due tick, flow> instead of
//     cascading slot lists. Under any op script the two must produce
//     byte-identical (time, flow, sent) trigger sequences. Seeded
//     random arm/cancel/re-arm scripts — cancelled flows may be revived
//     and re-armed — same-tick ties, park/kick races and
//     cancel-while-queued run through both at the default geometry; a
//     small-geometry script crosses every level and the horizon.
//
//  2. Wheel-only: cascade boundaries at every level (small-geometry
//     wheel so level strides are cheap to cross), far-deadline clamp,
//     eager-cancel residency release and post-cancel revival, and the
//     flat-storage footprint audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/timing_wheel.hpp"
#include "sim/domain.hpp"
#include "sim/time.hpp"

namespace flextoe::sched {
namespace {

using FlowId = TimingWheel::FlowId;

// One recorded TX trigger: when, which flow, what the data-path
// reported sent. Differential tests compare full vectors of these.
struct Trig {
  sim::TimePs t;
  FlowId flow;
  std::uint32_t sent;

  bool operator==(const Trig&) const = default;
};

struct Op {
  enum Kind { kRate, kUpdate, kAdd, kKick, kRemove } kind;
  sim::TimePs at;
  FlowId flow;
  std::uint64_t arg;
};

// Reference scheduler: the wheel's trigger semantics with the slot
// machinery replaced by a sorted multimap of due ticks. Equal keys keep
// insertion order, so flows due on the same tick reach the ready queue
// in arm order, and no deadline is ever clamped. Cancel is eager (the
// armed entry is erased), so a cancelled flow can be revived and
// re-armed.
class Oracle {
 public:
  explicit Oracle(sim::Domain& ev, TimingWheelParams p = {})
      : ev_(ev), p_(p) {}

  void set_trigger(TimingWheel::TxTrigger t) { trigger_ = std::move(t); }

  void set_rate(FlowId flow, std::uint64_t bytes_per_sec) {
    Flow& st = flows_[flow];
    st.dead = false;
    st.ps_per_byte =
        bytes_per_sec == 0 || bytes_per_sec >= p_.uncongested_rate
            ? 0
            : std::max<sim::TimePs>(1, sim::kPsPerSec / bytes_per_sec);
  }
  void update_avail(FlowId flow, std::uint64_t avail) {
    Flow& st = flows_[flow];
    st.dead = false;
    st.avail = avail;
    if (st.avail > 0 && !st.queued) enqueue_ready(flow);
  }
  void add_avail(FlowId flow, std::uint64_t delta) {
    Flow& st = flows_[flow];
    st.dead = false;
    st.avail += delta;
    if (st.avail > 0 && !st.queued) enqueue_ready(flow);
  }
  void kick(FlowId flow) {
    Flow& st = flows_[flow];
    if (!st.dead && st.avail > 0 && !st.queued) enqueue_ready(flow);
  }
  void remove_flow(FlowId flow) {
    auto it = flows_.find(flow);
    if (it == flows_.end()) return;
    Flow& st = it->second;
    if (st.armed) {
      auto [lo, hi] = armed_.equal_range(st.due);
      armed_.erase(std::find_if(
          lo, hi, [flow](const auto& e) { return e.second == flow; }));
      st.armed = false;
      st.queued = false;
    }
    // A ready-queue resident is skipped lazily at service time.
    st.dead = true;
    st.avail = 0;
  }

 private:
  struct Flow {
    std::uint64_t avail = 0;
    sim::TimePs ps_per_byte = 0;
    std::uint64_t due = 0;  // absolute due tick while armed
    bool queued = false;    // in the ready queue or armed
    bool armed = false;
    bool dead = false;
  };

  void enqueue_ready(FlowId flow) {
    flows_[flow].queued = true;
    ready_.push_back(flow);
    pump();
  }

  void arm(FlowId flow, sim::TimePs deadline) {
    Flow& st = flows_[flow];
    // Re-anchor the tick grid only when nothing is armed and no stale
    // tick is pending, as the wheel does.
    if (armed_.empty() && !tick_scheduled_) ticks_ = 0;
    const sim::TimePs delta = deadline > ev_.now() ? deadline - ev_.now() : 0;
    const std::uint64_t off = delta / p_.slot_granularity;
    if (off == 0) {
      enqueue_ready(flow);
      return;
    }
    st.queued = true;
    st.armed = true;
    st.due = ticks_ + off;
    armed_.emplace(st.due, flow);
    schedule_tick();
  }

  void schedule_tick() {
    if (tick_scheduled_) return;
    tick_scheduled_ = true;
    ev_.schedule_in(p_.slot_granularity, [this] { tick(); });
  }

  void tick() {
    tick_scheduled_ = false;
    ++ticks_;
    while (!armed_.empty() && armed_.begin()->first <= ticks_) {
      const FlowId flow = armed_.begin()->second;
      armed_.erase(armed_.begin());
      flows_[flow].armed = false;
      ready_.push_back(flow);  // queued stays true; due this tick
    }
    pump();
    if (!armed_.empty()) schedule_tick();
  }

  void pump() {
    if (service_scheduled_ || ready_.empty()) return;
    service_scheduled_ = true;
    const sim::TimePs at = std::max(ev_.now(), next_service_);
    next_service_ = at + p_.service_interval;
    ev_.schedule_at(at, [this] {
      service_scheduled_ = false;
      service_one();
      pump();
    });
  }

  void service_one() {
    while (!ready_.empty()) {
      const FlowId flow = ready_.front();
      ready_.pop_front();
      Flow& st = flows_[flow];
      st.queued = false;
      if (st.dead || st.avail == 0) continue;
      const std::uint32_t sent = trigger_ ? trigger_(flow) : 0;
      if (sent == 0) return;  // parked until kicked
      st.avail -= std::min<std::uint64_t>(st.avail, sent);
      if (st.avail > 0) {
        if (st.ps_per_byte == 0) {
          enqueue_ready(flow);
        } else {
          arm(flow, ev_.now() + st.ps_per_byte * sent);
        }
      }
      return;  // one trigger per service interval
    }
  }

  sim::Domain& ev_;
  TimingWheelParams p_;
  TimingWheel::TxTrigger trigger_;
  std::unordered_map<FlowId, Flow> flows_;
  std::deque<FlowId> ready_;
  std::multimap<std::uint64_t, FlowId> armed_;
  std::uint64_t ticks_ = 0;
  bool tick_scheduled_ = false;
  bool service_scheduled_ = false;
  sim::TimePs next_service_ = 0;
};

// Deterministic data-path stand-in: the reported `sent` depends only on
// (flow, per-flow call number), so two schedulers producing the same call
// sequence see the same responses — and a divergence shows up as a
// sequence mismatch, never as harness noise. Roughly one call in 16
// reports blocked (sent == 0), exercising the park/kick machinery.
std::uint32_t scripted_sent(FlowId flow, std::uint32_t call) {
  const std::uint32_t h = (flow * 2654435761u) ^ (call * 40503u + 1);
  if (h % 16 == 0) return 0;
  return 200 + h % 1249;  // 200..1448 bytes
}

template <typename Sched>
std::vector<Trig> run_script(Sched& svc, sim::Domain& ev,
                             const std::vector<Op>& ops, sim::TimePs end) {
  std::vector<Trig> out;
  std::vector<std::uint32_t> calls;
  svc.set_trigger([&](FlowId flow) {
    if (calls.size() <= flow) calls.resize(flow + 1, 0);
    const std::uint32_t sent = scripted_sent(flow, calls[flow]++);
    out.push_back({ev.now(), flow, sent});
    return sent;
  });
  for (const Op& op : ops) {
    ev.schedule_at(op.at, [&svc, op] {
      switch (op.kind) {
        case Op::kRate: svc.set_rate(op.flow, op.arg); break;
        case Op::kUpdate: svc.update_avail(op.flow, op.arg); break;
        case Op::kAdd: svc.add_avail(op.flow, op.arg); break;
        case Op::kKick: svc.kick(op.flow); break;
        case Op::kRemove: svc.remove_flow(op.flow); break;
      }
    });
  }
  ev.run_until(end);
  return out;
}

// Small-geometry wheel for cascade tests: 8 slots/level, 3 levels.
// Level strides are 1, 8, 64 granules; horizon 512 granules (512 us).
TimingWheelParams small_geometry() {
  TimingWheelParams p;
  p.slots_per_level = 8;
  p.levels = 3;
  return p;
}

// Runs `ops` through the Oracle and a TimingWheel of geometry `params`
// and requires identical trigger sequences. Returns the wheel's
// cascade count, so callers can check which levels a script reached.
std::uint64_t expect_equivalent(const std::vector<Op>& ops, sim::TimePs end,
                                TimingWheelParams params = {}) {
  sim::Domain ev_ref, ev_whl;
  Oracle ref(ev_ref);
  TimingWheel whl(ev_whl, params);
  const std::vector<Trig> a = run_script(ref, ev_ref, ops, end);
  const std::vector<Trig> b = run_script(whl, ev_whl, ops, end);
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << "trigger " << i;
    EXPECT_EQ(a[i].flow, b[i].flow) << "trigger " << i;
    EXPECT_EQ(a[i].sent, b[i].sent) << "trigger " << i;
  }
  return whl.cascades();
}

// Seeded random op script. Paced flows draw rates in [min_rate,
// 1 GB/s]; at the default 10 MB/s floor every re-arm deadline
// (ps_per_byte * sent <= 1e5 * 1448 ps ~ 145 us) stays inside the
// default wheel's 256-granule level 0, and lower floors push deadlines
// through the cascading levels. Cancelled flows stay in play: a later
// rate or avail op revives them, whether the cancel caught them armed,
// queued or idle. Ops need not be time-sorted: each is scheduled at
// its own instant.
std::vector<Op> random_script(std::uint64_t seed, std::size_t num_flows,
                              std::size_t num_ops, sim::TimePs span,
                              std::uint64_t min_rate = 10'000'000) {
  std::mt19937_64 rng(seed);
  // 1 in 4 uncongested (round-robin bypass), the rest paced.
  auto draw_rate = [&rng, min_rate]() -> std::uint64_t {
    return rng() % 4 == 0 ? 0
                          : min_rate + rng() % (1'000'000'000 - min_rate);
  };
  std::vector<Op> ops;
  for (FlowId f = 0; f < num_flows; ++f) {
    ops.push_back({Op::kRate, 0, f, draw_rate()});
  }
  sim::TimePs t = 0;
  for (std::size_t i = 0; i < num_ops; ++i) {
    t += rng() % (span / num_ops);
    const auto f = static_cast<FlowId>(rng() % num_flows);
    switch (rng() % 9) {
      case 0: {
        // Give the flow data, cancel it a few microseconds later —
        // usually while it is armed between paced sends — and half the
        // time revive it shortly after, often before the cancelled
        // incarnation's deadline would have come due.
        ops.push_back({Op::kUpdate, t, f, 1 + rng() % 20000});
        const sim::TimePs cut = t + sim::ns(500) + rng() % sim::us(8);
        ops.push_back({Op::kRemove, cut, f, 0});
        if (rng() % 2 == 0) {
          ops.push_back({Op::kUpdate, cut + rng() % sim::us(4), f,
                         1 + rng() % 20000});
        }
        break;
      }
      case 8:  // re-program (revives a cancelled flow)
        ops.push_back({Op::kRate, t, f, draw_rate()});
        break;
      case 1:
      case 2:
        ops.push_back({Op::kAdd, t, f, 1 + rng() % 5000});
        break;
      case 3:
        ops.push_back({Op::kKick, t, f, 0});
        break;
      default:
        ops.push_back({Op::kUpdate, t, f, 1 + rng() % 20000});
        break;
    }
  }
  return ops;
}

// ------------------------------------------------ differential battery

TEST(TimingWheelDifferential, SeededRandomArmCancelRearm) {
  for (std::uint64_t seed : {1ull, 42ull, 20260809ull}) {
    SCOPED_TRACE(seed);
    expect_equivalent(random_script(seed, 32, 400, sim::ms(20)),
                      sim::ms(40));
  }
}

TEST(TimingWheelDifferential, ManyFlowsShortScript) {
  expect_equivalent(random_script(7, 256, 1500, sim::ms(10)), sim::ms(25));
}

TEST(TimingWheelDifferential, CascadingGeometryKeepsArmOrder) {
  // Small-geometry wheel (horizon 512 granules) with rates down to
  // 1 MB/s: re-arm deadlines reach ~1.4 ms, so flows file at every
  // level, cascade, and park beyond the horizon. Flows due on the same
  // tick must still fire in arm order, whether they reached level 0
  // directly or by cascade — the oracle has no levels at all.
  for (std::uint64_t seed : {3ull, 99ull}) {
    SCOPED_TRACE(seed);
    EXPECT_GT(expect_equivalent(
                  random_script(seed, 48, 600, sim::ms(20), 1'000'000),
                  sim::ms(40), small_geometry()),
              0u);
  }
}

TEST(TimingWheelDifferential, SameTickTies) {
  // Two flows paced identically, armed back-to-back at the same instant:
  // their deadlines quantize to the same slot and must pop in the same
  // (insertion) order from both schedulers, tick after tick.
  std::vector<Op> ops;
  ops.push_back({Op::kRate, 0, 1, 100'000'000});
  ops.push_back({Op::kRate, 0, 2, 100'000'000});
  ops.push_back({Op::kUpdate, sim::us(3), 1, 8000});
  ops.push_back({Op::kUpdate, sim::us(3), 2, 8000});
  expect_equivalent(ops, sim::ms(5));
}

TEST(TimingWheelDifferential, CancelWhileQueuedIsLazySkipped) {
  // The flow is cancelled right after arming, while it sits in the
  // ready queue: both schedulers skip it lazily at the next service.
  std::vector<Op> ops;
  ops.push_back({Op::kRate, 0, 3, 50'000'000});
  ops.push_back({Op::kUpdate, sim::us(1), 3, 6000});
  ops.push_back({Op::kRemove, sim::us(1), 3, 0});
  // A live companion keeps the service loop observable.
  ops.push_back({Op::kRate, 0, 4, 50'000'000});
  ops.push_back({Op::kUpdate, sim::us(2), 4, 6000});
  expect_equivalent(ops, sim::ms(2));
}

TEST(TimingWheelDifferential, CancelWhileArmedThenRearm) {
  // Flow 5 paces at 50 MB/s (20 ns/byte): after its first trigger it
  // is armed several microseconds out. It is cancelled while armed —
  // the wheel unlinks it eagerly, leaving a stale tick pending — and
  // revived twice: once before that stale tick runs (no re-anchor) and
  // once after the wheel has drained (re-anchor on the new grid).
  std::vector<Op> ops;
  ops.push_back({Op::kRate, 0, 5, 50'000'000});
  ops.push_back({Op::kUpdate, sim::us(1), 5, 6000});
  ops.push_back({Op::kRemove, sim::ns(1500), 5, 0});
  ops.push_back({Op::kUpdate, sim::ns(1600), 5, 3000});
  ops.push_back({Op::kRemove, sim::us(40), 5, 0});
  ops.push_back({Op::kRate, sim::us(200), 5, 25'000'000});
  ops.push_back({Op::kUpdate, sim::us(200), 5, 4000});
  // A paced companion shares the wheel with the first two incarnations
  // and drains well before the third.
  ops.push_back({Op::kRate, 0, 6, 40'000'000});
  ops.push_back({Op::kUpdate, sim::us(2), 6, 3000});
  expect_equivalent(ops, sim::ms(2));
}

TEST(TimingWheelDifferential, ParkAndKickRevival) {
  // scripted_sent reports blocked (~1/16 of calls) at deterministic
  // points; periodic kicks then revive every parked flow. Park points
  // and revival order must line up exactly across both schedulers.
  std::vector<Op> ops;
  for (FlowId f = 0; f < 8; ++f) {
    ops.push_back({Op::kRate, 0, f, 20'000'000 + f * 10'000'000});
    ops.push_back({Op::kUpdate, sim::us(1 + f), f, 50'000});
  }
  for (int k = 1; k <= 20; ++k) {
    for (FlowId f = 0; f < 8; ++f) {
      ops.push_back({Op::kKick, sim::us(100) * k, f, 0});
    }
  }
  expect_equivalent(ops, sim::ms(10));
}

// --------------------------------------------------- wheel-only tests

TEST(TimingWheel, RateLimitedPacing) {
  // 100 MB/s and 1000-byte sends pace triggers ~10 us apart on the
  // 1 us slot grid.
  sim::Domain ev;
  TimingWheel whl(ev);
  std::vector<sim::TimePs> at;
  whl.set_trigger([&](FlowId) {
    at.push_back(ev.now());
    return 1000u;
  });
  whl.set_rate(7, 100'000'000);
  whl.update_avail(7, 5000);
  ev.run_until(sim::ms(1));
  ASSERT_EQ(at.size(), 5u);
  for (std::size_t i = 1; i < at.size(); ++i) {
    EXPECT_GE(at[i] - at[i - 1], sim::us(9));
    EXPECT_LE(at[i] - at[i - 1], sim::us(12));
  }
}

// Paces one flow so each re-arm deadline is `off_us` granules out, runs
// three triggers, and returns the observed inter-trigger spacings.
std::vector<sim::TimePs> pacing_gaps(TimingWheel& whl, sim::Domain& ev,
                                     std::uint64_t off_us) {
  std::vector<sim::TimePs> at;
  whl.set_trigger([&](FlowId) {
    at.push_back(ev.now());
    return 1000u;
  });
  // set_rate divides: ps_per_byte = 1e12 / bps; with 1000-byte sends the
  // deadline offset is ps_per_byte * 1000 ps = off_us us.
  whl.set_rate(1, 1'000'000'000ull / off_us);
  whl.update_avail(1, 3000);
  ev.run_until(sim::us(1) * (4 * off_us + 100));
  EXPECT_EQ(at.size(), 3u);
  std::vector<sim::TimePs> gaps;
  for (std::size_t i = 1; i < at.size(); ++i) gaps.push_back(at[i] - at[i - 1]);
  return gaps;
}

TEST(TimingWheelCascade, Level0NoCascade) {
  sim::Domain ev;
  TimingWheel whl(ev, small_geometry());
  for (sim::TimePs gap : pacing_gaps(whl, ev, 5)) {
    EXPECT_GE(gap, sim::us(4));
    EXPECT_LE(gap, sim::us(7));
  }
  EXPECT_EQ(whl.cascades(), 0u);
}

TEST(TimingWheelCascade, Level1CascadesOnce) {
  sim::Domain ev;
  TimingWheel whl(ev, small_geometry());
  // 20 granules: files at level 1 (stride 8), cascades back into level 0.
  for (sim::TimePs gap : pacing_gaps(whl, ev, 20)) {
    EXPECT_GE(gap, sim::us(19));
    EXPECT_LE(gap, sim::us(22));
  }
  EXPECT_GT(whl.cascades(), 0u);
}

TEST(TimingWheelCascade, Level2CascadesTwice) {
  sim::Domain ev;
  TimingWheel whl(ev, small_geometry());
  // 100 granules: level 2 (stride 64) -> level 1 -> level 0. The due
  // tick is stored once at arm time, so two cascades add no drift.
  for (sim::TimePs gap : pacing_gaps(whl, ev, 100)) {
    EXPECT_GE(gap, sim::us(99));
    EXPECT_LE(gap, sim::us(102));
  }
  EXPECT_GE(whl.cascades(), 2u);
}

TEST(TimingWheelCascade, ExactStrideBoundaryOffsets) {
  // Offsets exactly at S and S^2 land on the first slot of the next
  // level; the fire tick must still be exact.
  for (std::uint64_t off : {8ull, 64ull}) {
    SCOPED_TRACE(off);
    sim::Domain ev;
    TimingWheel whl(ev, small_geometry());
    for (sim::TimePs gap : pacing_gaps(whl, ev, off)) {
      EXPECT_GE(gap, sim::us(1) * (off - 1));
      EXPECT_LE(gap, sim::us(1) * (off + 2));
    }
  }
}

TEST(TimingWheelCascade, BeyondHorizonFiresAtTrueDeadline) {
  sim::Domain ev;
  TimingWheel whl(ev, small_geometry());
  // 600 granules exceeds the 512-granule horizon: the flow parks in the
  // top level and re-files by its stored due tick at each cascade, so
  // it fires at the true deadline, not clamped early to the horizon.
  for (sim::TimePs gap : pacing_gaps(whl, ev, 600)) {
    EXPECT_GE(gap, sim::us(599));
    EXPECT_LE(gap, sim::us(602));
  }
  EXPECT_GT(whl.cascades(), 0u);
}

TEST(TimingWheel, EagerCancelReleasesWheelResidency) {
  sim::Domain ev;
  TimingWheel whl(ev);
  int calls = 0;
  whl.set_trigger([&](FlowId) {
    ++calls;
    return 1000u;
  });
  whl.set_rate(9, 1'000'000);  // 1 MB/s -> 1 ms between sends
  whl.update_avail(9, 5000);
  ev.run_until(sim::us(100));  // first trigger done, re-armed 1 ms out
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(whl.wheel_resident(), 1u);
  // O(1) cancel: residency drops immediately (no dead entry is left in
  // the slot to expire).
  whl.remove_flow(9);
  EXPECT_EQ(whl.wheel_resident(), 0u);
  ev.run_until(sim::ms(5));
  EXPECT_EQ(calls, 1);  // never fires again
}

TEST(TimingWheel, RevivalAfterEagerCancelReArmsCleanly) {
  sim::Domain ev;
  TimingWheel whl(ev);
  int calls = 0;
  whl.set_trigger([&](FlowId) {
    ++calls;
    return 1000u;
  });
  whl.set_rate(9, 1'000'000);
  whl.update_avail(9, 5000);
  ev.run_until(sim::us(100));
  whl.remove_flow(9);  // cancelled while wheel-resident
  ev.run_until(sim::us(200));
  // Revive the id (new connection incarnation): no residual slot
  // residency blocks the re-arm — it fires immediately.
  whl.set_rate(9, 1'000'000);
  whl.update_avail(9, 2000);
  ev.run_until(sim::us(300));
  EXPECT_EQ(calls, 2);
}

TEST(TimingWheel, CancelAfterFireIsIdempotent) {
  sim::Domain ev;
  TimingWheel whl(ev);
  int calls = 0;
  whl.set_trigger([&](FlowId) {
    ++calls;
    return 5000u;  // drains avail in one shot: flow leaves the wheel
  });
  whl.set_rate(2, 100'000'000);
  whl.update_avail(2, 4000);
  ev.run_until(sim::ms(1));
  EXPECT_EQ(calls, 1);
  whl.remove_flow(2);  // after the flow already fired and drained
  whl.remove_flow(2);  // double-cancel
  ev.run_until(sim::ms(2));
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(whl.wheel_resident(), 0u);
}

TEST(TimingWheel, FootprintIsFlatPerFlow) {
  sim::Domain ev;
  TimingWheel whl(ev);
  const std::size_t empty = whl.footprint_bytes();
  const std::size_t n = 10'000;
  for (FlowId f = 0; f < n; ++f) whl.set_rate(f, 0);
  EXPECT_EQ(whl.flows_tracked(), n);
  const std::size_t full = whl.footprint_bytes();
  // Flat vector storage: the marginal cost per tracked flow is one Flow
  // entry (intrusive links included), not a hash node + chain pointers.
  EXPECT_GE(full, empty + n * sizeof(std::uint64_t));
  EXPECT_LE((full - empty) / n, 128u);
}

}  // namespace
}  // namespace flextoe::sched
