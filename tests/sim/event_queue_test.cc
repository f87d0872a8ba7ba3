#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace flextoe::sim {
namespace {

TEST(EventQueue, StartsAtTimeZeroEmpty) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(ns(30), [&] { order.push_back(3); });
  q.schedule_at(ns(10), [&] { order.push_back(1); });
  q.schedule_at(ns(20), [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), ns(30));
}

TEST(EventQueue, SameTimestampRunsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(ns(5), [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  TimePs fired = 0;
  q.schedule_at(ns(100), [&] {
    q.schedule_in(ns(50), [&] { fired = q.now(); });
  });
  q.run_all();
  EXPECT_EQ(fired, ns(150));
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents) {
  EventQueue q;
  q.run_until(us(7));
  EXPECT_EQ(q.now(), us(7));
}

TEST(EventQueue, RunUntilDoesNotRunLaterEvents) {
  EventQueue q;
  bool early = false, late = false;
  q.schedule_at(ns(10), [&] { early = true; });
  q.schedule_at(ns(1000), [&] { late = true; });
  q.run_until(ns(100));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(q.now(), ns(100));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) q.schedule_in(ns(1), chain);
  };
  q.schedule_at(0, chain);
  q.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.executed(), 100u);
}

TEST(EventQueue, NextTimeReportsEarliestPendingEvent) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), EventQueue::kNoEvent);
  q.schedule_at(ns(30), [] {});
  q.schedule_at(ns(10), [] {});
  EXPECT_EQ(q.next_time(), ns(10));
  q.run_all();
  EXPECT_EQ(q.next_time(), EventQueue::kNoEvent);
}

TEST(EventQueue, RunBeforeIsExclusiveAndKeepsClock) {
  // The epoch-window primitive: strictly-before-horizon execution that
  // leaves now() at the last executed event, not at the horizon.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(ns(10), [&] { order.push_back(1); });
  q.schedule_at(ns(20), [&] { order.push_back(2); });
  q.schedule_at(ns(30), [&] { order.push_back(3); });
  q.run_before(ns(30));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), ns(20));
  EXPECT_EQ(q.next_time(), ns(30));
  q.run_before(EventQueue::kNoEvent);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ReservedSeqRunsInItsReservedPlace) {
  // A rank reserved between two same-time schedules keeps its place
  // between them, even when the event itself is scheduled last.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(ns(10), [&] { order.push_back(1); });
  const std::uint64_t seq = q.reserve_seq();
  q.schedule_at(ns(10), [&] { order.push_back(3); });
  q.schedule_at(ns(5), [&] { order.push_back(0); });
  q.schedule_at(ns(10), seq, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, ReservedSeqMayBeUsedFromALaterEvent) {
  // The rank is reserved at t=0 and used by an event that runs at t=10,
  // as a re-queued timer does: at t=20 it still runs after the event
  // scheduled before the reservation and before the one scheduled after.
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(ns(20), [&] { order.push_back(1); });
  const std::uint64_t seq = q.reserve_seq();
  q.schedule_at(ns(20), [&] { order.push_back(3); });
  q.schedule_at(ns(10), [&] {
    order.push_back(0);
    q.schedule_at(ns(20), seq, [&] { order.push_back(2); });
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, LargeCaptureSurvivesSchedulingManyEventsFromItsRun) {
  // The running callback is invoked in its slot; scheduling more than a
  // chunk's worth of events from inside it must not move it (ASan
  // reports a use-after-free if its storage is relocated or reused).
  EventQueue q;
  std::array<std::uint64_t, 8> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = 1000 + i;
  auto shared = std::make_shared<int>(7);
  std::uint64_t sum = 0;
  int fired = 0;
  auto big = [&q, &sum, &fired, payload, shared] {
    for (std::size_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i) {
      q.schedule_in(ns(1) + static_cast<TimePs>(i), [&fired] { ++fired; });
    }
    for (const std::uint64_t v : payload) sum += v;
    sum += static_cast<std::uint64_t>(*shared);
  };
  static_assert(sizeof(big) > 96);
  static_assert(EventQueue::Callback::fits_inline<decltype(big)>());
  q.schedule_at(ns(1), std::move(big));
  q.run_all();
  EXPECT_EQ(sum, 8u * 1000u + 28u + 7u);
  EXPECT_EQ(fired, static_cast<int>(3 * EventQueue::kChunkSlots));
  EXPECT_EQ(shared.use_count(), 1);  // the closure was destroyed
}

TEST(EventQueue, PrebuiltCallbackIsMovedIn) {
  EventQueue q;
  int ran = 0;
  EventQueue::Callback cb = [&ran] { ++ran; };
  q.schedule_at(ns(3), std::move(cb));
  EventQueue::Callback again = [&ran] { ran += 10; };
  q.schedule_in(ns(4), std::move(again));
  q.run_all();
  EXPECT_EQ(ran, 11);
  EXPECT_EQ(q.now(), ns(4));
}

TEST(ClockDomain, CycleConversions) {
  EXPECT_EQ(kFpcClock.cycles(800), ns(1000));  // 800 cycles @800MHz = 1us
  EXPECT_EQ(kHostClock.cycles(2000), ns(1000));
  EXPECT_EQ(kFpcClock.to_cycles(us(1)), 800u);
  EXPECT_NEAR(kFpcClock.mhz(), 800.0, 0.01);
}

}  // namespace
}  // namespace flextoe::sim
