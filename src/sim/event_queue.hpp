// Deterministic discrete-event queue.
//
// Events scheduled for the same timestamp run in schedule order (FIFO),
// which keeps every simulation bit-reproducible for a given seed. The
// FIFO rank is a sequence number drawn at schedule time; reserve_seq()
// draws one early, so an event scheduled later with it still runs where
// an event scheduled at the reservation would have.
//
// The event representation is pooled and allocation-free at steady
// state: the binary heap orders 24-byte {time, seq, slot} records while
// the callbacks themselves — sim::SmallFn closures, stored inline, no
// per-closure malloc — live in recycled slots of a slab made of
// fixed-size chunks that never move. schedule_at() builds the closure
// directly in its slot; step() invokes it there, destroys it there and
// only then recycles the slot. A closure is never relocated, whatever
// the heap depth, and events it schedules while running land in other
// slots. Only a pre-built Callback (Domain::post) is moved in once.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace flextoe::sim {

class EventQueue {
 public:
  // Sized for the largest hot closure: a DMA completion carrying a
  // lifetime guard plus an inline done-handler payload — 8 (this) +
  // 16 (guard) + pad-to-16 + 80 (SmallFn<64> done) = 112 bytes.
  using Callback = SmallFn<112>;

  // Slots per slab chunk (128 B each, so 32 KiB per chunk).
  static constexpr std::size_t kChunkSlots = 256;

  // Schedules `f` — any void() callable, or a pre-built Callback — to
  // run at absolute time `t` (>= now()).
  template <typename F>
  void schedule_at(TimePs t, F&& f) {
    schedule_at(t, next_seq_++, std::forward<F>(f));
  }

  // Schedules `f` to run at `t` with a FIFO rank drawn earlier by
  // reserve_seq(): among events at `t` it runs after those scheduled
  // before the reservation and before those scheduled after it. At most
  // one pending event may hold a given rank.
  template <typename F>
  void schedule_at(TimePs t, std::uint64_t seq, F&& f) {
    assert(t >= now_ && "cannot schedule into the past");
    assert(seq < next_seq_ && "sequence number was never reserved");
    const std::uint32_t slot = alloc_slot();
    slot_at(slot).emplace(std::forward<F>(f));
    heap_.push(Ev{t, seq, slot});
  }

  // Schedules `f` to run `delay` after now().
  template <typename F>
  void schedule_in(TimePs delay, F&& f) {
    schedule_at(now_ + delay, std::forward<F>(f));
  }

  // Draws the FIFO rank the next schedule_at() would have taken, for a
  // later schedule_at(t, seq, f).
  std::uint64_t reserve_seq() { return next_seq_++; }

  // Runs the earliest pending event. Returns false if the queue is empty.
  bool step();

  // Runs all events with timestamp <= t, then advances now() to t.
  void run_until(TimePs t);

  // Runs all events with timestamp strictly below `t` but does NOT
  // advance now() past the last executed event. This is the window
  // primitive of the conservative parallel scheduler (sim/domain.hpp):
  // cross-domain arrivals land at >= t and stay schedulable afterwards.
  void run_before(TimePs t);

  // Drains the queue completely (use only for bounded simulations).
  void run_all();

  // Sentinel returned by next_time() when no events are pending.
  static constexpr TimePs kNoEvent = ~TimePs{0};
  // Timestamp of the earliest pending event (kNoEvent when empty) — the
  // quantity the domain scheduler minimizes over to pick epoch horizons.
  TimePs next_time() const { return heap_.empty() ? kNoEvent : heap_.top().t; }

  TimePs now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

 protected:
  // Clock jump without event execution (epoch alignment in run_until()
  // and the domain scheduler). Never moves the clock backwards.
  void advance_to(TimePs t) {
    if (t > now_) now_ = t;
  }

 private:
  struct Ev {
    TimePs t;
    std::uint64_t seq;   // tie-break: FIFO among same-time events
    std::uint32_t slot;  // index of the callback in the slot pool
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  Callback& slot_at(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }
  std::uint32_t alloc_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    if (slot_count_ == chunks_.size() * kChunkSlots) add_chunk();
    return slot_count_++;
  }
  void add_chunk();

  std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
  // Slab; grows to peak pending, a chunk at a time.
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::uint32_t slot_count_ = 0;           // slots handed out so far
  std::vector<std::uint32_t> free_slots_;  // recycled slot indices
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace flextoe::sim
