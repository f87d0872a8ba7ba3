// Host CPU model: a pool of cores that execute cycle-charged work items.
//
// Used to model host-side processing costs (driver, TCP stack, sockets,
// application) calibrated from the paper's Table 1. A configurable
// serial fraction models coarse-grained locking (Linux in-kernel stack):
// that share of every work item must hold a global lock, which caps
// multicore scalability (Amdahl).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/domain.hpp"
#include "sim/time.hpp"

namespace flextoe::sim {

// Cycle accounting categories (rows of Table 1).
enum class CpuCat : std::uint8_t {
  Driver = 0,
  Stack,
  Sockets,
  App,
  Other,
  kCount,
};

class CpuPool {
 public:
  CpuPool(Domain& ev, unsigned cores, ClockDomain clock = kHostClock)
      : ev_(ev), clock_(clock), core_free_(cores, 0) {}

  // Fraction of each work item that serializes on a global lock.
  void set_serial_fraction(double f) { serial_frac_ = f; }

  // The completion callback, moved into the event queue as built: the
  // per-packet closures of the software stacks stay off the heap.
  using Fn = EventQueue::Callback;

  // Executes `cycles` of work on the earliest-available core, starting no
  // earlier than `not_before` (used to serialize per-connection work),
  // then invokes `cb`. Returns the completion time.
  TimePs run(std::uint64_t cycles, CpuCat cat, TimePs not_before, Fn cb);

  TimePs run(std::uint64_t cycles, CpuCat cat, Fn cb) {
    return run(cycles, cat, 0, std::move(cb));
  }

  // Pure accounting (no scheduling delay) — for costs that are charged
  // but never block forward progress.
  void account(std::uint64_t cycles, CpuCat cat) {
    cycles_[static_cast<std::size_t>(cat)] += cycles;
  }

  // Moves already-charged cycles between accounting categories (work that
  // ran as one item but spans Table-1 rows, e.g. driver + stack).
  void reattribute(CpuCat from, CpuCat to, std::uint64_t cycles) {
    cycles_[static_cast<std::size_t>(from)] -= cycles;
    cycles_[static_cast<std::size_t>(to)] += cycles;
  }

  unsigned cores() const { return static_cast<unsigned>(core_free_.size()); }
  const ClockDomain& clock() const { return clock_; }

  std::uint64_t cycles(CpuCat cat) const {
    return cycles_[static_cast<std::size_t>(cat)];
  }
  std::uint64_t total_cycles() const {
    std::uint64_t t = 0;
    for (auto c : cycles_) t += c;
    return t;
  }
  void clear_accounting() { cycles_.fill(0); }

  // Aggregate core-busy fraction over `elapsed`.
  double utilization(TimePs elapsed) const {
    if (elapsed == 0) return 0;
    return static_cast<double>(busy_) /
           (static_cast<double>(elapsed) * cores());
  }

 private:
  Domain& ev_;
  ClockDomain clock_;
  std::vector<TimePs> core_free_;
  TimePs lock_free_ = 0;
  double serial_frac_ = 0.0;
  std::array<std::uint64_t, static_cast<std::size_t>(CpuCat::kCount)>
      cycles_{};
  TimePs busy_ = 0;
};

}  // namespace flextoe::sim
