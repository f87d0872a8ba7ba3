#include "sim/cpu.hpp"

#include <algorithm>

namespace flextoe::sim {

TimePs CpuPool::run(std::uint64_t cycles, CpuCat cat, TimePs not_before,
                    Fn cb) {
  cycles_[static_cast<std::size_t>(cat)] += cycles;

  // Earliest-available core.
  auto it = std::min_element(core_free_.begin(), core_free_.end());
  TimePs start = std::max({ev_.now(), not_before, *it});

  const TimePs work = clock_.cycles(cycles);
  TimePs end;
  if (serial_frac_ > 0.0) {
    const auto serial = static_cast<TimePs>(static_cast<double>(work) *
                                            serial_frac_);
    const TimePs parallel = work - serial;
    // The serial share must hold the global lock.
    const TimePs lock_at = std::max(start, lock_free_);
    lock_free_ = lock_at + serial;
    end = lock_free_ + parallel;
  } else {
    end = start + work;
  }
  *it = end;
  busy_ += end - start;

  if (cb) {
    ev_.schedule_at(end, std::move(cb));
  }
  return end;
}

}  // namespace flextoe::sim
