#include "sim/event_queue.hpp"

namespace flextoe::sim {

void EventQueue::add_chunk() {
  chunks_.emplace_back(new Callback[kChunkSlots]);
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  const Ev ev = heap_.top();
  heap_.pop();
  now_ = ev.t;
  ++executed_;
  // Invoke in place. Chunks never move, and the slot is recycled only
  // after the callback has returned and been destroyed, so the events it
  // schedules land in other slots.
  Callback& cb = slot_at(ev.slot);
  cb();
  cb.reset();
  free_slots_.push_back(ev.slot);
  return true;
}

void EventQueue::run_until(TimePs t) {
  while (!heap_.empty() && heap_.top().t <= t) step();
  advance_to(t);
}

void EventQueue::run_before(TimePs t) {
  while (!heap_.empty() && heap_.top().t < t) step();
}

void EventQueue::run_all() {
  while (step()) {
  }
}

}  // namespace flextoe::sim
