// TimingWheel implementation (see timing_wheel.hpp): flat per-flow
// storage, intrusive per-slot doubly-linked lists, cascading levels,
// ready-queue round-robin and one trigger per SCH service interval.
#include "sched/timing_wheel.hpp"

#include <algorithm>
#include <cassert>

#include "trace/trace.hpp"

namespace flextoe::sched {

TimingWheel::TimingWheel(sim::Domain& ev, TimingWheelParams params)
    : ev_(ev), params_(params) {
  assert(params_.levels >= 1);
  assert(params_.slots_per_level >= 2);
  assert((params_.slots_per_level & (params_.slots_per_level - 1)) == 0 &&
         "slots_per_level must be a power of two");
  slots_.assign(static_cast<std::size_t>(params_.levels) *
                    params_.slots_per_level,
                SlotList{});
  stride_.resize(params_.levels + 1);
  stride_[0] = 1;
  for (std::uint32_t k = 1; k <= params_.levels; ++k) {
    stride_[k] = stride_[k - 1] * params_.slots_per_level;
  }
}

void TimingWheel::bind_telemetry(telemetry::Registry& reg,
                                 const std::string& prefix) {
  if (!telem_.bind(reg)) return;
  t_triggers_ = reg.counter(prefix + "/triggers");
  t_tx_bytes_ = reg.counter(prefix + "/tx_bytes");
  t_parked_ = reg.counter(prefix + "/parked");
  t_cascades_ = reg.counter(prefix + "/cascades");
  t_ready_depth_ = reg.histogram(prefix + "/ready_depth");
  t_wheel_flows_ = reg.histogram(prefix + "/wheel_flows");
  t_flows_ = reg.gauge(prefix + "/flows");
}

std::size_t TimingWheel::footprint_bytes() const {
  // Flat flow vector + slot-list heads + ready deque. No per-flow heap
  // nodes: the slot lists live inside the Flow entries themselves.
  std::size_t bytes = sizeof(TimingWheel);
  bytes += flows_.capacity() * sizeof(Flow);
  bytes += slots_.capacity() * sizeof(SlotList);
  bytes += stride_.capacity() * sizeof(std::uint64_t);
  bytes += ready_.size() * sizeof(FlowId);
  return bytes;
}

TimingWheel::Flow& TimingWheel::touch(FlowId flow) {
  if (flow >= flows_.size()) flows_.resize(flow + 1);
  Flow& fl = flows_[flow];
  if (!fl.touched) {
    fl.touched = true;
    ++tracked_;
  }
  return fl;
}

void TimingWheel::set_rate(FlowId flow, std::uint64_t bytes_per_sec) {
  Flow& st = touch(flow);
  st.dead = false;
  if (bytes_per_sec == 0 || bytes_per_sec >= params_.uncongested_rate) {
    st.ps_per_byte = 0;
  } else {
    st.ps_per_byte = sim::kPsPerSec / bytes_per_sec;
    if (st.ps_per_byte == 0) st.ps_per_byte = 1;
  }
}

void TimingWheel::update_avail(FlowId flow, std::uint64_t avail) {
  Flow& st = touch(flow);
  st.dead = false;
  st.avail = avail;
  st.parked = false;
  if (st.avail > 0 && !st.queued) enqueue_ready(flow);
}

void TimingWheel::add_avail(FlowId flow, std::uint64_t delta) {
  Flow& st = touch(flow);
  st.dead = false;
  st.avail += delta;
  st.parked = false;
  if (st.avail > 0 && !st.queued) enqueue_ready(flow);
}

void TimingWheel::kick(FlowId flow) {
  Flow& st = touch(flow);
  if (st.dead) return;
  st.parked = false;
  if (st.avail > 0 && !st.queued) enqueue_ready(flow);
}

void TimingWheel::remove_flow(FlowId flow) {
  if (flow >= flows_.size() || !flows_[flow].touched) return;
  Flow& st = flows_[flow];
  if (st.in_wheel) {
    // O(1) cancel: no dead entry is left in the slot. Close the queued
    // span so every begin pairs.
    unlink(flow);
    st.queued = false;
    if (trace::Ring* r = ev_.trace_ring()) {
      if (trace_base_ != 0) {
        r->record(ev_.now(), trace::Phase::kAsyncEnd, trace_name_queued_,
                  trace_track_, trace_base_ | flow, wheel_count_);
      }
    }
  }
  // If the flow sits in the ready deque it is skipped lazily at
  // service_one.
  st.dead = true;
  st.avail = 0;
}

void TimingWheel::trace_queued(FlowId flow, std::uint64_t arg) {
  trace::Ring* r = ev_.trace_ring();
  if (r == nullptr) return;
  if (trace_base_ == 0) {
    trace_base_ = trace::Tracer::instance().next_actor_base();
    trace_track_ = trace::Tracer::instance().intern("sched/wheel");
    trace_name_queued_ = trace::Tracer::instance().intern("queued");
    trace_name_trigger_ = trace::Tracer::instance().intern("trigger");
    trace_name_tick_ = trace::Tracer::instance().intern("wheel_tick");
  }
  r->record(ev_.now(), trace::Phase::kAsyncBegin, trace_name_queued_,
            trace_track_, trace_base_ | flow, arg);
}

void TimingWheel::enqueue_ready(FlowId flow) {
  Flow& st = flows_[flow];
  st.queued = true;
  ready_.push_back(flow);
  trace_queued(flow, ready_.size());
  pump();
}

void TimingWheel::file(FlowId flow, std::uint64_t off) {
  // Level k covers offsets [S^k, S^(k+1)). Offsets beyond the total
  // horizon park at most horizon - 1 ahead in the top level and re-file
  // at each cascade by the flow's stored due tick until the remaining
  // delta fits: far deadlines fire at their true time, never early.
  std::uint32_t level = 0;
  while (level + 1 < params_.levels && off >= stride_[level + 1]) ++level;
  const std::uint64_t target =
      ticks_ + std::min<std::uint64_t>(off, stride_[params_.levels] - 1);
  const std::uint32_t slot = static_cast<std::uint32_t>(
      (target / stride_[level]) & (params_.slots_per_level - 1));
  const std::uint32_t idx = level * params_.slots_per_level + slot;

  Flow& st = flows_[flow];
  st.in_wheel = true;
  st.slot = idx;
  SlotList& list = slots_[idx];
  // A level-0 list holds the flows due on one tick; keep it in arm
  // order so same-tick ties fire first-armed-first. Natives arrive in
  // arm order and append; only a cascaded flow walks back past natives
  // armed after it. Higher-level lists are re-filed anyway.
  std::uint32_t after = list.tail;
  if (level == 0) {
    while (after != kNil &&
           static_cast<std::int32_t>(flows_[after].arm_seq - st.arm_seq) > 0) {
      after = flows_[after].prev;
    }
  }
  st.prev = after;
  st.next = after == kNil ? list.head : flows_[after].next;
  if (st.prev == kNil) {
    list.head = flow;
  } else {
    flows_[st.prev].next = flow;
  }
  if (st.next == kNil) {
    list.tail = flow;
  } else {
    flows_[st.next].prev = flow;
  }
  ++wheel_count_;
}

void TimingWheel::unlink(FlowId flow) {
  Flow& st = flows_[flow];
  assert(st.in_wheel);
  SlotList& list = slots_[st.slot];
  if (st.prev == kNil) {
    list.head = st.next;
  } else {
    flows_[st.prev].next = st.next;
  }
  if (st.next == kNil) {
    list.tail = st.prev;
  } else {
    flows_[st.next].prev = st.prev;
  }
  st.prev = kNil;
  st.next = kNil;
  st.slot = kNil;
  st.in_wheel = false;
  --wheel_count_;
}

void TimingWheel::enqueue_wheel(FlowId flow, sim::TimePs deadline) {
  Flow& st = flows_[flow];
  st.queued = true;

  if (wheel_count_ == 0 && !wheel_tick_scheduled_) {
    // (Re)anchor the tick grid at the current time. Skipped while a
    // stale tick is still pending (possible after an O(1) cancel
    // drained the wheel): that tick will advance ticks_/wheel_time_,
    // and slot math is relative to ticks_, so staying on the old grid
    // is both simpler and correct.
    wheel_time_ = ev_.now();
    ticks_ = 0;
  }
  const sim::TimePs delta = deadline > ev_.now() ? deadline - ev_.now() : 0;
  const std::uint64_t off =
      static_cast<std::uint64_t>(delta / params_.slot_granularity);
  if (off == 0) {
    st.queued = false;  // enqueue_ready re-marks it
    enqueue_ready(flow);
    return;
  }
  // The due tick is quantized once, here — cascades re-file by the
  // stored tick, never re-quantize, so the fire tick is exact.
  st.target = ticks_ + off;
  st.arm_seq = arm_count_++;
  file(flow, off);
  if (telem_.on()) t_wheel_flows_->record(wheel_count_);
  trace_queued(flow, wheel_count_);

  if (!wheel_tick_scheduled_) {
    wheel_tick_scheduled_ = true;
    ev_.schedule_in(params_.slot_granularity, [this, alive = alive_] {
      if (*alive) wheel_tick();
    });
  }
}

void TimingWheel::expire_or_cascade(std::uint32_t level, std::uint32_t slot) {
  const std::uint32_t idx = level * params_.slots_per_level + slot;
  // Detach the whole list first: re-filing during a cascade must not
  // walk flows it just re-inserted into this same slot.
  std::uint32_t f = slots_[idx].head;
  slots_[idx] = SlotList{};
  while (f != kNil) {
    Flow& st = flows_[f];
    const std::uint32_t next = st.next;
    st.prev = kNil;
    st.next = kNil;
    st.slot = kNil;
    st.in_wheel = false;
    --wheel_count_;
    if (level == 0) {
      ready_.push_back(f);  // queued stays true; due this tick
    } else {
      ++cascade_count_;
      if (telem_.on()) t_cascades_->inc();
      // off == 0 re-files into the current level-0 slot, which
      // wheel_tick expires right after the cascades.
      file(f, st.target > ticks_ ? st.target - ticks_ : 0);
    }
    f = next;
  }
}

void TimingWheel::wheel_tick() {
  wheel_tick_scheduled_ = false;
  ++ticks_;
  wheel_time_ += params_.slot_granularity;
  // Cascade every higher level whose period divides this tick, then
  // expire the level-0 slot that just came due. Cascaded flows due now
  // are merged into that slot in arm order with its natives.
  for (std::uint32_t k = 1; k < params_.levels; ++k) {
    if (ticks_ % stride_[k] != 0) break;
    expire_or_cascade(k, static_cast<std::uint32_t>(
                             (ticks_ / stride_[k]) &
                             (params_.slots_per_level - 1)));
  }
  expire_or_cascade(
      0, static_cast<std::uint32_t>(ticks_ & (params_.slots_per_level - 1)));
  if (trace::Ring* r = ev_.trace_ring()) {
    if (trace_name_tick_ != 0) {
      r->record(ev_.now(), trace::Phase::kInstant, trace_name_tick_,
                trace_track_, 0, wheel_count_);
    }
  }
  pump();
  if (wheel_count_ > 0 && !wheel_tick_scheduled_) {
    wheel_tick_scheduled_ = true;
    ev_.schedule_in(params_.slot_granularity, [this, alive = alive_] {
      if (*alive) wheel_tick();
    });
  }
}

void TimingWheel::pump() {
  if (service_scheduled_ || ready_.empty()) return;
  service_scheduled_ = true;
  const sim::TimePs at = std::max(ev_.now(), next_service_);
  next_service_ = at + params_.service_interval;
  ev_.schedule_at(at, [this, alive = alive_] {
    if (!*alive) return;
    service_scheduled_ = false;
    service_one();
    pump();
  });
}

void TimingWheel::service_one() {
  if (telem_.on()) {
    t_ready_depth_->record(ready_.size());
    t_flows_->set(static_cast<std::int64_t>(tracked_));
  }
  while (!ready_.empty()) {
    const FlowId flow = ready_.front();
    ready_.pop_front();
    Flow& st = flows_[flow];
    st.queued = false;
    // Close the queued-residency span (also for lazily-removed dead
    // flows, so every begin pairs).
    if (trace::Ring* r = ev_.trace_ring()) {
      if (trace_base_ != 0) {
        r->record(ev_.now(), trace::Phase::kAsyncEnd, trace_name_queued_,
                  trace_track_, trace_base_ | flow, ready_.size());
      }
    }
    if (st.dead || st.avail == 0) continue;

    ++trigger_count_;
    if (telem_.on()) t_triggers_->inc();
    const std::uint32_t sent = trigger_ ? trigger_(flow) : 0;
    if (trace::Ring* r = ev_.trace_ring()) {
      if (trace_base_ != 0) {
        r->record(ev_.now(), trace::Phase::kInstant, trace_name_trigger_,
                  trace_track_, trace_base_ | flow, sent);
      }
    }
    if (sent == 0) {
      // Blocked (window closed / pipeline full): park until the data-path
      // kicks us (window opened, data appended, reset).
      st.parked = true;
      if (telem_.on()) t_parked_->inc();
      return;
    }
    if (telem_.on()) t_tx_bytes_->inc(sent);
    st.avail -= std::min<std::uint64_t>(st.avail, sent);
    if (st.avail > 0) {
      if (st.ps_per_byte == 0) {
        enqueue_ready(flow);  // uncongested: round-robin
      } else {
        enqueue_wheel(flow, ev_.now() + st.ps_per_byte * sent);
      }
    }
    return;  // one trigger per service interval
  }
}

}  // namespace flextoe::sched
