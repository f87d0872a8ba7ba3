// Flow scheduler (paper §3.4, Fig 5): the SCH module that decides
// which flow transmits next, as a hierarchical timing wheel.
//
//   FS updates (data appended, window opened, rate programmed)
//     -> {avail, ps_per_byte} -> uncongested? -> [ready queue] -+
//                             -> rate-limited? -> [wheel] ------+
//                                 (slot = next deadline; expires  |
//                                  back into the ready queue)    v
//                    trigger(flow) -> pre-TX, one per service interval
//
// Uncongested flows bypass the rate limiter and are served round-robin
// (work conserving); rate-limited flows are armed at their next pacing
// deadline, as in the Carousel design the paper follows. A flow whose
// trigger reports blocked (window closed, pipeline back-pressure) parks
// until the data-path kicks it. Rates arrive as bytes/s and are turned
// into picoseconds-per-byte intervals once, in set_rate — the NFP-4000
// has no division, so the control plane does it and the scheduler only
// multiplies (paper §4).
//
// Flows live in a flat vector indexed by FlowId (dense connection ids:
// no hashing, no node allocation); pacing deadlines are armed into
// cascading wheel levels — level k spans slots_per_level^k level-0
// slots, so the horizon grows geometrically while arm and cancel stay
// O(1):
//
//   arm     — index math + intrusive doubly-linked slot push (the
//             per-flow next/prev fields ARE the queue: no allocation)
//   cancel  — unlink from the resident slot in O(1), so a later revival
//             re-arms cleanly
//   tick    — one event per slot granularity while the wheel is
//             non-empty; a level-k cascade runs every S^k ticks and
//             re-files its slot by remaining delta
//
// Deadlines are quantized to the slot granularity once, at arm time;
// flows due on the same tick fire in arm order, whichever level they
// were filed at. Flows cancelled while in the ready queue are skipped
// lazily at service time.
// tests/sched/timing_wheel_test.cc differential-tests the (time, flow)
// trigger sequence against a sorted-multimap reference scheduler.
// Activity is observable through bind_telemetry (sched/* taxonomy, see
// ARCHITECTURE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/domain.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace flextoe::sched {

struct TimingWheelParams {
  sim::TimePs slot_granularity = sim::us(1);
  std::uint32_t slots_per_level = 256;  // power of two
  std::uint32_t levels = 4;  // horizon = g * S^levels (~4.6 ks at defaults)
  // Service interval of the SCH module (one TX trigger per interval).
  sim::TimePs service_interval = sim::ns(45);
  // Rates at or above this (bytes/s) bypass the rate limiter.
  std::uint64_t uncongested_rate = 100'000'000'000ull / 8;
};

class TimingWheel {
 public:
  using FlowId = std::uint32_t;
  // Asks the data-path to transmit one segment for `flow`; returns the
  // number of payload bytes queued for transmission (0 = blocked).
  using TxTrigger = std::function<std::uint32_t(FlowId)>;

  TimingWheel(sim::Domain& ev, TimingWheelParams params = {});
  ~TimingWheel() { *alive_ = false; }
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  void set_trigger(TxTrigger t) { trigger_ = std::move(t); }
  // Programs the pacing interval for a flow (0 or >= uncongested_rate
  // selects the round-robin bypass).
  void set_rate(FlowId flow, std::uint64_t bytes_per_sec);
  // Data-path FS updates: flow has (at least) `avail` bytes to send.
  void update_avail(FlowId flow, std::uint64_t avail);
  void add_avail(FlowId flow, std::uint64_t delta);
  // Re-arms a flow that previously reported blocked (window opened).
  void kick(FlowId flow);
  void remove_flow(FlowId flow);

  std::uint64_t triggers() const { return trigger_count_; }
  std::size_t flows_tracked() const { return tracked_; }
  // Memory held for per-flow state (bytes), for the bytes-per-conn
  // audit alongside core::FlowTable::bytes_reserved().
  std::size_t footprint_bytes() const;
  // Registers trigger/byte/park/cascade counters, ready-queue and wheel
  // occupancy histograms, and a tracked-flow gauge under `prefix`.
  void bind_telemetry(telemetry::Registry& reg, const std::string& prefix);

  // Introspection (tests).
  std::size_t wheel_resident() const { return wheel_count_; }
  std::uint64_t cascades() const { return cascade_count_; }
  const TimingWheelParams& params() const { return params_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;

  struct Flow {
    std::uint64_t avail = 0;
    sim::TimePs ps_per_byte = 0;  // 0 = uncongested (round-robin)
    std::uint64_t target = 0;     // absolute due tick; wheel-resident only
    std::uint32_t next = kNil;    // intrusive slot-list links
    std::uint32_t prev = kNil;
    std::uint32_t slot = kNil;    // level * slots_per_level + slot index
    std::uint32_t arm_seq = 0;    // arm order (wraps; compared by delta)
    bool touched = false;         // ever referenced (flows_tracked)
    bool in_wheel = false;
    bool queued = false;  // in ready queue or wheel
    bool parked = false;  // blocked (window closed); needs a kick
    bool dead = false;
  };

  struct SlotList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  Flow& touch(FlowId flow);
  void enqueue_ready(FlowId flow);
  void enqueue_wheel(FlowId flow, sim::TimePs deadline);
  // Files `flow` `off` level-0 granules ahead of the current tick.
  void file(FlowId flow, std::uint64_t off);
  void unlink(FlowId flow);
  void expire_or_cascade(std::uint32_t level, std::uint32_t slot);
  void wheel_tick();
  void pump();
  void service_one();
  void trace_queued(FlowId flow, std::uint64_t arg);

  sim::Domain& ev_;
  TimingWheelParams params_;
  // Destruction sentinel: tick/service events already scheduled must
  // become no-ops once the scheduler is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  TxTrigger trigger_;

  std::vector<Flow> flows_;     // indexed by FlowId
  std::size_t tracked_ = 0;     // flows ever touched
  std::deque<FlowId> ready_;
  std::vector<SlotList> slots_;      // levels * slots_per_level
  std::vector<std::uint64_t> stride_;  // stride_[k] = S^k (level-0 granules)
  std::uint64_t ticks_ = 0;          // level-0 ticks executed since anchor
  sim::TimePs wheel_time_ = 0;       // time of the last tick (anchor grid)
  std::size_t wheel_count_ = 0;      // wheel-resident flows
  std::uint64_t cascade_count_ = 0;
  std::uint32_t arm_count_ = 0;
  bool wheel_tick_scheduled_ = false;
  bool service_scheduled_ = false;
  sim::TimePs next_service_ = 0;
  std::uint64_t trigger_count_ = 0;

  telemetry::Binding telem_;
  telemetry::Counter* t_triggers_ = nullptr;
  telemetry::Counter* t_tx_bytes_ = nullptr;
  telemetry::Counter* t_parked_ = nullptr;
  telemetry::Counter* t_cascades_ = nullptr;
  telemetry::Histogram* t_ready_depth_ = nullptr;
  telemetry::Histogram* t_wheel_flows_ = nullptr;
  telemetry::Gauge* t_flows_ = nullptr;

  // Trace ids (trace/trace.hpp), resolved on first traced event; the
  // queued-residency span pairs by trace_base_ | flow (valid because
  // `queued` guarantees at most one residency per flow at a time).
  std::uint64_t trace_base_ = 0;
  std::uint16_t trace_track_ = 0;  // "sched/wheel"
  std::uint16_t trace_name_queued_ = 0;
  std::uint16_t trace_name_trigger_ = 0;
  std::uint16_t trace_name_tick_ = 0;
};

}  // namespace flextoe::sched
