// Segment-lifecycle tracing: per-domain flight recorders.
//
// Each sim::Domain owns one trace::Ring — a bounded, overwrite-oldest
// event buffer written only by the domain's executing thread (domains
// are single-threaded within an epoch, so rings need no atomics on the
// record path). The global Tracer registers rings, interns the string
// table, hands out causal-id namespaces, and collects drop post-mortems.
// tools/check_trace.py validates the merged Chrome-trace export
// (trace/export.hpp).
//
// Contract (mirrors telemetry/registry.hpp):
//   - `-DFLEXTOE_TRACE=OFF` compiles every record site away: enabled()
//     is constexpr false, Domain::trace_ring() folds to nullptr, and the
//     Tracer below collapses to inline no-op stubs (no trace/*.cpp is
//     built, and a symbol check in CI asserts the library stays clean).
//   - Runtime-disabled by default (the opposite of telemetry): goldens
//     stay byte-identical, and a cold record site costs one relaxed
//     atomic load + branch.
//   - Recording is out-of-band: it must never change simulated behavior,
//     only observe it. Record sites take the domain clock as an
//     argument; they never advance it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace flextoe::trace {

#ifdef FLEXTOE_TRACE_DISABLED
inline constexpr bool kCompiledIn = false;
// constexpr: `if (trace::enabled())` record sites are dead code the
// optimizer removes entirely.
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
// The one-branch runtime gate every record site goes through (via
// sim::Domain::trace_ring()).
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);
#endif

// Chrome trace-event phases we emit. Sync Begin/End nest and are used
// only for per-domain epoch windows (which cannot overlap within a
// domain); per-segment spans overlap freely so they use async
// begin/end pairs keyed by (category, causal id); flows draw the
// cross-domain hand-off arrows.
enum class Phase : std::uint8_t {
  kBegin,        // "B"  sync span open (epoch windows)
  kEnd,          // "E"  sync span close
  kAsyncBegin,   // "b"  async span open, paired by (cat, id)
  kAsyncEnd,     // "e"  async span close
  kInstant,      // "i"
  kFlowBegin,    // "s"  flow arrow tail (sending domain)
  kFlowEnd,      // "f"  flow arrow head (receiving domain)
};

// One recorded event. 32 bytes so a default ring (1<<15 slots) is 1 MiB
// per domain and a record is two cache lines touched at most.
struct Event {
  sim::TimePs t = 0;         // domain-local clock at the record site
  std::uint64_t cid = 0;     // causal / span-pairing id (0 = none)
  std::uint64_t arg = 0;     // site-specific payload (depth, bytes, ...)
  std::uint16_t name = 0;    // interned via Tracer::intern
  std::uint16_t track = 0;   // interned track ("stage/pre_rx", ...)
  Phase phase = Phase::kInstant;
  std::uint8_t pad_[3] = {};
};
static_assert(sizeof(Event) == 32, "Event must stay two per cache line");

// Flight-recorder ring: bounded, overwrite-oldest, single writer (the
// owning domain's thread). Readers (export, post-mortem) only run when
// the writer is quiesced: post-mortems on the writer thread itself,
// export after the scheduler joins its workers.
//
// Defined fully inline in BOTH build modes so guarded-but-dead record
// sites still compile at -O0 when tracing is compiled out.
class Ring {
 public:
  // `label` is the Tracer-assigned actor number: it keys the causal-id
  // namespace (make_cid) and the export pid, so ids stay unique across
  // concurrently simulated testbeds that reuse domain id 0.
  Ring(std::uint32_t domain_id, std::uint32_t label, std::size_t capacity)
      : domain_id_(domain_id),
        label_(label),
        actor_base_(static_cast<std::uint64_t>(label) << kSeqBits) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  void record(sim::TimePs t, Phase phase, std::uint16_t name,
              std::uint16_t track, std::uint64_t cid, std::uint64_t arg) {
    Event& e = buf_[head_++ & mask_];
    e.t = t;
    e.cid = cid;
    e.arg = arg;
    e.name = name;
    e.track = track;
    e.phase = phase;
  }

  // A fresh causal id in this ring's namespace: never 0, never collides
  // with another ring's ids or with Tracer::next_actor_base() ids.
  std::uint64_t make_cid() { return actor_base_ | ++cid_seq_; }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const {
    return head_ < buf_.size() ? static_cast<std::size_t>(head_)
                               : buf_.size();
  }
  // Events lost to overwrite (flight-recorder semantics).
  std::uint64_t overwritten() const {
    return head_ < buf_.size() ? 0 : head_ - buf_.size();
  }
  // i-th retained event, oldest first (0 <= i < size()).
  const Event& at(std::size_t i) const {
    return buf_[(head_ - size() + i) & mask_];
  }

  std::uint32_t domain_id() const { return domain_id_; }
  std::uint32_t label() const { return label_; }

  // Low 40 bits of a causal id are the per-actor sequence number; the
  // high bits are the actor label, so ids partition by minting ring.
  static constexpr unsigned kSeqBits = 40;

 private:
  std::vector<Event> buf_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;    // total events ever recorded
  std::uint64_t cid_seq_ = 0;
  std::uint32_t domain_id_;
  std::uint32_t label_;
  std::uint64_t actor_base_;
};

#ifndef FLEXTOE_TRACE_DISABLED

// Process-wide registrar: rings, the interned string table, actor-id
// namespaces and drop post-mortems. Mutex-guarded — it is touched on
// ring attach, string intern (cached by record sites), and drops, never
// on the per-event record path.
class Tracer {
 public:
  static Tracer& instance();

  // Create + retain a ring for a domain. The shared_ptr keeps the ring
  // alive for export even after the owning Domain (e.g. a destroyed
  // Testbed) is gone.
  std::shared_ptr<Ring> attach_ring(std::uint32_t domain_id);

  // Intern a string, returning its stable 16-bit id (0 = ""). The table
  // survives reset() because record sites cache ids for the process
  // lifetime. Returns 0 if the table is (implausibly) full.
  std::uint16_t intern(std::string_view s);
  std::string string(std::uint16_t id) const;
  std::vector<std::string> strings() const;

  // A causal-id namespace for non-domain actors (DMA engines, flow scheduler)
  // that pair their own begin/end events: base | local_seq is unique
  // process-wide for local_seq < 2^40.
  std::uint64_t next_actor_base();

  // Capacity (in events, rounded up to a power of two) for rings
  // attached after this call.
  void set_ring_capacity(std::size_t events);
  std::size_t ring_capacity() const;

  // Drop post-mortem: capture the last-K retained events touching
  // `victim` (cid match, or arg match for actor-paired sites) from the
  // dropping domain's own ring. Called on the ring's writer thread.
  struct PostMortem {
    std::string reason;        // drop-reason taxonomy name
    std::uint64_t victim = 0;  // causal id of the dropped segment
    sim::TimePs t = 0;         // drop time (domain-local)
    std::uint32_t domain_id = 0;
    std::uint32_t ring_label = 0;
    std::vector<Event> events;  // oldest first, at most postmortem_depth
  };
  void report_drop(const Ring& ring, std::uint64_t victim,
                   std::string_view reason, sim::TimePs t);
  void set_postmortem_depth(std::size_t k);
  std::size_t postmortem_depth() const;
  void set_postmortem_max_reports(std::size_t n);
  std::vector<PostMortem> postmortems() const;

  std::vector<std::shared_ptr<Ring>> rings() const;

  // Drop all rings, post-mortems and actor labels, and restore the
  // default post-mortem depth/cap (test isolation / a fresh capture).
  // Keeps the interned string table — record sites cache those ids.
  void reset();

 private:
  Tracer();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint16_t> index_;
  std::uint32_t next_label_ = 0;
  std::size_t ring_capacity_ = std::size_t{1} << 15;
  std::size_t pm_depth_ = 16;
  std::size_t pm_max_reports_ = 64;
  std::vector<PostMortem> pms_;
};

#else  // FLEXTOE_TRACE_DISABLED

// Compiled-out stub: same API, all inline no-ops, so call sites need no
// #ifdefs and the library links with zero trace object files.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }
  std::shared_ptr<Ring> attach_ring(std::uint32_t) { return nullptr; }
  std::uint16_t intern(std::string_view) { return 0; }
  std::string string(std::uint16_t) const { return {}; }
  std::vector<std::string> strings() const { return {}; }
  std::uint64_t next_actor_base() { return 0; }
  void set_ring_capacity(std::size_t) {}
  std::size_t ring_capacity() const { return 0; }
  struct PostMortem {
    std::string reason;
    std::uint64_t victim = 0;
    sim::TimePs t = 0;
    std::uint32_t domain_id = 0;
    std::uint32_t ring_label = 0;
    std::vector<Event> events;
  };
  void report_drop(const Ring&, std::uint64_t, std::string_view,
                   sim::TimePs) {}
  void set_postmortem_depth(std::size_t) {}
  std::size_t postmortem_depth() const { return 0; }
  void set_postmortem_max_reports(std::size_t) {}
  std::vector<PostMortem> postmortems() const { return {}; }
  std::vector<std::shared_ptr<Ring>> rings() const { return {}; }
  void reset() {}
};

#endif  // FLEXTOE_TRACE_DISABLED

}  // namespace flextoe::trace
