// Data-path telemetry: a low-overhead counter/gauge/histogram registry
// for introspecting the *simulator's* pipeline — per-stage visit counts
// and latencies, per-FPC ring occupancy, per-flow-group traffic, DMA and
// scheduler activity, host context-queue depths, and a drop-reason
// taxonomy. Unlike the paper's in-band profiling extension (modelled by
// DatapathConfig::profiling, which charges every stage extra FPC cycles,
// Table 2), telemetry is out-of-band: recording costs zero simulated
// time, so an instrumented run is bit-identical to an uninstrumented one.
//
// Two toggles gate every record site:
//   * compile time — configure with -DFLEXTOE_TELEMETRY=OFF and
//     Registry::enabled() becomes constexpr false, letting the compiler
//     delete the instrumentation entirely;
//   * run time — Registry::set_enabled(false) (or the harness flag
//     --no-telemetry, which flips the process-wide default that new
//     registries inherit) short-circuits record sites to one branch.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (deque-backed), so instrumented code pays a name
// lookup once at bind time and a pointer bump per event thereafter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flextoe::telemetry {

// True when instrumentation is compiled in (FLEXTOE_TELEMETRY=ON, the
// default). The CMake OFF switch defines FLEXTOE_TELEMETRY_DISABLED.
#ifdef FLEXTOE_TELEMETRY_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

// Instantaneous level (may go negative transiently, e.g. merge deltas).
// Tracks its high-water mark: snapshots surface it as "<path>_peak", the
// honest companion to a level sampled only at snapshot time.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_ = v;
    if (v > peak_) peak_ = v;
  }
  void add(std::int64_t d) { set(v_ + d); }
  std::int64_t value() const { return v_; }
  std::int64_t peak() const { return peak_; }
  void reset() { v_ = peak_ = 0; }

 private:
  std::int64_t v_ = 0;
  std::int64_t peak_ = 0;
};

// Fixed-bucket log2 histogram: bucket 0 counts zeros, bucket i >= 1
// counts values in [2^(i-1), 2^i). 48 buckets cover the full range of
// nanosecond latencies and queue depths the simulator produces; FPCs
// lack floating point, and so does this histogram — everything is
// integer adds, the FlexTOE-idiomatic cost model for always-on stats.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }
  void reset() {
    buckets_.fill(0);
    count_ = sum_ = max_ = 0;
  }

  // Bucket index for a value: 0 for 0, else 1 + floor(log2 v), clamped.
  static std::size_t bucket_of(std::uint64_t v);
  // Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_floor(std::size_t b);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// ---------------------------------------------------------------------
// Snapshots: a registry's values frozen into plain data that can be
// merged across runs/nodes, serialized to JSON (the `telemetry` section
// of BENCH_<name>.json), and parsed back for diffing.

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> buckets;  // trailing zero buckets trimmed

  double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
  }
  // Approximate quantile (q in [0,1]) from the log2 buckets: the upper
  // bound of the bucket where the cumulative count crosses q.
  std::uint64_t quantile(double q) const;
};

struct Snapshot {
  bool enabled = false;  // was the source registry recording?
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Lookup by exact path; nullptr when absent.
  const std::uint64_t* counter(std::string_view path) const;
  const std::int64_t* gauge(std::string_view path) const;
  const HistogramData* histogram(std::string_view path) const;

  // Merge: counters and histogram buckets sum; gauges (levels, not
  // totals) and histogram max take the maximum; enabled ORs — so a
  // gauge like sched/flows reads as the peak across merged runs, not a
  // meaningless multiple. Both snapshots must
  // be sorted by path (every producer — snapshot(), from_json(),
  // merge() itself — maintains this), and the merged result stays
  // sorted, so output is deterministic and merging is linear.
  void merge(const Snapshot& other);

  // JSON object: {"enabled", "counters": {path: n}, "gauges": {...},
  // "histograms": {path: {"count","sum","max","buckets":[...]}}}.
  std::string to_json() const;
  // Parses exactly the shape to_json() emits (key order free). Returns
  // false and sets *err on malformed input.
  static bool from_json(std::string_view text, Snapshot* out,
                        std::string* err = nullptr);
};

// ---------------------------------------------------------------------
// Registry: named metrics with stable handles.

class Registry {
 public:
  Registry();  // starts enabled per default_enabled()

  // Finds or creates; the returned pointer is stable for the registry's
  // lifetime. Paths are '/'-separated taxonomies, e.g.
  // "stage/proto_rx/visits" or "drop/fpc_queue_full".
  Counter* counter(std::string_view path);
  Gauge* gauge(std::string_view path);
  Histogram* histogram(std::string_view path);

#ifdef FLEXTOE_TELEMETRY_DISABLED
  static constexpr bool enabled() { return false; }
#else
  bool enabled() const { return enabled_; }
#endif
  void set_enabled(bool on) { enabled_ = on; }

  std::size_t num_metrics() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Zeroes every value (registrations stay).
  void clear();

  // Freezes current values, sorted by path.
  Snapshot snapshot() const;

 private:
  template <typename T>
  struct Entry {
    std::string path;
    T metric;
  };

  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_by_name_;
  std::unordered_map<std::string, Gauge*> gauge_by_name_;
  std::unordered_map<std::string, Histogram*> histogram_by_name_;
  bool enabled_ = true;
};

// A component's handle to the registry it is bound to: idempotent
// bind-once (components shared between roles — e.g. the run-to-
// completion mode's single FPC — register their metrics exactly once)
// plus the cheap per-event enabled check.
class Binding {
 public:
  // True on first bind (the caller should register its metrics now);
  // false when already bound.
  bool bind(Registry& reg) {
    if (reg_ != nullptr) return false;
    reg_ = &reg;
    return true;
  }
  bool on() const { return reg_ != nullptr && reg_->enabled(); }

 private:
  Registry* reg_ = nullptr;
};

// Appends `s` as a quoted, escaped JSON string to `out` (shared by the
// snapshot serializer and the bench harness's report emitter).
void json_escape(std::string_view s, std::string* out);

// ---------------------------------------------------------------------
// Process-wide plumbing used by the bench harness.

// Default enabled state inherited by newly constructed registries (the
// harness flag --no-telemetry flips this before any testbed exists).
bool default_enabled();
void set_default_enabled(bool on);

// Global accumulator: app::Testbed merges every FlexTOE node's registry
// snapshot here on teardown, and benchx::bench_main() attaches the total
// to the report, so every BENCH_<name>.json carries the telemetry of all
// the data-paths the bench ran. Single-threaded, like the simulator.
const Snapshot& accumulator();
void accumulate(const Snapshot& s);
void reset_accumulator();

}  // namespace flextoe::telemetry
