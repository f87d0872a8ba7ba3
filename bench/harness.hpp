// Benchmark harness shared by every bench binary. A bench file defines
// one or more scenarios with BENCH_SCENARIO(); the harness supplies the
// main() driver (harness_main.cpp), command-line handling, warmup/repeat
// loops, and output:
//
//   fig10_rpc_throughput [--list] [--filter <substr>] [--quick]
//                        [--repeats N] [--json <path>] [--no-telemetry]
//
// Results accumulate in a Report as named series of labeled rows; the
// report prints fixed-width tables and, with --json, emits
// BENCH_<name>.json (series name -> rows of labeled doubles, plus a
// `telemetry` section aggregating the data-path introspection counters
// of every testbed the bench ran — see EXPERIMENTS.md for the schema)
// so the perf trajectory of later PRs can be recorded and diffed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"

namespace flextoe::benchx {

// ---------------------------------------------------------------------
// Command line.

struct Options {
  bool quick = false;   // shrink sweeps/spans for smoke runs
  int repeats = 1;      // measurement repetitions per data point
  bool list_only = false;
  std::string filter;     // substring match on scenario id
  std::string json_path;  // empty = no JSON emission
  // --trace: enable the segment-lifecycle flight recorders for the run
  // and export the merged Chrome/Perfetto trace JSON here afterwards.
  std::string trace_path;  // empty = tracing stays off
  // Base seed offset mixed into every scenario's simulation seeds
  // (--seed); 0 reproduces the default run, other values measure
  // seed-to-seed variance.
  std::uint64_t seed = 0;
  // --no-telemetry: disable data-path introspection recording at run
  // time (the registry stays registered; counters just stop moving).
  bool telemetry = true;
  // --threads: worker-thread budget for parallel simulation (the
  // DomainScheduler and workload::run_scenario_batch). 1 = fully
  // sequential, the deterministic baseline; results are identical at
  // any setting (see sim/domain.hpp).
  int threads = 1;
  // --batch: burst size for batched stage dispatch (core/batch.hpp).
  // 0 = the built-in default (32). A host-side dispatch knob: simulated
  // results are identical at any setting.
  int batch = 0;
  // --tap: attach a named monitor tap to every scenario SUT's stage
  // graph ("sketch" = the count-min flow monitor on the Steer edge).
  // Empty = no tap (the default; taps are runtime-off like tracing).
  std::string tap;
};

// Parses argv. Returns false and sets *err on bad usage.
bool parse_args(int argc, const char* const* argv, Options* opts,
                std::string* err);

// Usage string for --help / errors.
std::string usage(const std::string& prog);

// ---------------------------------------------------------------------
// Repeat/percentile helpers (built on sim::Percentiles).

struct RepeatStats {
  double mean = 0, p50 = 0, p99 = 0, min = 0, max = 0;
  std::size_t n = 0;
};

// Runs `fn(rep)` `warmup` times discarding the result, then `repeats`
// times collecting them. `rep` counts 0..warmup+repeats-1 so scenarios
// can derandomize per-repetition seeds.
RepeatStats run_repeated(int repeats, const std::function<double(int rep)>& fn,
                         int warmup = 0);

// Exact percentile of a sample set (p in [0, 100]); 0 when empty.
double percentile(const std::vector<double>& xs, double p);

// CPUs this process may use: its sched_getaffinity mask, capped by the
// cgroup v2 CPU quota (`cpu.max`). May be fractional; differs from
// std::thread::hardware_concurrency() whenever the host is shared.
double effective_cpus();

// ---------------------------------------------------------------------
// Results model: Report -> Series -> Row.

// One labeled row of named doubles, e.g. label "32" with
// {"gbps": 12.3}. Value order is preserved for printing.
struct Row {
  std::string label;
  std::vector<std::pair<std::string, double>> values;

  void set(const std::string& key, double v);
  // Returns nullptr when absent.
  const double* find(const std::string& key) const;
};

// One series of a figure (a plotted line, e.g. "Linux") or one block of
// a table. Rows live in a deque so references from row() stay valid as
// more rows are added.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::deque<Row>& rows() const { return rows_; }

  // Finds or creates the row with this label (insertion order kept).
  // The reference stays valid for the lifetime of the Series.
  Row& row(const std::string& label);
  // Shorthand: row(label).set(key, v).
  void set(const std::string& label, const std::string& key, double v);

 private:
  std::string name_;
  std::deque<Row> rows_;
};

class Report {
 public:
  Report(std::string bench, Options opts)
      : bench_(std::move(bench)), opts_(std::move(opts)) {}

  const std::string& bench() const { return bench_; }
  const Options& options() const { return opts_; }

  // Finds or creates a series by name. The reference stays valid for
  // the lifetime of the Report (series are deque-backed).
  Series& series(const std::string& name);
  const std::deque<Series>& all_series() const { return series_; }
  const Series* find_series(const std::string& name) const;

  // Free-form footnotes ("Paper shape: ..."). Exact duplicates are
  // dropped so scenarios sharing a note can each attach it and remain
  // individually runnable under --filter.
  void note(std::string text);
  const std::vector<std::string>& notes() const { return notes_; }

  // Telemetry attached to the report (additively merged; bench_main
  // merges the process-wide accumulator here after all scenarios ran).
  void merge_telemetry(const telemetry::Snapshot& s) { telem_.merge(s); }
  const telemetry::Snapshot& telemetry() const { return telem_; }

  // Fixed-width tables on stdout. Series that share row labels and have
  // single-valued rows are pivoted into one table (rows x series), the
  // layout of the paper's figures; everything else prints per series.
  void print_text() const;

  // JSON document: {"bench", "quick", "repeats", "seed", "threads",
  // "config": {...}, "series": [...], "telemetry": {...}, "notes":
  // [...]}. The "config" block is the reproducibility header (git SHA,
  // build type, compiled-in instrumentation); tools/check_golden.py
  // excises it before diffing, so it never breaks golden comparisons.
  std::string to_json() const;
  // Returns false if the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::string bench_;
  Options opts_;
  std::deque<Series> series_;
  std::vector<std::string> notes_;
  telemetry::Snapshot telem_;
};

// ---------------------------------------------------------------------
// Scenario registry.

class ScenarioCtx {
 public:
  ScenarioCtx(const Options& opts, Report& report)
      : opts_(opts), report_(report) {}

  const Options& opts() const { return opts_; }
  bool quick() const { return opts_.quick; }
  Report& report() { return report_; }

  // Full-size or quick-mode variant of a sweep parameter.
  template <typename T>
  T pick(T full, T quick_v) const {
    return opts_.quick ? quick_v : full;
  }

  // Simulation seed for a data point: the scenario's base constant
  // shifted by --seed, so perf runs are reproducible by default and
  // variance is measurable across harness seeds.
  std::uint64_t seed(std::uint64_t base) const { return base + opts_.seed; }

  // Worker-thread budget (--threads) for scenarios that run parallel
  // simulations or batches.
  int threads() const { return opts_.threads; }

  // Effective dispatch burst size (--batch, resolved through
  // core/batch.hpp's process default).
  unsigned batch() const;

  // Mean over `--repeats` runs of a scalar measurement; `rep` feeds
  // per-repetition seeds.
  double measure(const std::function<double(int rep)>& run) const {
    return run_repeated(opts_.repeats, run).mean;
  }

 private:
  const Options& opts_;
  Report& report_;
};

using ScenarioFn = std::function<void(ScenarioCtx&)>;

struct Scenario {
  std::string id;     // selection key for --filter
  std::string title;  // human description
  ScenarioFn fn;
};

class Registry {
 public:
  static Registry& instance();
  void add(Scenario s) { scenarios_.push_back(std::move(s)); }
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

 private:
  std::vector<Scenario> scenarios_;
};

struct ScenarioRegistrar {
  ScenarioRegistrar(const char* id, const char* title, ScenarioFn fn) {
    Registry::instance().add({id, title, std::move(fn)});
  }
};

#define BENCH_SCENARIO(ident, title)                                       \
  static void bench_scenario_##ident(::flextoe::benchx::ScenarioCtx& ctx); \
  static const ::flextoe::benchx::ScenarioRegistrar bench_reg_##ident(     \
      #ident, title, &bench_scenario_##ident);                             \
  static void bench_scenario_##ident(::flextoe::benchx::ScenarioCtx& ctx)

// Runs every registered scenario whose id contains `opts.filter` into
// `report`. Returns the number of scenarios run.
int run_scenarios(const Options& opts, Report& report);

// Full driver used by harness_main.cpp: parse args, run, print,
// optionally write BENCH_<name>.json (name = basename of argv[0]).
int bench_main(int argc, const char* const* argv);

}  // namespace flextoe::benchx
