#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <sched.h>

#include "core/batch.hpp"
#include "sim/domain.hpp"
#include "sim/stats.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace flextoe::benchx {

// ---------------------------------------------------------------------
// Command line.

std::string usage(const std::string& prog) {
  return "usage: " + prog +
         " [--list] [--filter <substr>] [--quick] [--repeats N]"
         " [--seed S] [--threads N] [--batch N] [--tap NAME]"
         " [--json <path>] [--no-telemetry] [--trace <path>]\n"
         "  --list          print scenario ids and exit\n"
         "  --filter S      run only scenarios whose id contains S\n"
         "  --quick         shrink sweeps and simulated spans (smoke mode)\n"
         "  --repeats N     repeat scalar measurements N times, report "
         "means\n"
         "                  (distribution/table scenarios are single-run)\n"
         "  --seed S        shift every scenario's simulation seeds by S\n"
         "                  (default 0: the reproducible baseline run)\n"
         "  --threads N     worker threads for parallel simulation\n"
         "                  (default 1; results identical at any N)\n"
         "  --batch N       dispatch burst size for the stage graph\n"
         "                  (default 32; results identical at any N)\n"
         "  --tap NAME      attach a monitor tap to scenario SUTs\n"
         "                  (NAME: sketch — count-min flow monitor)\n"
         "  --json PATH     also write the report as JSON to PATH\n"
         "  --no-telemetry  disable data-path introspection counters\n"
         "                  (the report's telemetry section comes out "
         "empty)\n"
         "  --trace PATH    record segment-lifecycle flight recorders and\n"
         "                  write the merged Chrome/Perfetto trace JSON\n"
         "                  to PATH (load it at ui.perfetto.dev)\n";
}

bool parse_args(int argc, const char* const* argv, Options* opts,
                std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        *err = std::string(flag) + " requires an argument";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--quick") {
      opts->quick = true;
    } else if (a == "--no-telemetry") {
      opts->telemetry = false;
    } else if (a == "--list") {
      opts->list_only = true;
    } else if (a == "--filter") {
      const char* v = value("--filter");
      if (!v) return false;
      opts->filter = v;
    } else if (a == "--json") {
      const char* v = value("--json");
      if (!v) return false;
      opts->json_path = v;
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (!v) return false;
      opts->trace_path = v;
    } else if (a == "--repeats") {
      const char* v = value("--repeats");
      if (!v) return false;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 1 || n > 1000000) {
        *err = "--repeats expects a positive integer, got '" +
               std::string(v) + "'";
        return false;
      }
      opts->repeats = static_cast<int>(n);
    } else if (a == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0' || *v == '-') {
        *err = "--seed expects a non-negative integer, got '" +
               std::string(v) + "'";
        return false;
      }
      opts->seed = static_cast<std::uint64_t>(n);
    } else if (a == "--threads") {
      const char* v = value("--threads");
      if (!v) return false;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 1 || n > 1024) {
        *err = "--threads expects a positive integer, got '" +
               std::string(v) + "'";
        return false;
      }
      opts->threads = static_cast<int>(n);
    } else if (a == "--batch") {
      const char* v = value("--batch");
      if (!v) return false;
      char* end = nullptr;
      const long n = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || n < 1 ||
          n > static_cast<long>(core::kMaxBurst)) {
        *err = "--batch expects an integer in [1, " +
               std::to_string(core::kMaxBurst) + "], got '" +
               std::string(v) + "'";
        return false;
      }
      opts->batch = static_cast<int>(n);
    } else if (a == "--tap") {
      const char* v = value("--tap");
      if (!v) return false;
      if (std::string(v) != "sketch") {
        *err = "--tap expects a known tap name (sketch), got '" +
               std::string(v) + "'";
        return false;
      }
      opts->tap = v;
    } else if (a == "--help" || a == "-h") {
      *err = "";
      return false;
    } else {
      *err = "unknown flag '" + a + "'";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Repeat/percentile helpers.

RepeatStats run_repeated(int repeats, const std::function<double(int)>& fn,
                         int warmup) {
  for (int i = 0; i < warmup; ++i) (void)fn(i);
  sim::Percentiles acc;
  for (int i = 0; i < repeats; ++i) acc.add(fn(warmup + i));
  RepeatStats st;
  st.n = acc.count();
  if (st.n == 0) return st;
  st.mean = acc.mean();
  st.p50 = acc.percentile(50);
  st.p99 = acc.percentile(99);
  st.min = acc.min();
  st.max = acc.max();
  return st;
}

double percentile(const std::vector<double>& xs, double p) {
  sim::Percentiles acc;
  for (double x : xs) acc.add(x);
  return acc.percentile(p);
}

double effective_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  double cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                    ? static_cast<double>(CPU_COUNT(&set))
                    : 1.0;
  // cgroup v2 quota: "<quota> <period>" in microseconds, or "max ...".
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if ((in >> quota >> period) && quota != "max" && period > 0) {
    cpus = std::min(cpus, std::atof(quota.c_str()) / period);
  }
  return cpus;
}

// ---------------------------------------------------------------------
// Results model.

void Row::set(const std::string& key, double v) {
  for (auto& kv : values) {
    if (kv.first == key) {
      kv.second = v;
      return;
    }
  }
  values.emplace_back(key, v);
}

const double* Row::find(const std::string& key) const {
  for (const auto& kv : values) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

Row& Series::row(const std::string& label) {
  for (auto& r : rows_) {
    if (r.label == label) return r;
  }
  rows_.push_back(Row{label, {}});
  return rows_.back();
}

void Series::set(const std::string& label, const std::string& key,
                 double v) {
  row(label).set(key, v);
}

Series& Report::series(const std::string& name) {
  for (auto& s : series_) {
    if (s.name() == name) return s;
  }
  series_.emplace_back(name);
  return series_.back();
}

const Series* Report::find_series(const std::string& name) const {
  for (const auto& s : series_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

void Report::note(std::string text) {
  for (const auto& n : notes_) {
    if (n == text) return;
  }
  notes_.push_back(std::move(text));
}

namespace {

constexpr int kCellWidth = 14;

void print_rule(std::size_t cols) {
  for (std::size_t i = 0; i < cols; ++i) std::printf("%*s", kCellWidth, "------");
  std::printf("\n");
}

void print_cell_str(const std::string& v) {
  std::printf("%*s", kCellWidth, v.c_str());
}

void print_cell_num(double v) {
  // Enough precision for Gbps/us/ratios without drowning small values.
  const double a = std::fabs(v);
  const int prec = (a != 0 && a < 0.1) ? 4 : (a < 100 ? 3 : (a < 10000 ? 1 : 0));
  std::printf("%*.*f", kCellWidth, prec, v);
}

// True when the report can print as one rows x series pivot table: every
// series has single-valued rows, all with the same value key, and shares
// the label sequence of the first series.
bool pivotable(const std::deque<Series>& series) {
  if (series.size() < 2) return false;
  const auto& ref = series.front().rows();
  if (ref.empty()) return false;
  std::string key;
  for (const auto& s : series) {
    const auto& rows = s.rows();
    if (rows.size() != ref.size()) return false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].label != ref[i].label) return false;
      if (rows[i].values.size() != 1) return false;
      if (key.empty()) key = rows[i].values[0].first;
      if (rows[i].values[0].first != key) return false;
    }
  }
  return true;
}

}  // namespace

void Report::print_text() const {
  if (pivotable(series_)) {
    const std::string key = series_.front().rows()[0].values[0].first;
    std::printf("\n=== %s (%s) ===\n", bench_.c_str(), key.c_str());
    print_cell_str("");
    for (const auto& s : series_) print_cell_str(s.name());
    std::printf("\n");
    print_rule(series_.size() + 1);
    for (std::size_t i = 0; i < series_.front().rows().size(); ++i) {
      print_cell_str(series_.front().rows()[i].label);
      for (const auto& s : series_) print_cell_num(s.rows()[i].values[0].second);
      std::printf("\n");
    }
  } else {
    for (const auto& s : series_) {
      // Column set: union of value keys in first-seen order.
      std::vector<std::string> keys;
      for (const auto& r : s.rows()) {
        for (const auto& kv : r.values) {
          if (std::find(keys.begin(), keys.end(), kv.first) == keys.end()) {
            keys.push_back(kv.first);
          }
        }
      }
      std::printf("\n=== %s ===\n", s.name().c_str());
      print_cell_str("");
      for (const auto& k : keys) print_cell_str(k);
      std::printf("\n");
      print_rule(keys.size() + 1);
      for (const auto& r : s.rows()) {
        print_cell_str(r.label);
        for (const auto& k : keys) {
          const double* v = r.find(k);
          if (v) {
            print_cell_num(*v);
          } else {
            print_cell_str("-");
          }
        }
        std::printf("\n");
      }
    }
  }
  for (const auto& n : notes_) std::printf("\n%s\n", n.c_str());
}

namespace {

// String escaping is shared with the telemetry snapshot serializer so
// the two JSON emitters in one document cannot drift.
using telemetry::json_escape;

void json_number(double v, std::string* out) {
  if (!std::isfinite(v)) {
    *out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out;
  out += "{\n  \"bench\": ";
  json_escape(bench_, &out);
  out += ",\n  \"quick\": ";
  out += opts_.quick ? "true" : "false";
  out += ",\n  \"repeats\": " + std::to_string(opts_.repeats);
  out += ",\n  \"seed\": " + std::to_string(opts_.seed);
  out += ",\n  \"threads\": " + std::to_string(opts_.threads);
  // Reproducibility header: what produced this document. Golden diffs
  // excise this block (check_golden.py), so it can vary freely.
#ifndef FLEXTOE_GIT_SHA
#define FLEXTOE_GIT_SHA "unknown"
#endif
#ifndef FLEXTOE_BUILD_TYPE
#define FLEXTOE_BUILD_TYPE "unknown"
#endif
  out += ",\n  \"config\": {\"git_sha\": ";
  json_escape(FLEXTOE_GIT_SHA, &out);
  out += ", \"build_type\": ";
  json_escape(FLEXTOE_BUILD_TYPE, &out);
  out += ", \"telemetry_compiled\": ";
  out += telemetry::kCompiledIn ? "true" : "false";
  out += ", \"trace_compiled\": ";
  out += trace::kCompiledIn ? "true" : "false";
  // Effective dispatch burst size (--batch). Lives in the excised
  // config block: batching never changes results, so it must never
  // break golden comparisons either.
  out += ", \"batch\": " +
         std::to_string(core::resolve_batch(
             opts_.batch > 0 ? static_cast<unsigned>(opts_.batch) : 0));
  out += "}";
  out += ",\n  \"series\": [";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    const auto& s = series_[si];
    out += si ? ",\n    {" : "\n    {";
    out += "\"name\": ";
    json_escape(s.name(), &out);
    out += ", \"rows\": [";
    const auto& rows = s.rows();
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      out += ri ? ",\n      {" : "\n      {";
      out += "\"label\": ";
      json_escape(rows[ri].label, &out);
      out += ", \"values\": {";
      for (std::size_t vi = 0; vi < rows[ri].values.size(); ++vi) {
        if (vi) out += ", ";
        json_escape(rows[ri].values[vi].first, &out);
        out += ": ";
        json_number(rows[ri].values[vi].second, &out);
      }
      out += "}}";
    }
    out += rows.empty() ? "]}" : "\n    ]}";
  }
  out += series_.empty() ? "]" : "\n  ]";
  out += ",\n  \"telemetry\": " + telem_.to_json();
  out += ",\n  \"notes\": [";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i) out += ", ";
    json_escape(notes_[i], &out);
  }
  out += "]\n}\n";
  return out;
}

bool Report::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = to_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------------
// Registry and driver.

unsigned ScenarioCtx::batch() const {
  return core::resolve_batch(
      opts_.batch > 0 ? static_cast<unsigned>(opts_.batch) : 0);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

int run_scenarios(const Options& opts, Report& report) {
  int run = 0;
  for (const auto& sc : Registry::instance().scenarios()) {
    if (!opts.filter.empty() &&
        sc.id.find(opts.filter) == std::string::npos) {
      continue;
    }
    ScenarioCtx ctx(opts, report);
    sc.fn(ctx);
    ++run;
  }
  return run;
}

namespace {

std::string basename_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base.empty() ? "bench" : base;
}

}  // namespace

int bench_main(int argc, const char* const* argv) {
  const std::string prog = argc > 0 ? argv[0] : "bench";
  const std::string name = basename_stem(prog);

  Options opts;
  std::string err;
  if (!parse_args(argc, argv, &opts, &err)) {
    if (!err.empty()) std::fprintf(stderr, "%s: %s\n", name.c_str(), err.c_str());
    std::fputs(usage(name).c_str(), err.empty() ? stdout : stderr);
    return err.empty() ? 0 : 2;
  }

  if (opts.list_only) {
    for (const auto& sc : Registry::instance().scenarios()) {
      std::printf("%-24s %s\n", sc.id.c_str(), sc.title.c_str());
    }
    return 0;
  }

  // Runtime telemetry default for every registry the scenarios create;
  // the accumulator gathers each testbed's snapshot on teardown.
  telemetry::set_default_enabled(opts.telemetry);
  telemetry::reset_accumulator();
  if (!opts.trace_path.empty()) {
    if (!trace::kCompiledIn) {
      std::fprintf(stderr,
                   "%s: --trace ignored: tracing compiled out "
                   "(FLEXTOE_TRACE=OFF)\n",
                   name.c_str());
    }
    trace::set_enabled(true);
  }
  // Worker budget for DomainScheduler / run_scenario_batch users.
  sim::set_default_sim_threads(static_cast<unsigned>(opts.threads));
  // Dispatch burst size for every datapath the scenarios build.
  core::set_default_batch_size(
      opts.batch > 0 ? static_cast<unsigned>(opts.batch) : 0);

  Report report(name, opts);
  const int n = run_scenarios(opts, report);
  if (n == 0) {
    std::fprintf(stderr, "%s: no scenario matches --filter '%s'\n",
                 name.c_str(), opts.filter.c_str());
    return 2;
  }
  report.merge_telemetry(telemetry::accumulator());
  report.print_text();

  if (!opts.json_path.empty()) {
    if (!report.write_json(opts.json_path)) {
      std::fprintf(stderr, "%s: cannot write JSON to %s\n", name.c_str(),
                   opts.json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", opts.json_path.c_str());
  }

  if (!opts.trace_path.empty() && trace::kCompiledIn) {
    if (!trace::write_chrome_trace(opts.trace_path)) {
      std::fprintf(stderr, "%s: cannot write trace to %s\n", name.c_str(),
                   opts.trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", opts.trace_path.c_str());
  }
  return 0;
}

}  // namespace flextoe::benchx
