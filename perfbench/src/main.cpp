// perfbench_runner: runs one benchmark workload in this process and
// prints one JSON object per line:
//   {"kind":"env", ...}        build type and thread count
//   {"kind":"reference", ...}  workload::run_scenario on the same spec
//                              and seed (the library's own answer)
//   {"kind":"repeat", ...}     one set-up + measured span, repeated until
//                              --seconds of wall time have passed
//   {"kind":"end", ...}        peak resident set
// perfbench/run.py builds this program, runs it, checks the modelled
// outputs for agreement and folds the repeats into the metrics.
//
//   perfbench_runner --workload small_rpc --seed 0 --seconds 10 --trace 0
//       [--quick] [--perturb-reference] [--spans-out PATH]
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "layer_trace.hpp"
#include "sim/domain.hpp"
#include "testbed_run.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  bool perturb_reference = false;
  std::string spans_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S "
               "--trace 0|1 [--quick] [--perturb-reference] "
               "[--spans-out PATH]\n");
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--quick") {
      a->quick = true;
    } else if (k == "--perturb-reference") {
      a->perturb_reference = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a->workload = argv[++i];
    } else if (k == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a->trace = std::string(argv[++i]) == "1";
    } else if (k == "--spans-out") {
      a->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

// Text that reads back as exactly the same double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string num(std::uint64_t v) { return std::to_string(v); }

// Snapshot::to_json() spreads over lines; the output is one line per
// object.
std::string one_line(std::string json) {
  std::erase(json, '\n');
  return json;
}

// The fields run_scenario reports, shared by reference and repeat lines.
std::string scenario_fields(const workload::ScenarioResult& r) {
  return "\"completed\":" + num(r.completed) +
         ",\"sim_rps\":" + num(r.throughput_rps) +
         ",\"sim_goodput_gbps\":" + num(r.server_rx_gbps) +
         ",\"client_rx_gbps\":" + num(r.client_rx_gbps) +
         ",\"sim_p50_us\":" + num(r.p50_us) +
         ",\"sim_p99_us\":" + num(r.p99_us) +
         ",\"p9999_us\":" + num(r.p9999_us) + ",\"jfi\":" + num(r.jfi) +
         ",\"connected\":" + num(std::uint64_t(r.connected)) +
         ",\"reconnects\":" + num(r.reconnects) +
         ",\"overload_drops\":" + num(r.overload_drops) +
         ",\"telemetry\":" + one_line(r.telemetry.to_json());
}

void print_repeat(int index, bool traced, double setup_s,
                  const SpanResult& r, const SpanRecorder* rec) {
  std::string s = "{\"kind\":\"repeat\",\"index\":" + std::to_string(index) +
                  ",\"traced\":" + (traced ? "true" : "false") +
                  ",\"setup_s\":" + num(setup_s) +
                  ",\"span_wall_s\":" + num(r.span_wall_s) +
                  ",\"cpu_user_s\":" + num(r.cpu_user_s) +
                  ",\"cpu_sys_s\":" + num(r.cpu_sys_s) +
                  ",\"minflt\":" + num(r.minflt) +
                  ",\"connects\":" + num(r.connects) +
                  ",\"pending_peak\":" + num(r.pending_peak) +
                  ",\"windows\":[";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const auto& w = r.windows[i];
    s += std::string(i ? "," : "") + "[" + num(w.wall_s) + "," +
         num(w.cpu_s) + "," + num(w.pkts) + "]";
  }
  s += "]";
  s += ",\"modelled\":{" + scenario_fields(r.result) +
       ",\"latency_samples\":" + num(r.latency_samples) +
       ",\"sim.events\":" + num(r.events) + ",\"net.pkts\":" + num(r.pkts) +
       ",\"net.drops\":" + num(r.drops) +
       ",\"core.rx_segments\":" + num(r.rx_segments) +
       ",\"core.tx_segments\":" + num(r.tx_segments) +
       ",\"core.acks\":" + num(r.acks) +
       ",\"core.to_control\":" + num(r.to_control) +
       ",\"core.fast_retransmits\":" + num(r.fast_retransmits) +
       ",\"core.ooo_segments\":" + num(r.ooo_segments) + "}";
  if (rec != nullptr) {
    s += ",\"spans\":{";
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      const auto& t = rec->totals()[k];
      s += std::string(k ? "," : "") + "\"" +
           span_name(static_cast<SpanKind>(k)) + "\":{\"calls\":" +
           num(t.calls) + ",\"self_ns\":" + std::to_string(t.self_ns) + "}";
    }
    s += "}";
  }
  s += "}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  const std::optional<Workload> w = find_workload(a.workload, a.seed, a.quick);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  sim::set_default_sim_threads(1);
  std::printf(
      "{\"kind\":\"env\",\"build_type\":\"%s\",\"assertions\":%s,"
      "\"threads\":%u,\"warm_ms\":%s,\"span_ms\":%s}\n",
      PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
      "false",
#else
      "true",
#endif
      sim::default_sim_threads(), num(sim::to_sec(w->warm) * 1e3).c_str(),
      num(sim::to_sec(w->span) * 1e3).c_str());
  std::fflush(stdout);

  // The library's own answer for this spec, seed and spans. A perturbed
  // reference (1 us longer span) exists to prove the check can fail.
  workload::RunOptions ro;
  ro.seed_offset = a.seed;
  ro.warm_override = w->warm;
  ro.span_override = w->span + (a.perturb_reference ? sim::us(1) : 0);
  const workload::ScenarioResult ref = workload::run_scenario(w->spec, ro);
  std::printf("{\"kind\":\"reference\",\"modelled\":{%s}}\n",
              scenario_fields(ref).c_str());
  std::fflush(stdout);

  // Repeats until --seconds have passed: at least three untraced ones,
  // and with --trace 1 traced and untraced ones alternate.
  SpanRecorder rec(1 << 15);
  const int min_repeats = a.trace ? 4 : 3;
  const auto begin = std::chrono::steady_clock::now();
  bool any_traced = false;
  for (int i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
    if (i >= min_repeats && elapsed >= a.seconds) break;
    const bool traced = a.trace && i % 2 == 1;
    any_traced = any_traced || traced;
    const auto t0 = std::chrono::steady_clock::now();
    Run run(*w, a.seed, traced ? &rec : nullptr);
    run.warm_up();
    const double setup_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const SpanResult r = run.measure();
    print_repeat(i, traced, setup_s, r, traced ? &rec : nullptr);
  }
  // Spans of the last traced repeat, written once every timing is done.
  if (any_traced && !a.spans_out.empty() &&
      !rec.write_chrome_trace(a.spans_out)) {
    std::fprintf(stderr, "cannot write %s\n", a.spans_out.c_str());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"kind\":\"end\",\"peak_rss_kb\":%ld}\n", ru.ru_maxrss);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) return usage();
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
