#!/usr/bin/env python3
"""Benchmark of the FlexTOE simulator: host cost and modelled results.

    python3 perfbench/run.py --workload small_rpc --seed 0 --seconds 10 --trace 0

Builds perfbench_runner (the simulator library from src/ plus the
benchmark's own files) in Release under .bench_build/, runs one workload
in one single-threaded process, checks that the modelled outputs agree
between repeats, with the traced run and with workload::run_scenario,
and prints the metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of the traced
run. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("small_rpc", "conn_churn", "bulk_tx_lossy")
DEADLINE_S = 170  # the whole run, build excluded
# sim_p99_us needs this many latency samples above the 99th percentile.
MIN_TAIL_SAMPLES = 10

END_TO_END = {
    "sim_pkts_per_s": "pkts/s",
    "cpu_ns_per_pkt": "ns",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_rps": "req/s",
    "sim_goodput_gbps": "Gbps",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_pkt": "events/pkt",
    "sim.ns_per_event": "ns",
    "sim.pending_peak": "count",
    "sim.unattributed_s": "s",
    "sim.latency_samples": "count",
    "net.pkts": "count",
    "net.drops": "count",
    "net.ingress_ns": "ns",
    "net.ingress_calls": "count",
    "net.pkt_fresh_per_pkt": "allocs/pkt",
    "core.deliver_ns": "ns",
    "core.deliver_calls": "count",
    "core.rx_segments": "count",
    "core.tx_segments": "count",
    "core.acks": "count",
    "core.to_control": "count",
    "core.fast_retransmits": "count",
    "core.ooo_segments": "count",
    "pipeline.visits_per_seg": "visits/seg",
    "nfp.fpc_items_per_seg": "items/seg",
    "nfp.dma_per_seg": "dma/seg",
    "sched.triggers_per_tx_seg": "triggers/seg",
    "host.send_ns": "ns",
    "host.recv_ns": "ns",
    "host.connect_ns": "ns",
    "host.close_ns": "ns",
    "host.calls": "count",
    "baseline.deliver_ns": "ns",
    "baseline.send_ns": "ns",
    "baseline.recv_ns": "ns",
    "baseline.connect_ns": "ns",
    "app.on_data_self_ns": "ns",
    "workload.on_data_self_ns": "ns",
    "proc.sys_share": "ratio",
    "proc.minflt_per_conn": "faults/conn",
    "trace.overhead_ratio": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner in Release; False on error."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, int(effective_cpus()["effective"]))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return RUNNER.is_file()


def effective_cpus():
    """CPUs this process may use: affinity mask capped by the cgroup quota."""
    affinity = len(os.sched_getaffinity(0))
    quota = None
    try:
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if text[0] != "max":
            quota = int(text[0]) / int(text[1])
    except (OSError, ValueError, IndexError):
        try:
            q = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            p = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if q > 0 and p > 0:
                quota = q / p
        except (OSError, ValueError):
            pass
    effective = affinity if quota is None else min(affinity, quota)
    return {"affinity": affinity, "cgroup_quota": quota,
            "effective": effective}


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run_runner(args, deadline):
    """Runs perfbench_runner; returns (records, exit code)."""
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{args.workload}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("perfbench: runner timed out")
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a crash can cut the last line short
    return records, proc.returncode


def verdict(records, rc):
    """Checks modelled outputs; returns (attempted, failed, problems)."""
    ref = next((r["modelled"] for r in records if r["kind"] == "reference"),
               None)
    reps = [r for r in records if r["kind"] == "repeat"]
    base = reps[0]["modelled"] if reps else None
    problems = []
    failed = 0
    for r in reps:
        m = r["modelled"]
        bad = [k for k in base if m.get(k) != base[k]]
        if bad:
            problems.append(f"repeat {r['index']} differs from repeat 0 "
                            f"({'traced' if r['traced'] else 'untraced'}): "
                            + ", ".join(bad[:5]))
        ref_bad = [k for k in ref if m.get(k) != ref[k]] if ref else ["all"]
        if ref_bad:
            problems.append(f"repeat {r['index']} differs from "
                            "workload::run_scenario: " + ", ".join(ref_bad[:5]))
        tail = m["latency_samples"] * 0.01
        if tail < MIN_TAIL_SAMPLES:
            problems.append(f"repeat {r['index']}: only {tail:.1f} latency "
                            "samples beyond p99")
        failed += bool(bad or ref_bad or tail < MIN_TAIL_SAMPLES)
    attempted = len(reps)
    if rc != 0 or not any(r["kind"] == "end" for r in records):
        problems.append(f"runner exited with code {rc}")
        attempted += 1  # the repeat that crashed
        failed += 1
    return attempted, failed, problems


def med(values):
    return statistics.median(values)


def telemetry_sum(m, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in m["telemetry"]["counters"].items()
               if rx.fullmatch(k))


def end_to_end(records):
    reps = [r for r in records if r["kind"] == "repeat" and not r["traced"]]
    m = reps[0]["modelled"]
    end = next(r for r in records if r["kind"] == "end")
    # Host rates are medians over every window of every repeat, so a
    # burst of contention from other processes moves few of the samples.
    windows = [w for r in reps for w in r["windows"]]
    return {
        "sim_pkts_per_s": med([pkts / wall for wall, _, pkts in windows]),
        "cpu_ns_per_pkt": med([cpu * 1e9 / pkts for _, cpu, pkts in windows]),
        "setup_s": med([r["setup_s"] for r in reps]),
        "peak_rss_mb": end["peak_rss_kb"] / 1024.0,
        "sim_rps": m["sim_rps"],
        "sim_goodput_gbps": m["sim_goodput_gbps"],
        "sim_p50_us": m["sim_p50_us"],
        "sim_p99_us": m["sim_p99_us"],
    }


def per_layer(records):
    plain = [r for r in records if r["kind"] == "repeat" and not r["traced"]]
    traced = [r for r in records if r["kind"] == "repeat" and r["traced"]]
    m = plain[0]["modelled"]
    pkts = m["net.pkts"]
    segs = m["core.rx_segments"] + m["core.tx_segments"]

    def self_ns(name):
        return med([r["spans"][name]["self_ns"] for r in traced])

    def calls(name):
        return traced[0]["spans"][name]["calls"]

    host_calls = sum(v["calls"] for k, v in traced[0]["spans"].items()
                     if k.startswith("host."))
    covered = [sum(v["self_ns"] for v in r["spans"].values()) / 1e9
               for r in traced]
    out = {
        "sim.events": m["sim.events"],
        "sim.events_per_pkt": m["sim.events"] / pkts,
        "sim.ns_per_event": med([r["span_wall_s"] for r in plain]) * 1e9 /
                            m["sim.events"],
        "sim.pending_peak": plain[0]["pending_peak"],
        "sim.unattributed_s": med([r["span_wall_s"] - c
                                   for r, c in zip(traced, covered)]),
        "sim.latency_samples": m["latency_samples"],
        "net.pkts": pkts,
        "net.drops": m["net.drops"],
        "net.ingress_ns": self_ns("net.ingress"),
        "net.ingress_calls": calls("net.ingress"),
        "net.pkt_fresh_per_pkt":
            telemetry_sum(m, r"pool/pkt/fresh") / pkts,
        "core.deliver_ns": self_ns("core.deliver"),
        "core.deliver_calls": calls("core.deliver"),
        "pipeline.visits_per_seg":
            telemetry_sum(m, r"stage/[^/]+/visits") / segs,
        "nfp.fpc_items_per_seg": telemetry_sum(m, r"fpc/[^/]+/done") / segs,
        "nfp.dma_per_seg": telemetry_sum(m, r"dma/transactions") / segs,
        "sched.triggers_per_tx_seg":
            telemetry_sum(m, r"sched/triggers") / m["core.tx_segments"],
        "host.send_ns": self_ns("host.send"),
        "host.recv_ns": self_ns("host.recv"),
        "host.connect_ns": self_ns("host.connect"),
        "host.close_ns": self_ns("host.close"),
        "host.calls": host_calls,
        "baseline.deliver_ns": self_ns("baseline.deliver"),
        "baseline.send_ns": self_ns("baseline.send"),
        "baseline.recv_ns": self_ns("baseline.recv"),
        "baseline.connect_ns": self_ns("baseline.connect"),
        "app.on_data_self_ns": self_ns("app.on_data"),
        "workload.on_data_self_ns": self_ns("workload.on_data"),
        "proc.sys_share": med([r["cpu_sys_s"] /
                               max(r["cpu_user_s"] + r["cpu_sys_s"], 1e-9)
                               for r in plain]),
        "proc.minflt_per_conn": med([r["minflt"] / max(r["connects"], 1)
                                     for r in plain]),
        "trace.overhead_ratio": med([r["span_wall_s"] for r in traced]) /
                                med([r["span_wall_s"] for r in plain]),
    }
    for k in ("core.rx_segments", "core.tx_segments", "core.acks",
              "core.to_control", "core.fast_retransmits", "core.ooo_segments"):
        out[k] = m[k]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="short simulated spans (the benchmark's own tests)")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="compare against a deliberately different "
                         "run_scenario result; the run must fail")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    if not build():
        return 2
    deadline = time.monotonic() + DEADLINE_S
    records, rc = run_runner(args, deadline)
    env = next((r for r in records if r["kind"] == "env"), {})
    cpus = effective_cpus()
    build_type = env.get("build_type", "unknown")
    print("env: " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": env.get("threads"), "build_type": build_type,
        "assertions": env.get("assertions"),
        "warm_ms": env.get("warm_ms"), "span_ms": env.get("span_ms"),
        "effective_cpus": cpus["effective"],
        "affinity_cpus": cpus["affinity"],
        "cgroup_cpu_quota": cpus["cgroup_quota"],
        "nproc": os.cpu_count(), "git_sha": git_sha()}))
    if build_type != "Release":
        print(f"WARNING: {build_type} build, not Release: host-cost "
              "metrics are not comparable")

    attempted, failed, problems = verdict(records, rc)
    for p in problems:
        print("FAIL: " + p)
    metrics = {}
    if not (rc != 0 or failed == attempted):
        values = per_layer(records) if args.trace else end_to_end(records)
        units = PER_LAYER if args.trace else END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for k, v in metrics.items():
            print(f"{k:28s} {v['value']:>18.6g} {v['unit']}")
        samples = next(r for r in records
                       if r["kind"] == "repeat")["modelled"]["latency_samples"]
        print(f"latency samples: {samples} "
              f"({samples * 0.01:.0f} beyond p99)")
    print(f"attempted {attempted} failed {failed} "
          f"verdict {'PASS' if not failed else 'FAIL'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
