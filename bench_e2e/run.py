#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see bench_e2e/README.md).

Run from the repository root:

  python3 bench_e2e/run.py                       # every workload, untraced
                                                 # then traced
  python3 bench_e2e/run.py --workload hit_path --seed 3 --seconds 30 \\
      --trace 0                                  # one run
  python3 bench_e2e/run.py --self-test           # short-mode self-test

The first call configures and builds the HotC libraries and the
benchmark binary into .bench_build/bench_e2e (Release); later calls
rebuild incrementally.  Build output goes to stderr, so the last line of
stdout is the binary's JSON summary.  The exit status is the binary's: 0
when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "bench_e2e")
SPANS_DIR = os.path.join(".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
WORKLOADS = ["hit_path", "miss_path", "sim_day"]
# Metrics a workload prints in its report beyond the BENCHMARK.json sets
# (they apply to some workloads only; README.md defines them).
REPORTED = {
    ("hit_path", 0): ["latency_p99_us", "throughput_w1_rps", "full_cold_ratio",
                      "error_ratio"],
    ("miss_path", 0): ["latency_p99_us", "full_cold_ratio", "error_ratio"],
    ("sim_day", 0): ["latency_p99_us", "sim_rps", "sim_latency_p50_ms",
                     "sim_latency_p99_ms", "full_cold_ratio", "error_ratio"],
    ("hit_path", 1): ["runtime.submit_us.w1.p50", "runtime.submit_us.p99",
                      "runtime.dispatch_us.hit.p50", "runtime.exec_us.p50",
                      "runtime.complete_us.p99", "runtime.queue_wait_us.mean",
                      "runtime.task_run_us.max", "runtime.lock_wait_ns",
                      "pool.lock_wait_ns", "pool.seqlock_retries",
                      "spec.lock_wait_ns"],
    ("miss_path", 1): ["runtime.submit_us.p50", "runtime.exec_us.p99",
                       "runtime.complete_us.p50", "share.lock_wait_ns",
                       "snapshot.lock_wait_ns"],
    ("sim_day", 1): ["predict.observe_ns", "predict.predict_ns",
                     "hotc.tick_us"],
}


def build():
    """Configure once, then build; returns False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("bench_e2e: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace and "--short" not in extra:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.jsonl")
        open(spans, "w").close()
        cmd += ["--spans-out", spans]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.flush()
    return subprocess.run(cmd)


def summary(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_test():
    """Short-mode checks of the benchmark itself; returns an exit status."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("PASS  " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run_binary(workload, 1, 2, trace, ["--short"], capture=True)
            result = summary(proc)
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0 and result is not None
                  and result["correct"], f"{label}: runs correct, exit 0")
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  f"{label}: prints every BENCHMARK.json metric with its unit")
            printed = {l.split()[0] for l in proc.stdout.splitlines()
                       if len(l.split()) >= 3 and not l.startswith(("#", "{"))}
            missing = sorted(set(REPORTED[(workload, trace)]) - printed)
            check(not missing, f"{label}: reports its own metrics by name "
                  f"with a unit {missing if missing else ''}")
            if trace and workload != "sim_day":
                checked = [l for l in proc.stdout.splitlines()
                           if l.startswith("runtime.spans_checked ")]
                check(bool(checked) and float(checked[0].split()[1]) > 0
                      and "CHECK FAILED" not in proc.stdout,
                      f"{label}: the four request spans sum to each "
                      "request's latency")

    proc = run_binary("hit_path", 1, 1, 0, ["--short", "--corrupt-every", "7"],
                      capture=True)
    result = summary(proc)
    check(proc.returncode == 1 and result is not None
          and not result["correct"] and result["failed"] > 0
          and "wrong payloads" in proc.stdout,
          "hit_path: a payload corrupted on purpose is reported as an error")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.self_test:
        return self_test()
    if args.workload != "all":
        trace = 0 if args.trace is None else args.trace
        return run_binary(args.workload, args.seed, args.seconds,
                          trace).returncode
    status = 0
    for workload in WORKLOADS:
        for trace in ([0, 1] if args.trace is None else [args.trace]):
            if run_binary(workload, args.seed, args.seconds, trace).returncode:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
