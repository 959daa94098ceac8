#!/usr/bin/env python3
"""tools/check_bench_gates.py must pass a passing run and fail a failing one.

Writes a minimal document set that satisfies every gate, checks that the
checker accepts it, then flips each `gate_passed` flag to false in turn,
zeroes the postmortem's span count and deletes one document, and checks
that the checker rejects every variant.

Usage: test_check_bench_gates.py <path to check_bench_gates.py>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

PASSING = {
    "BENCH_pool.json": {
        "smoke": True,
        "gates": {"eviction_order_matches": True, "hit_counts_match": True},
        "summary": {"measured_speedup_at_8": 1.5,
                    "single_thread_overhead": 1.0,
                    "ns_per_pair_sharded": 70.0},
    },
    "BENCH_overhead.json": {
        "smoke": True, "tracing": {"gate_passed": True, "overhead_pct": 2.0}},
    "BENCH_share.json": {
        "smoke": True, "gate_passed": True, "cold_start_reduction_pct": 40.0},
    "BENCH_diagnosis.json": {
        "smoke": True, "gate_passed": True,
        "drift": {"restarts_on": 3, "restarts_off": 0},
        "journal": {"replay_records_checked": 100}},
    "BENCH_prof.json": {
        "smoke": True, "gate_passed": True,
        "overhead": {"gate_passed": True, "overhead_pct": 0.5},
        "contention": {"band50_share": 0.99},
        "ordering": {"gate_passed": True}},
    "BENCH_tiering.json": {
        "smoke": True, "gate_passed": True, "conservation_ok": True,
        "equal_budget": {"gate_passed": True,
                         "baseline": {"full_cold_ratio": 0.46},
                         "tiering": {"full_cold_ratio": 0.09}},
        "memory_pressure": {"gate_passed": True,
                            "baseline": {"full_cold_starts": 40},
                            "tiering": {"full_cold_starts": 10}}},
    "BENCH_blackbox.json": {
        "smoke": True, "gate_passed": True,
        "provenance": {"git_sha": "0123abcd"},
        "overhead": {"gate_passed": True, "overhead_pct": 0.2},
        "detector": {"gate_passed": True, "steady_false_alerts": 0,
                     "detection_rate": 1.0}},
    "OBS_critical_path.json": {"ordered_prefix_fraction": 1.0},
    "OBS_health.json": {
        "scenario": "steady", "keys": [{"key": 1}], "slo": [{"name": "x"}],
        "firing": 0, "journal": {"rejected": 0},
        "history": {"frames_retained": 4, "keys": [{"key": 1}]}},
    "OBS_postmortem.json": {
        "reason": "pool conservation violated", "spans": 10,
        "decisions": 5, "tsdb": {"frames_decoded": 3}},
}
FOLDED = "pool;acquire 10\n"


def gate_paths(node, path=()):
    """Every key path that ends in a gate_passed flag."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "gate_passed":
                yield path + (key,)
            else:
                yield from gate_paths(value, path + (key,))


def run(checker, docs, folded=FOLDED):
    with tempfile.TemporaryDirectory() as d:
        for name, doc in docs.items():
            with open(os.path.join(d, name), "w") as f:
                json.dump(doc, f)
        if folded is not None:
            with open(os.path.join(d, "OBS_profile.folded"), "w") as f:
                f.write(folded)
        return subprocess.run([sys.executable, checker, d],
                              capture_output=True, text=True).returncode


def main(checker):
    failures = []
    if run(checker, PASSING) != 0:
        failures.append("the passing document set was rejected")
    flipped = 0
    for name, doc in PASSING.items():
        for path in gate_paths(doc):
            docs = copy.deepcopy(PASSING)
            node = docs[name]
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = False
            flipped += 1
            if run(checker, docs) == 0:
                failures.append("%s %s=false passed" % (name, ".".join(path)))
    docs = copy.deepcopy(PASSING)
    docs["OBS_postmortem.json"]["spans"] = 0
    if run(checker, docs) != 1:
        failures.append("a postmortem with no spans did not exit 1")
    if run(checker, PASSING, folded=None) != 2:
        failures.append("a missing OBS_profile.folded did not exit 2")
    for f in failures:
        print("FAIL: " + f)
    print("%d gate flips checked, %d failure(s)" % (flipped, len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
