#!/usr/bin/env python3
"""Check the gates of one smoke-bench run: the single BENCH/OBS checker.

Usage:
  tools/check_bench_gates.py DIR

DIR is the HOTC_BENCH_DIR of a run with HOTC_SMOKE=1 of bench_pool_concurrency,
bench_fig15_overhead, bench_share, bench_diagnosis, bench_prof, bench_tiering
and bench_blackbox, plus `hotc_prof steady`, `hotc_top steady` and the crash
drill's `hotc_postmortem --json DIR/OBS_postmortem.json`.  Every failed gate is
named on stderr with the value found and the scalar fields beside it.

Exit status: 0 every gate holds, 1 a gate failed, 2 a document is missing or
is not valid JSON.
"""

import json
import os
import sys

# (document, dotted key path, test, bound); "" is the whole document.
GATES = [
    ("BENCH_pool.json", "smoke", "is", True),
    ("BENCH_pool.json", "gates.eviction_order_matches", "is", True),
    ("BENCH_pool.json", "gates.hit_counts_match", "is", True),
    ("BENCH_pool.json", "summary.measured_speedup_at_8", ">", 0),
    ("BENCH_pool.json", "summary.single_thread_overhead", ">=", 0.95),
    ("BENCH_overhead.json", "smoke", "is", True),
    ("BENCH_overhead.json", "tracing.gate_passed", "is", True),
    ("BENCH_share.json", "smoke", "is", True),
    ("BENCH_share.json", "gate_passed", "is", True),
    ("BENCH_diagnosis.json", "smoke", "is", True),
    ("BENCH_diagnosis.json", "gate_passed", "is", True),
    ("BENCH_prof.json", "smoke", "is", True),
    ("BENCH_prof.json", "overhead.gate_passed", "is", True),
    ("BENCH_prof.json", "contention.band50_share", ">=", 0.95),
    ("BENCH_prof.json", "ordering.gate_passed", "is", True),
    ("BENCH_prof.json", "gate_passed", "is", True),
    ("BENCH_tiering.json", "smoke", "is", True),
    ("BENCH_tiering.json", "conservation_ok", "is", True),
    ("BENCH_tiering.json", "equal_budget.gate_passed", "is", True),
    ("BENCH_tiering.json", "memory_pressure.gate_passed", "is", True),
    ("BENCH_tiering.json", "gate_passed", "is", True),
    ("BENCH_blackbox.json", "smoke", "is", True),
    ("BENCH_blackbox.json", "provenance.git_sha", "nonempty", None),
    ("BENCH_blackbox.json", "overhead.gate_passed", "is", True),
    ("BENCH_blackbox.json", "detector.steady_false_alerts", "==", 0),
    ("BENCH_blackbox.json", "detector.detection_rate", ">=", 0.95),
    ("BENCH_blackbox.json", "detector.gate_passed", "is", True),
    ("BENCH_blackbox.json", "gate_passed", "is", True),
    ("OBS_profile.folded", "", "nonempty", None),
    ("OBS_critical_path.json", "ordered_prefix_fraction", ">=", 0.99),
    ("OBS_health.json", "scenario", "==", "steady"),
    ("OBS_health.json", "keys", "nonempty", None),
    ("OBS_health.json", "slo", "nonempty", None),
    ("OBS_health.json", "firing", "==", 0),
    ("OBS_health.json", "journal.rejected", "==", 0),
    ("OBS_health.json", "history.frames_retained", ">", 0),
    ("OBS_health.json", "history.keys", "nonempty", None),
    ("OBS_postmortem.json", "reason", "contains", "conservation"),
    ("OBS_postmortem.json", "spans", ">", 0),
    ("OBS_postmortem.json", "decisions", ">", 0),
    ("OBS_postmortem.json", "tsdb.frames_decoded", ">", 0),
]

TESTS = {
    "is": lambda value, bound: value is bound,
    "==": lambda value, bound: value == bound,
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
    "contains": lambda value, bound: bound in value,
    "nonempty": lambda value, _: bool(
        value.strip() if isinstance(value, str) else value),
}


def load(path):
    with open(path) as f:
        return json.load(f) if path.endswith(".json") else f.read()


def lookup(doc, path):
    for key in path.split(".") if path else []:
        doc = doc[key]
    return doc


def main(argv):
    if len(argv) != 2 or not os.path.isdir(argv[1]):
        print(__doc__, file=sys.stderr)
        return 2
    docs, status = {}, 0
    for name, path, test, bound in GATES:
        if name not in docs:
            try:
                docs[name] = load(os.path.join(argv[1], name))
            except (OSError, ValueError) as e:
                print("check_bench_gates: %s" % e, file=sys.stderr)
                docs[name], status = None, 2
        if docs[name] is None:
            continue
        try:
            value = lookup(docs[name], path)
            ok = TESTS[test](value, bound)
        except (KeyError, TypeError):
            value, ok = "<missing>", False
        if not ok:
            # The fields beside the key (e.g. overhead_pct) explain a flag.
            parent = lookup(docs[name], path.rpartition(".")[0]) \
                if value != "<missing>" else {}
            beside = {k: v for k, v in parent.items()
                      if isinstance(v, (int, float, str))} \
                if isinstance(parent, dict) else {}
            print("check_bench_gates: %s: %s = %r, want %s %r; beside it: %s"
                  % (name, path, value, test, bound, beside), file=sys.stderr)
            status = max(status, 1)
    if status == 0:
        print("check_bench_gates: %d gates hold across %d documents"
              % (len(GATES), len(docs)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
