#!/usr/bin/env bash
# The one-command correctness gate: lint, the default build + full test
# suite (golden figure outputs included), the benchmark's self-test
# (bench_e2e, built Release into .bench_build/), the install-rule check, the
# ASan/UBSan and TSan matrices with HOTC_AUDIT=ON (lock-rank auditing,
# pool conservation and engine state-count checks compiled in), and
# clang-tidy over src/core + src/pool when a binary is available.
#
# Usage: tools/check.sh          (from anywhere; or `cmake --build build
#        --target check` after configuring)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n== %s ==\n' "$*"; }

step "lint: self-test"
python3 "$ROOT/tools/hotc_lint.py" --self-test

step "lint: src/"
python3 "$ROOT/tools/hotc_lint.py" --root "$ROOT/src"

step "build + test: default (tier-1)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

step "benchmark: bench_e2e self-test (short mode, every workload)"
(cd "$ROOT" && python3 bench_e2e/run.py --self-test)

step "install: every hotc_* library lands in <prefix>/lib"
"$ROOT/tools/check_install.sh" "$ROOT/build"

step "static analysis: hotc_analyze (fixtures + src/)"
ctest --test-dir "$ROOT/build" -L analyze --output-on-failure -j "$JOBS"
"$ROOT/build/tools/hotc_analyze" --root "$ROOT" \
  --baseline "$ROOT/tools/analyze/baseline.txt" \
  --report "$ROOT/build/analyze_report.json"

step "smoke bench: pool + fig15 + sharing + diagnosis + prof + tiering + blackbox + hotc_top/prof"
SMOKE_DIR="$(mktemp -d)"
for bench in bench_pool_concurrency bench_fig15_overhead bench_share \
    bench_diagnosis bench_prof bench_tiering bench_blackbox; do
  HOTC_SMOKE=1 HOTC_BENCH_DIR="$SMOKE_DIR" "$ROOT/build/bench/$bench" \
    >/dev/null
done
"$ROOT/build/examples/scenario_runner" \
  "$ROOT/examples/scenarios/memory_pressure.json" >/dev/null
HOTC_BENCH_DIR="$SMOKE_DIR" "$ROOT/build/tools/hotc_top" steady >/dev/null
HOTC_BENCH_DIR="$SMOKE_DIR" "$ROOT/build/tools/hotc_prof" steady >/dev/null

step "crash drill: blackbox dump -> postmortem round trip"
# The drill dies by SIGABRT on purpose; suppress the core and expect 134.
set +e
(
  cd "$SMOKE_DIR" || exit 1
  ulimit -c 0
  "$ROOT/build/tools/hotc_crashdrill" "$SMOKE_DIR/OBS_blackbox.dump" \
    >"$SMOKE_DIR/drill.log" 2>&1
)
DRILL_RC=$?
set -e
[ "$DRILL_RC" -ne 0 ] || { echo "crash drill did not crash"; exit 1; }
[ -s "$SMOKE_DIR/OBS_blackbox.dump" ] || {
  echo "crash drill left no dump"; exit 1; }
"$ROOT/build/tools/hotc_postmortem" "$SMOKE_DIR/OBS_blackbox.dump" \
  --json "$SMOKE_DIR/OBS_postmortem.json" >"$SMOKE_DIR/postmortem.log"
# A truncated dump must be rejected, not half-decoded.
DUMP_BYTES=$(wc -c <"$SMOKE_DIR/OBS_blackbox.dump")
head -c "$((DUMP_BYTES - 64))" "$SMOKE_DIR/OBS_blackbox.dump" \
  >"$SMOKE_DIR/truncated.dump"
if "$ROOT/build/tools/hotc_postmortem" "$SMOKE_DIR/truncated.dump" \
    >/dev/null 2>&1; then
  echo "postmortem accepted a truncated dump"; exit 1
fi
echo "crash drill: truncated dump rejected"

step "bench gates: every BENCH/OBS document of the smoke run"
python3 "$ROOT/tools/check_bench_gates.py" "$SMOKE_DIR"
rm -rf "$SMOKE_DIR"

step "build + test: ASan/UBSan + HOTC_AUDIT"
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DHOTC_SANITIZE=address,undefined -DHOTC_AUDIT=ON >/dev/null
cmake --build "$ROOT/build-asan" -j "$JOBS"
ctest --test-dir "$ROOT/build-asan" --output-on-failure -j "$JOBS"

step "build + test: TSan + HOTC_AUDIT"
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DHOTC_SANITIZE=thread -DHOTC_AUDIT=ON >/dev/null
cmake --build "$ROOT/build-tsan" -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" -L tsan --output-on-failure -j "$JOBS"
ctest --test-dir "$ROOT/build-tsan" --output-on-failure -j "$JOBS"

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy: src/core + src/pool"
  # Needs a compile database; the default build dir provides one.
  cmake -B "$ROOT/build" -S "$ROOT" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  clang-tidy -p "$ROOT/build" "$ROOT"/src/core/*.cpp "$ROOT"/src/pool/*.cpp
else
  step "clang-tidy: not installed, skipping (config: .clang-tidy)"
fi

step "check: all gates passed"
