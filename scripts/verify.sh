#!/usr/bin/env bash
# Full verification: the regular build + test suite, the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer, and the threaded suites
# (pcache proxy, TCP cluster and federation, heartbeat liveness, chaos)
# under ThreadSanitizer (CMake presets "default", "asan-ubsan", "tsan"). Run
# from the repository root.
#
# ctest is invoked with --test-dir and an explicit -j value: the ctest
# that ships with CMake 3.25 treats a bare `-j` as taking the *next*
# argument as its job count, silently eating a following -R/-L/-LE and
# defeating the tier split below.
#
# Tests labelled tier2 (long-running real-socket chaos/stress suites) are
# excluded from the fast default stage and run in their own stage; set
# SCALLA_SKIP_TIER2=1 to skip that stage on a quick iteration loop.
#
# The bench-gate stage re-runs every JSON-emitting bench and compares the
# deterministic metrics against bench/baseline.json (tolerances per
# metric); set SCALLA_SKIP_BENCH_GATE=1 to skip it.
#
# scripts/perf_ab.py (the parent-vs-working-tree perfbench A/B harness)
# checks its verdict logic with --selftest; no benchmark runs there.
#
# The perfbench smoke stage builds the wall-clock benchmark (perfbench/,
# its own CMake package over src/) into build-perfbench and runs each
# workload for one second; a src/ API change that breaks it, or a run
# whose result is not "correct", fails here instead of in the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== build + test: default preset (tier 1) ==="
cmake --preset default
cmake --build --preset default -j
ctest --test-dir build --output-on-failure -j 4 -LE tier2

if [[ "${SCALLA_SKIP_TIER2:-0}" != "1" ]]; then
  echo
  echo "=== test: default preset (tier 2 chaos/stress) ==="
  ctest --test-dir build --output-on-failure -L tier2
fi

if [[ "${SCALLA_SKIP_BENCH_GATE:-0}" != "1" ]]; then
  echo
  echo "=== bench-gate: regression check against bench/baseline.json ==="
  BENCH_OUT="build/bench_current.json" ./scripts/bench.sh > build/bench_run.log 2>&1 || {
    echo "bench run failed; see build/bench_run.log"
    exit 1
  }
  ./build/tools/bench_compare bench/baseline.json build/bench_current.json
fi

echo
echo "=== perf_ab self-test: A/B verdict logic on canned numbers ==="
python3 scripts/perf_ab.py --selftest

echo
echo "=== perfbench smoke: every workload builds, runs and reports correct ==="
for workload in warm_open cold_open data_mix; do
  result=$(CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py --workload "$workload" \
             --seed 1 --seconds 1 --trace 0 | tail -n 1) || {
    echo "perfbench $workload: run failed"
    exit 1
  }
  if [[ "$result" != *'"correct": true'* ]]; then
    echo "perfbench $workload: result not correct: $result"
    exit 1
  fi
  echo "perfbench $workload: ok"
done

echo
echo "=== build + test: asan-ubsan preset ==="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j
ctest --test-dir build-asan --output-on-failure -j 4 -LE tier2

echo
echo "=== build + test (threaded + liveness suites): tsan preset ==="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --test-dir build-tsan --output-on-failure -j 4 \
  -R "pcache_test|pcache_property_test|tcp_cluster_test|tcp_federation_test|sched_test|tcp_fabric_test|fabric_reactor_test|heartbeat_test|conformance_test|federation_test|cms_cache_property_test"
# The heartbeat/drain/suspend story over real threads lives inside
# chaos_test (tier2, TcpLivenessTest fixture) — run the whole suite.
ctest --test-dir build-tsan --output-on-failure -R chaos_test

echo
echo "verify: all suites passed"
