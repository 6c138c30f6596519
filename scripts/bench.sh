#!/usr/bin/env bash
# Benchmark harness: Release-ish build (default preset is RelWithDebInfo),
# run every bench that emits a machine-scrapable "JSON {...}" summary
# line, and collect those lines into one JSONL file (one JSON object per
# line). Run from the repository root.
#
# Output file: first positional argument, else $BENCH_OUT, else
# BENCH_PR10.json. The result feeds scripts/verify.sh's bench-gate stage:
#   python3 scripts/bench_gate.py bench/baseline.json <output>
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-${BENCH_OUT:-BENCH_PR10.json}}"

# Every bench binary that prints a "JSON {...}" summary. Keep in sync with
# bench/CMakeLists.txt and bench/baseline.json.
BENCHES=(
  bench_cache_equilibrium
  bench_campaign
  bench_correction_vectors
  bench_deadline_sync
  bench_eviction_window
  bench_fabric
  bench_fast_response
  bench_federation
  bench_hash_fibonacci
  bench_location_cache
  bench_parallel_prepare
  bench_proxy_cache
  bench_qserv_dispatch
  bench_query_protocol
  bench_rechaining
  bench_redirection_latency
  bench_registration
  bench_selection
  bench_tree_scaling
)

echo "=== build: default preset ==="
cmake --preset default
cmake --build --preset default -j

: > "$OUT"
for bench in "${BENCHES[@]}"; do
  echo
  echo "=== run: $bench ==="
  # A bench may exit non-zero when its claim check fails on a loaded
  # machine; still collect its JSON so the numbers are inspectable.
  output=$("./build/bench/$bench" 2>&1) || true
  printf '%s\n' "$output"
  printf '%s\n' "$output" | sed -n 's/^JSON //p' >> "$OUT"
done

echo
echo "collected $(wc -l < "$OUT") JSON summaries into $OUT"
