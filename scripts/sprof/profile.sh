#!/usr/bin/env bash
# Profiles one perfbench run with the sprof sampler and prints per-thread
# self and inclusive tables. Arguments go to perfbench unchanged:
#
#   scripts/sprof/profile.sh --workload data_mix --seed 4 --seconds 20 --trace 0
#
# perfbench is configured from perfbench/ with frame pointers into
# .prof_build/perfbench and nothing under perfbench/ is edited; the sampler
# is built beside it. perfbench's output is kept in .prof_build/perfbench.out,
# the samples in .prof_build/sprof.samples. SPROF_REPORT_ARGS passes options
# to report.py (for example "--thread proxy", or "--summary" for one line
# per thread: self time in syscall, lock, allocator, mem* and other code).
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
out="$root/.prof_build"
mkdir -p "$out"
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))

if [[ ! -f "$out/perfbench/CMakeCache.txt" ]]; then
  cmake -S "$root/perfbench" -B "$out/perfbench" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -mno-omit-leaf-frame-pointer" >&2
fi
cmake --build "$out/perfbench" --target perfbench -j "$jobs" >&2
cc -O2 -fPIC -shared -o "$out/libsprof.so" "$root/scripts/sprof/sprof.c" -ldl -lrt -lpthread

samples="$out/sprof.samples"
rm -f "$samples"
SPROF_OUT="$samples" LD_PRELOAD="$out/libsprof.so" \
  "$out/perfbench/perfbench" "$@" --out-dir "$out" > "$out/perfbench.out"
tail -n 1 "$out/perfbench.out"
# shellcheck disable=SC2086  # the report options are split on purpose
python3 "$root/scripts/sprof/report.py" --samples "$samples" --names "$out/perfbench.out" \
  ${SPROF_REPORT_ARGS:-}
