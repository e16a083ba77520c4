#!/usr/bin/env bash
# Build, test, and regenerate every reproduction artifact.
#
#   tools/run_all.sh [--sanitize] [build-dir]
#
# Produces test_output.txt and bench_output.txt in the repo root.
# With --sanitize, first runs the tier-1 test suite under the asan, ubsan,
# and tsan CMake presets (see CMakePresets.json), then does the normal build.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

sanitize=0
if [ "${1:-}" = "--sanitize" ]; then
  sanitize=1
  shift
fi
build_dir="${1:-$repo_root/build}"

if [ "$sanitize" -eq 1 ]; then
  for preset in asan ubsan tsan; do
    echo "=== sanitizer pass: $preset ==="
    (cd "$repo_root" \
       && cmake --preset "$preset" \
       && cmake --build --preset "$preset" \
       && ctest --preset "$preset")
  done
fi

cmake -B "$build_dir" -G Ninja -S "$repo_root"
cmake --build "$build_dir"

ctest --test-dir "$build_dir" 2>&1 | tee "$repo_root/test_output.txt"

# The paper figure/table benches take no arguments; cloudsync_report runs
# one self-checking report per name and writes its BENCH_*.json here.
: > "$repo_root/bench_output.txt"
for b in "$build_dir"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  [ "$(basename "$b")" = cloudsync_report ] && continue
  echo "### $(basename "$b")" | tee -a "$repo_root/bench_output.txt"
  "$b" 2>&1 | tee -a "$repo_root/bench_output.txt"
done
for report in cache_tier crash_recovery_tue failure_tue fleet_scale hotpath \
              kernel protocol_selector server_scale stream_scale \
              transfer_frontier; do
  echo "### cloudsync_report $report" | tee -a "$repo_root/bench_output.txt"
  "$build_dir/bench/cloudsync_report" "$report" 2>&1 \
    | tee -a "$repo_root/bench_output.txt"
done

# Selector observability: one adaptive and one forced replay through
# tools/protocol_stats, appended to the bench log. (The protocol_selector
# report already ran above and wrote BENCH_protocol.json.)
for args in "--workload small_edits --mode adaptive" \
            "--workload duplicate_copy --mode forced --forced cdc_dedup"; do
  echo "### protocol_stats $args" | tee -a "$repo_root/bench_output.txt"
  # shellcheck disable=SC2086
  "$build_dir/tools/protocol_stats" $args 2>&1 \
    | tee -a "$repo_root/bench_output.txt"
done

# Cache-tier observability: one capacity-pressured scan and one write-back
# replay through tools/cache_stats, appended to the bench log.
# (The cache_tier report already ran above and wrote BENCH_cache.json.)
for args in "--workload scan --capacity 262144 --policy arc --files 8" \
            "--workload mods --mode wb --window 5 --files 4"; do
  echo "### cache_stats $args" | tee -a "$repo_root/bench_output.txt"
  # shellcheck disable=SC2086
  "$build_dir/tools/cache_stats" $args 2>&1 \
    | tee -a "$repo_root/bench_output.txt"
done

echo "done: test_output.txt and bench_output.txt written."
