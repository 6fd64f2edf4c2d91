#!/usr/bin/env bash
# Golden-results check: regenerates every deterministic file under results/
# into a temporary directory (never into results/ itself) and compares each
# committed file with its regenerated copy byte for byte.
#
# The flags below are the ones each committed file was produced with:
#   bench_fig2_control_path_load --quick --rates-coarse -> fig2a.csv, fig2b.csv
#   every other bench_fig*, default flags               -> fig3.csv .. fig13b.csv
#   bench_model_oracle, default flags                   -> model_validation.csv
#   bench_mmu --quick                                   -> mmu.csv
#   bench_telemetry --quick                             -> bench_telemetry_*
#   bench_fig8_buffer_utilization --quick --reps 1 --trace-sample 1
#     --metrics-out metrics.json    -> metrics-buffer-16.json, metrics-buffer-256.json
#     (CI's traced smoke run; its CSVs and traces go to a subdirectory so
#     they do not replace the default-flag fig8.csv)
# Sweeps are bit-identical for any --jobs value, so JOBS only sets speed.
#
# Usage: scripts/check_goldens.sh [build_dir] [jobs]
set -euo pipefail

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$SRC_DIR/build}"
JOBS="${2:-4}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

run() {
  local bench="$1"
  shift
  "$BUILD_DIR/bench/$bench" --csv-dir "$OUT" --jobs "$JOBS" "$@" > /dev/null
}

run bench_fig2_control_path_load --quick --rates-coarse
for path in "$BUILD_DIR"/bench/bench_fig*; do
  bench="$(basename "$path")"
  [ "$bench" = bench_fig2_control_path_load ] && continue
  run "$bench"
done
run bench_model_oracle
run bench_mmu --quick
run bench_telemetry --quick
mkdir "$OUT/traced"
"$BUILD_DIR/bench/bench_fig8_buffer_utilization" --quick --reps 1 --trace-sample 1 \
  --jobs "$JOBS" --csv-dir "$OUT/traced" --trace-out "$OUT/traced/trace.json" \
  --metrics-out "$OUT/metrics.json" > /dev/null

status=0
checked=0
for golden in "$SRC_DIR"/results/*; do
  name="$(basename "$golden")"
  if [ ! -f "$OUT/$name" ]; then
    echo "check_goldens: results/$name was not regenerated" >&2
    status=1
  elif ! cmp "$golden" "$OUT/$name"; then
    echo "check_goldens: results/$name differs from its regenerated copy" >&2
    status=1
  else
    checked=$((checked + 1))
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_goldens: OK ($checked files byte-identical)"
fi
exit "$status"
