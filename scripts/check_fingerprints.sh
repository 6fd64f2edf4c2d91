#!/usr/bin/env bash
# Fingerprint check: regenerates every (workload, seed) line of
# perfbench/reference.txt with `perfbench/run.py --fingerprint` (the
# command perfbench/README.md gives) and diffs the result against the
# committed file. Any difference means simulated behaviour changed.
#
# Reads perfbench/ and writes nothing there; the benchmark builds into
# .bench_build/. All 260 fingerprints take about 3.5 minutes on a 4-core
# host, most of it the up-to-date build check run.py makes on every call.
#
# Usage: scripts/check_fingerprints.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
REF="$ROOT/perfbench/reference.txt"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
cd "$ROOT"

# Build once up front, so a build failure shows its output.
python3 perfbench/run.py --workload paper_grid --seed 1 --fingerprint > /dev/null

grep -v '^#' "$REF" | while read -r workload seed _; do
  python3 perfbench/run.py --workload "$workload" --seed "$seed" --fingerprint 2> /dev/null
done > "$OUT"

if ! diff <(grep -v '^#' "$REF") "$OUT"; then
  echo "perfbench fingerprints differ from perfbench/reference.txt (< reference, > this tree)" >&2
  exit 1
fi
echo "all $(wc -l < "$OUT") perfbench fingerprints match perfbench/reference.txt"
