#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer, runs the
# full test suite, and gives the scenario fuzzer a fixed-seed budget. This is
# the acceptance gate for the invariant-checking layer: every fuzzed scenario
# runs all three buffer mechanisms with the invariant registry attached, so a
# clean exit means no memory error, no UB, and no invariant violation.
#
# A second build with ThreadSanitizer then runs the concurrency tests (the
# thread pool and the parallel-sweep determinism contract), gating the
# parallel machinery on data-race freedom.
#
# Usage: scripts/sanitize_check.sh [build_dir] [fuzz_runs] [fuzz_seed]
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
FUZZ_RUNS="${2:-50}"
FUZZ_SEED="${3:-1}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSDNBUF_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j"$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Model-validation pass, explicitly: the analytical oracle (src/model) does
# heavy floating-point work (Erlang recurrences, fixed-point iteration,
# pow/exp on mixture moments) where UB — overflow in the factorial-free
# recurrences, bad casts, division by zero at saturation boundaries — would
# silently corrupt predictions. A clean -L model run under UBSan gates that.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L model

# Observability pass: the obs-overhead stage of bench_simcore runs E1 with
# metrics + tracing + profiler attached, so the whole instrumentation hot
# path (histogram record, span open/close, JSON render, profiler rows) gets
# an ASan/UBSan run. Timings are meaningless under sanitizers; only the
# clean exit matters, hence --no-sweep.
"$BUILD_DIR/bench/bench_simcore" --quick --no-sweep --out /dev/null

"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED"
# Second pass with channel faults forced on: every scenario exercises the
# loss/duplication/outage code paths under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-faults
# Third pass with the fabric cross-check forced on: every scenario also runs
# a small multi-switch fabric (topology routing, ECMP, per-switch invariant
# registries) under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-fabric
# Fourth pass with data-plane link faults forced on: every fabric runs under
# seeded flap schedules, exercising send-time loss, port_status handling,
# route repair and the fate policies under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-link-faults
# Fifth pass with every dimension forced at once: channel faults on every
# control channel of a flapping fabric whose switches run the MMU and stamp
# INT telemetry, so all the fault and observation planes compose under the
# sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-faults \
  --force-fabric --force-link-faults --force-telemetry --force-mmu
# Sixth pass with the telemetry plane forced on: every scenario attaches the
# fabric observatory (INT stamping, deterministic sampling, fate ledger) and
# cross-checks the drop-attribution ledger against the invariant registry's
# own accounting under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-telemetry
# Seventh pass with the shared-memory MMU forced on: every scenario runs the
# pool-accounting hot path (admission, split release, pool-conservation
# invariant) under a sampled policy/pool/alpha, under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-mmu
# Combined pass: channel faults armed on every control channel of a fabric
# that also runs link flaps and the MMU, so the control- and data-plane
# fault planes compose under the sanitizers.
"$BUILD_DIR/tests/fuzz_scenarios" --runs "$FUZZ_RUNS" --seed "$FUZZ_SEED" --force-faults \
  --force-fabric --force-link-faults --force-mmu
# Combined pass with the telemetry plane: duplicated and jittered control
# messages, route repair after link flaps and INT-stamped packets moving
# hop to hop, all in one run. Fixed seed and budget (the CI smoke's).
"$BUILD_DIR/tests/fuzz_scenarios" --runs 20 --seed 8000 --force-faults --force-fabric \
  --force-link-faults --force-telemetry
# Eighth pass with FIFO eviction forced on a small flow table: rules are
# evicted out of the table's incremental victim order while packets wait in
# the buffers, under the sanitizers. Fixed seed and budget (the CI smoke's).
"$BUILD_DIR/tests/fuzz_scenarios" --runs 20 --seed 7000 --force-eviction fifo
# Golden results: every deterministic results/ file regenerates
# byte-identical from the sanitized build (written to a temp dir).
"$SRC_DIR/scripts/check_goldens.sh" "$BUILD_DIR" "$(nproc)"
# Data-fault unit/integration suite, explicitly (it is part of ctest above,
# but run it by name so a label change can't silently drop the coverage).
"$BUILD_DIR/tests/test_data_fault"

# ThreadSanitizer pass over the concurrent pieces. TSan cannot be combined
# with ASan, hence the separate build tree.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S "$SRC_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSDNBUF_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc)" --target test_thread_pool test_parallel_sweep

export TSAN_OPTIONS="halt_on_error=1"
"$TSAN_DIR/tests/test_thread_pool"
"$TSAN_DIR/tests/test_parallel_sweep"

echo "sanitize_check: OK (8 x ${FUZZ_RUNS} scenarios x 3 modes, seed ${FUZZ_SEED}; 20 combined" \
  "telemetry at seed 8000; 20 forced-FIFO; goldens; TSan clean)"
