// Determinism contract of the parallel sweep engine: run_sweep with any job
// count must produce bit-identical SweepResults — and byte-identical CSV —
// to the sequential jobs=1 path. This test is also the ThreadSanitizer
// target in scripts/sanitize_check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "core/sweep.hpp"
#include "obs/fabric_observatory.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::core {
namespace {

SweepConfig small_sweep() {
  SweepConfig sweep;
  sweep.base.mode = sw::BufferMode::PacketGranularity;
  sweep.base.buffer_capacity = 64;
  sweep.base.n_flows = 40;
  sweep.base.packets_per_flow = 2;
  sweep.base.frame_size = 1000;
  sweep.rates_mbps = {10.0, 50.0};
  sweep.repetitions = 6;
  return sweep;
}

TEST(ParallelSweep, EightJobsBitIdenticalToSequential) {
  SweepConfig sweep = small_sweep();

  sweep.jobs = 1;
  const SweepResult sequential = run_sweep(sweep, "contract");
  sweep.jobs = 8;
  const SweepResult parallel = run_sweep(sweep, "contract");

  EXPECT_TRUE(bitwise_equal(sequential, parallel));

  std::ostringstream seq_csv;
  std::ostringstream par_csv;
  write_csv(sequential, seq_csv);
  write_csv(parallel, par_csv);
  EXPECT_EQ(seq_csv.str(), par_csv.str());
  EXPECT_FALSE(seq_csv.str().empty());
}

TEST(ParallelSweep, RepeatedParallelRunsAreStable) {
  SweepConfig sweep = small_sweep();
  sweep.jobs = 4;
  const SweepResult first = run_sweep(sweep, "stable");
  const SweepResult second = run_sweep(sweep, "stable");
  EXPECT_TRUE(bitwise_equal(first, second));
}

TEST(ParallelSweep, JobsAboveCellCountClamped) {
  SweepConfig sweep = small_sweep();
  sweep.rates_mbps = {10.0};
  sweep.repetitions = 2;  // 2 cells
  sweep.jobs = 64;        // far more workers than cells
  const SweepResult many = run_sweep(sweep, "clamp");
  sweep.jobs = 1;
  const SweepResult one = run_sweep(sweep, "clamp");
  EXPECT_TRUE(bitwise_equal(many, one));
}

TEST(ParallelSweep, ProgressFiresOncePerCell) {
  SweepConfig sweep = small_sweep();
  sweep.jobs = 8;
  std::atomic<int> calls{0};
  (void)run_sweep(sweep, "progress", [&calls](double, int) { calls.fetch_add(1); });
  const int cells = static_cast<int>(sweep.rates_mbps.size()) * sweep.repetitions;
  EXPECT_EQ(calls.load(), cells);
}

TEST(ParallelSweep, ObserverForcesSequentialPathAndStillMatches) {
  // An invariant observer is a single shared sink, so run_sweep must ignore
  // jobs > 1 — and the result must still match the plain sequential sweep
  // (the observer itself does not perturb the simulation). One registry is
  // valid for one run, hence the single-cell sweep.
  SweepConfig sweep = small_sweep();
  sweep.rates_mbps = {10.0};
  sweep.repetitions = 1;

  sweep.jobs = 1;
  const SweepResult plain = run_sweep(sweep, "observed");

  verify::InvariantRegistry registry;
  sweep.base.observer = &registry;
  sweep.jobs = 8;
  const SweepResult observed = run_sweep(sweep, "observed");

  EXPECT_TRUE(bitwise_equal(plain, observed));
  EXPECT_GT(registry.events_observed(), 0u);
  registry.finalize(/*expect_all_delivered=*/true);
  EXPECT_TRUE(registry.ok()) << registry.report();
}

TEST(ParallelSweep, ObservatoryForcesSequentialPath) {
  // The telemetry observatory is one shared aggregate that every cell resets
  // and writes, so run_sweep must ignore jobs > 1 when the base config
  // carries one (parallel cells raced on it). Results match the jobs=1
  // sweep, and the ledger the last cell leaves behind balances.
  SweepConfig sweep = small_sweep();
  sweep.rates_mbps = {10.0, 20.0, 30.0, 50.0};
  sweep.repetitions = 2;
  obs::FabricObservatory observatory;
  sweep.base.observatory = &observatory;

  sweep.jobs = 1;
  const SweepResult sequential = run_sweep(sweep, "observatory");
  sweep.jobs = 4;
  const SweepResult parallel = run_sweep(sweep, "observatory");
  EXPECT_TRUE(bitwise_equal(sequential, parallel));

  const std::uint64_t per_cell = sweep.base.n_flows * sweep.base.packets_per_flow;
  EXPECT_EQ(observatory.injected(), per_cell);
  EXPECT_EQ(observatory.delivered() + observatory.fated(), observatory.injected());
  EXPECT_EQ(observatory.stranded(), 0u);
}

}  // namespace
}  // namespace sdnbuf::core
