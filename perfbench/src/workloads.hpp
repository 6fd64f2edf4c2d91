// The benchmark's workloads: which experiments each one runs, built from the
// workload seed alone, and the simulated statistics a run produces.
//
// Every workload is a list of experiments pushed through the public entry
// points (core::run_experiment, core::run_fabric_experiment). One pass over
// that list is a "unit"; the timed loop repeats units with identical inputs,
// so every repetition must reproduce the same fingerprint.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace core = sdnbuf::core;
namespace util = sdnbuf::util;

enum class Workload { PaperGrid, TableChurn, FabricSteady, IncastTelemetry };

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

struct Plan {
  std::vector<core::ExperimentConfig> single;
  std::vector<core::FabricExperimentConfig> fabric;
  // Timed runs of this workload carry a FabricObservatory (the passive
  // telemetry plane is part of what the workload measures).
  bool telemetry = false;
  // Egress drops are part of the workload, so "every packet delivered" is
  // not a completion criterion; the drop ledger must close instead.
  bool lossy = false;
};

[[nodiscard]] Plan make_plan(Workload w, std::uint64_t seed);

// The simulated statistics of one experiment. Everything here is a pure
// function of the inputs, so a change that only speeds up the simulator
// leaves `fingerprint` unchanged.
struct RunOutcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t pkt_ins = 0;
  std::uint64_t full_frame_pkt_ins = 0;
  std::uint64_t mmu_rejected = 0;
  std::uint64_t int_stamps = 0;
  double buffer_max_units = 0.0;
  util::Samples setup_ms;  // flow setup delay; first-packet delay on fabrics
  bool completed = false;
};

[[nodiscard]] RunOutcome outcome_of(const core::ExperimentResult& r);
[[nodiscard]] RunOutcome outcome_of(const core::FabricExperimentResult& r, bool lossy);

struct UnitOutcome {
  std::vector<RunOutcome> runs;  // single-switch runs first, then fabric runs
  std::uint64_t fingerprint = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t control_bytes = 0;
  util::Samples setup_ms;
  bool completed = true;
  // Telemetry workloads: the observatory's drop ledger closed on every run
  // (each injected packet delivered or fated, none stranded).
  bool ledger_ok = true;

  void add(RunOutcome run);
};

// One unit as the timed loop runs it: the plan's configs unchanged, plus a
// fresh observatory per fabric run when the plan asks for telemetry.
[[nodiscard]] UnitOutcome run_unit(const Plan& plan);

// The plan with every experiment cut to a single flow: the per-run fixed
// cost (testbed build, warm-up, drain, teardown) without the workload.
[[nodiscard]] Plan setup_plan(const Plan& plan);

// Order-sensitive 64-bit FNV-1a over the values fed to it.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
