// Seeded scenario sampling for the invariant fuzzer.
//
// A `Scenario` is one randomized point in the experiment space (workload
// shape, buffer capacity, fault injection, polling). `sample_scenario` maps
// a 64-bit seed to a scenario deterministically, so a failure report's seed
// is enough to reproduce the exact run. `run_scenario` executes the
// scenario under all three buffer mechanisms with an `InvariantRegistry`
// attached, finalizes the accounting, and cross-checks that the mechanisms
// delivered identical payload multisets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::verify {

struct Scenario {
  std::uint64_t seed = 1;
  double rate_mbps = 10.0;
  std::uint32_t frame_size = 1000;
  std::uint64_t n_flows = 100;
  std::uint32_t packets_per_flow = 1;
  host::EmissionOrder order = host::EmissionOrder::Sequential;
  std::uint32_t batch_size = 5;
  double tcp_flow_fraction = 0.0;
  std::size_t buffer_capacity = 256;
  std::size_t flow_table_capacity = 4096;
  bool piggyback_buffer_id = false;
  double drop_pkt_in_probability = 0.0;
  sim::SimTime stats_poll_interval = sim::SimTime::zero();

  // Control-channel fault plane (armed when the measurement window opens;
  // see FabricConfig::fault_profile). Duplication is symmetric per
  // direction here to keep the sampled space small.
  double chan_loss_to_controller = 0.0;
  double chan_loss_to_switch = 0.0;
  double chan_duplicate_prob = 0.0;
  sim::SimTime chan_extra_delay = sim::SimTime::zero();
  // A single outage window relative to measurement start; zero length = none.
  sim::SimTime outage_start = sim::SimTime::zero();
  sim::SimTime outage_len = sim::SimTime::zero();
  // Liveness + degradation mode (echo disabled unless an outage or faults
  // make it interesting).
  sim::SimTime echo_interval = sim::SimTime::zero();
  sw::ConnectionFailMode fail_mode = sw::ConnectionFailMode::FailSecure;

  // Fabric cross-check: a small multi-switch fabric (2-8 switches) run under
  // topology routing in addition to the single-chain scenario above.
  // `fabric_switches == 0` disables it.
  unsigned fabric_kind = 0;      // 0=leaf-spine, 1=fat-tree k=2, 2=random edge list
  unsigned fabric_switches = 0;  // switch budget for the random kind; 0 = off
  std::uint64_t fabric_seed = 0;
  unsigned fabric_pattern = 0;  // host::TrafficPattern index
  bool fabric_full_path = false;

  // Data-plane link faults on the fabric cross-check: seeded flap schedules
  // on every inter-switch link (DESIGN.md §13). Zero mean-up disables them.
  double fabric_flap_mean_up_s = 0.0;
  double fabric_flap_mean_down_s = 0.0;
  std::uint64_t fabric_fault_seed = 0;

  // Telemetry-plane cross-check (DESIGN.md §15): attach a FabricObservatory
  // to every mechanism run and require the drop-attribution ledger to close
  // against the invariant registry's independent accounting. INT depth and
  // the sampling period exercise the stamping / NetFlow paths; both zero
  // leaves just the passive ledger. `telemetry == false` disables the whole
  // dimension.
  bool telemetry = false;
  unsigned telemetry_int_depth = 0;
  std::uint32_t telemetry_sample_period = 0;

  // Shared-memory MMU cross-check (DESIGN.md §16): run every mechanism (and
  // the fabric cross-check) with the switch's buffer managers and
  // egress queues arbitrated by one shared cell pool under the drawn sharing
  // policy. The pool-conservation invariant (ledger vs reported occupancies)
  // rides on the same InvariantRegistry hooks. `mmu == false` disables the
  // dimension entirely (byte-identical to the pre-MMU fuzzer).
  bool mmu = false;
  unsigned mmu_policy = 0;  // sw::mmu::PolicyKind index
  std::uint64_t mmu_pool_cells = 0;
  double mmu_alpha = 1.0;

  // Flow-table eviction policy of the single-switch runs (their tables are
  // the ones the stress corners shrink until rules get evicted).
  sw::EvictionPolicy eviction_policy = sw::EvictionPolicy::Lru;

  [[nodiscard]] bool has_fabric() const { return fabric_switches > 0; }

  [[nodiscard]] bool has_mmu() const { return mmu; }

  [[nodiscard]] bool has_telemetry() const { return telemetry; }

  [[nodiscard]] bool has_link_faults() const { return fabric_flap_mean_up_s > 0.0; }

  [[nodiscard]] bool has_channel_faults() const {
    return chan_loss_to_controller > 0.0 || chan_loss_to_switch > 0.0 ||
           chan_duplicate_prob > 0.0 || chan_extra_delay > sim::SimTime::zero() ||
           outage_len > sim::SimTime::zero();
  }

  // One-line parameter dump for failure reports.
  [[nodiscard]] std::string describe() const;

  // The channel fault profile the scenario arms on every control channel of
  // the single-switch rig and of the fabric cross-check (inert when
  // has_channel_faults() is false).
  [[nodiscard]] of::FaultProfile fault_profile() const;

  // The run_experiment configuration for one buffer mechanism (observer not
  // yet wired; run_scenario does that).
  [[nodiscard]] core::ExperimentConfig experiment_config(sw::BufferMode mode) const;

  // Fills `m` from the scenario's MMU draws (no-op fields untouched when the
  // dimension is off; callers gate on has_mmu()).
  void apply_mmu(sw::mmu::MmuConfig& m) const;
};

// Deterministic seed -> scenario mapping covering the paper's operating
// envelope plus stress corners: undersized buffers, tiny flow tables
// (eviction), controller fault injection (Algorithm 1 re-request), stats
// polling, the piggyback ablation and control-channel faults
// (loss/duplication/jitter/outage). `force_faults` guarantees the sampled
// scenario exercises the channel fault plane (used by the CI smoke step);
// `force_fabric` likewise guarantees the fabric cross-check fires, where the
// channel faults are armed on every control channel. `force_link_faults`
// implies a fabric and
// guarantees data-plane flap schedules on its inter-switch links.
// `force_telemetry` guarantees the observatory ledger cross-check attaches
// (its draws are appended after the fabric and link-fault draws, so forcing
// it never perturbs the scenario a seed already maps to).
// `force_mmu` guarantees the shared-memory MMU arbitrates every run (its
// draws are appended after the telemetry draws, same discipline). The
// eviction-policy draw comes after those; `force_eviction` pins the policy
// and, when the base draw left the flow table large, shrinks it so the
// policy actually picks victims.
[[nodiscard]] Scenario sample_scenario(std::uint64_t seed, bool force_faults = false,
                                       bool force_fabric = false,
                                       bool force_link_faults = false,
                                       bool force_telemetry = false,
                                       bool force_mmu = false,
                                       std::optional<sw::EvictionPolicy> force_eviction = {});

struct ModeOutcome {
  sw::BufferMode mode = sw::BufferMode::NoBuffer;
  core::ExperimentResult result;
  std::uint64_t violations = 0;
  std::uint64_t events = 0;
  std::string report;                // registry digest (violations or "ok")
  std::vector<PayloadId> delivered;  // sorted payload multiset
};

struct ScenarioOutcome {
  Scenario scenario;
  std::array<ModeOutcome, 3> modes;  // NoBuffer, PacketGranularity, FlowGranularity
  std::vector<std::string> failures;  // empty = scenario passed

  // Fabric cross-check accounting (zero when the scenario has no fabric).
  std::uint64_t fabric_events = 0;
  std::uint64_t fabric_delivered = 0;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

[[nodiscard]] ScenarioOutcome run_scenario(const Scenario& scenario);

}  // namespace sdnbuf::verify
