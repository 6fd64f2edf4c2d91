// One fabric-scale experiment: a traffic-matrix workload pushed through a
// FabricTestbed under one buffer mechanism and one route-install mode,
// producing the fabric analogues of the paper's control-load / setup-delay /
// occupancy metrics.
#pragma once

#include <cstdint>

#include "core/fabric_testbed.hpp"
#include "host/reliable_sender.hpp"
#include "host/traffic_matrix.hpp"
#include "util/stats.hpp"

namespace sdnbuf::core {

struct FabricExperimentConfig {
  topo::Topology topology;
  FabricRouting routing = FabricRouting::TopologyPerHop;

  // Mechanism under test.
  sw::BufferMode mode = sw::BufferMode::NoBuffer;
  std::size_t buffer_capacity = 256;

  // Traffic matrix (see TrafficMatrixConfig; host addressing is filled in
  // from the topology).
  host::TrafficPattern pattern = host::TrafficPattern::Permutation;
  unsigned incast_target = 0;
  unsigned incast_fanin = 0;
  double duration_s = 0.5;
  double flow_arrival_per_s = 400.0;
  double pareto_alpha = 1.3;
  std::uint32_t min_packets = 2;
  std::uint32_t max_packets = 50;
  double in_flow_rate_mbps = 20.0;
  std::uint32_t frame_size = 1000;

  std::uint64_t seed = 1;

  // Platform template (cost models, link speeds); mode/buffer_capacity/seed
  // above override the corresponding fields. Its observers and observatory
  // must stay unset (the fields below set those); run_fabric_experiment
  // rejects a template that sets them.
  FabricConfig fabric;

  // Extra simulated time allowed for the tail of the run to drain.
  sim::SimTime drain_timeout = sim::SimTime::seconds(5);

  // Per-switch invariant observers (forwarded into FabricConfig::observers;
  // empty = no checking). Call finalize() on the registries afterwards.
  std::vector<verify::InvariantObserver*> observers;

  // Optional metrics registry: per-switch instruments + fabric gauges are
  // installed before the run and polls cleared before return.
  obs::MetricsRegistry* metrics = nullptr;
  sim::SimTime metrics_interval = sim::SimTime::milliseconds(10);

  // Optional telemetry observatory (forwarded into FabricConfig).
  obs::FabricObservatory* observatory = nullptr;

  // --- data-plane fault plane (all inert by default) ---
  // Forwarded into FabricConfig; empty = fault-free, byte-identical runs.
  std::vector<LinkFaultSpec> link_faults;
  std::vector<SwitchCrashSpec> switch_crashes;
  // Closed-loop mode: every emitted packet goes through a ReliableSender
  // that retransmits on timeout until the destination sink acks the first
  // copy — loss becomes re-offered load instead of a silent gap.
  bool closed_loop = false;
  host::ReliableSenderConfig reliable;
  // Delivery timeline: first-copy deliveries per `delivery_bin` of simulated
  // time since the measurement start (zero = disabled). The failover bench
  // compares fault-run bins against a no-fault baseline to measure
  // degradation depth and time-to-recovery.
  sim::SimTime delivery_bin = sim::SimTime::zero();
};

struct FabricExperimentResult {
  // Workload accounting.
  std::uint64_t flows = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t duplicates = 0;

  // Control-path load, fabric-wide (all channels, both directions).
  std::uint64_t pkt_ins = 0;
  std::uint64_t full_frame_pkt_ins = 0;
  std::uint64_t flow_mods = 0;
  std::uint64_t pkt_outs = 0;
  std::uint64_t path_preinstalls = 0;
  std::uint64_t unroutable_drops = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t control_bytes = 0;
  double control_mbps = 0.0;  // control_bytes over the measurement window

  // Telemetry plane (DESIGN.md §15).
  std::uint64_t flow_samples = 0;      // sampled records sent by switches
  std::uint64_t flow_samples_seen = 0; // records received at the controller
  std::uint64_t int_stamps = 0;        // INT hop stamps applied fabric-wide

  // Flow setup delay at fabric scale: first-packet injection-to-delivery.
  util::Samples first_packet_ms;

  // Buffer units summed across switches (Fig. 8 analogue at fabric scale).
  double buffer_avg_units = 0.0;
  double buffer_max_units = 0.0;

  // Sorted delivered payload multiset for cross-mode equality checks.
  std::vector<verify::PayloadId> delivered;

  double duration_s = 0.0;
  bool drained = false;  // every emitted packet was delivered

  // --- fault-plane accounting (zero in fault-free runs) ---
  std::uint64_t link_fault_drops = 0;   // frames eaten by downed links
  std::uint64_t port_status_seen = 0;   // fault notifications at the controller
  std::uint64_t rules_invalidated = 0;  // flow_mod deletes from route repair
  std::uint64_t link_down_events = 0;
  std::uint64_t switch_crashes = 0;
  std::uint64_t buffer_units_expired = 0;  // summed over switches
  // Shared-memory MMU accounting summed over switches (zero with MMU off).
  std::uint64_t mmu_rejected = 0;
  std::uint64_t mmu_peak_pool_cells = 0;
  // Closed-loop accounting (zero when closed_loop is off).
  std::uint64_t unique_offered = 0;
  std::uint64_t unique_acked = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned = 0;
  // First-copy deliveries per delivery_bin since measurement start (empty
  // when delivery_bin is zero).
  std::vector<std::uint64_t> delivered_per_bin;
  sim::SimTime last_fault_clear;  // zero in fault-free runs
};

// Builds the fabric, runs the traffic matrix to completion (or the deadline)
// and harvests the metrics. Requires topology routing (the L2-learning mode
// floods, which is unsafe on looped fabrics).
[[nodiscard]] FabricExperimentResult run_fabric_experiment(const FabricExperimentConfig& config);

}  // namespace sdnbuf::core
