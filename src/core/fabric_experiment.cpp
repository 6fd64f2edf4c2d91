#include "core/fabric_experiment.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "util/check.hpp"

namespace sdnbuf::core {

FabricExperimentResult run_fabric_experiment(const FabricExperimentConfig& config) {
  SDNBUF_CHECK_MSG(config.routing != FabricRouting::L2Learning,
                   "fabric experiments need topology routing (L2 flooding loops)");

  SDNBUF_CHECK_MSG(config.fabric.observers.empty() && config.fabric.observatory == nullptr,
                   "set observers/observatory on FabricExperimentConfig, not on its fabric "
                   "template");

  FabricConfig fc = config.fabric;
  fc.topology = config.topology;
  fc.routing = config.routing;
  fc.seed = config.seed;
  fc.switch_config.buffer_mode = config.mode;
  fc.switch_config.buffer_capacity = config.buffer_capacity;
  fc.observers = config.observers;
  fc.link_faults = config.link_faults;
  fc.switch_crashes = config.switch_crashes;
  fc.observatory = config.observatory;

  FabricTestbed bed(fc);
  // Topology routing needs no learning warm-up; the measurement window opens
  // immediately.
  bed.reset_statistics();

  // Closed-loop plumbing: emitted packets go through the reliable sender,
  // and every sink's first-copy delivery acks (and, when a timeline is
  // requested, bins) the packet. Fault-free open-loop runs leave all of this
  // untouched — the sink callback is only installed when needed.
  std::optional<host::ReliableSender> sender;
  if (config.closed_loop) {
    sender.emplace(bed.sim(), config.reliable,
                   [&bed](unsigned src, const net::Packet& p) { bed.inject_from_host(src, p); });
  }
  std::vector<std::uint64_t> delivered_per_bin;
  const sim::SimTime bin = config.delivery_bin;
  const sim::SimTime bins_t0 = bed.sim().now();
  if (config.closed_loop || bin > sim::SimTime::zero()) {
    for (unsigned h = 0; h < bed.n_hosts(); ++h) {
      bed.sink_at(h).set_on_receive([&, bin, bins_t0](const net::Packet& p) {
        if (bin > sim::SimTime::zero()) {
          const auto idx = static_cast<std::size_t>((bed.sim().now() - bins_t0).ns() / bin.ns());
          if (idx >= delivered_per_bin.size()) delivered_per_bin.resize(idx + 1, 0);
          ++delivered_per_bin[idx];
        }
        if (sender) sender->acknowledge(p);
      });
    }
  }

  std::optional<obs::MetricsSnapshotter> snapshotter;
  if (config.metrics != nullptr) {
    config.metrics->set_meta("mechanism", sw::buffer_mode_name(config.mode));
    config.metrics->set_meta("pattern", host::traffic_pattern_name(config.pattern));
    config.metrics->set_meta("seed", std::to_string(config.seed));
    bed.install_metrics(*config.metrics);
    snapshotter.emplace(bed.sim(), *config.metrics, config.metrics_interval);
    snapshotter->start();
  }

  host::TrafficMatrixConfig tm;
  tm.pattern = config.pattern;
  for (unsigned h = 0; h < bed.n_hosts(); ++h) {
    tm.host_macs.push_back(topo::Topology::host_mac(h));
    tm.host_ips.push_back(topo::Topology::host_ip(h));
  }
  tm.incast_target = config.incast_target;
  tm.incast_fanin = config.incast_fanin;
  tm.duration_s = config.duration_s;
  tm.flow_arrival_per_s = config.flow_arrival_per_s;
  tm.pareto_alpha = config.pareto_alpha;
  tm.min_packets = config.min_packets;
  tm.max_packets = config.max_packets;
  tm.in_flow_rate_mbps = config.in_flow_rate_mbps;
  tm.frame_size = config.frame_size;

  host::TrafficMatrixWorkload gen{bed.sim(), tm, config.seed * 7919u + 3,
                                 [&bed, &sender](unsigned src, const net::Packet& p) {
                                   if (sender) {
                                     sender->offer(src, p);
                                   } else {
                                     bed.inject_from_host(src, p);
                                   }
                                 }};
  gen.start();

  // Arrivals end at the horizon; the longest flow can keep pacing packets for
  // max_packets gaps after that. Only once emission is provably over does
  // "delivered == emitted" mean the run is done.
  const sim::SimTime per_packet_gap =
      sim::transmission_time(config.frame_size, config.in_flow_rate_mbps * 1e6);
  const sim::SimTime horizon = bed.sim().now() + sim::SimTime::from_seconds(config.duration_s);
  const sim::SimTime emission_done =
      horizon + per_packet_gap.scaled(1.5 * static_cast<double>(config.max_packets) + 1.0);
  const sim::SimTime deadline = emission_done + config.drain_timeout;

  const sim::SimTime slice = sim::SimTime::milliseconds(20);
  const auto work_remains = [&]() {
    if (sender) return sender->outstanding() > 0;
    return bed.total_delivered() < gen.packets_emitted();
  };
  while (bed.sim().now() < deadline && (bed.sim().now() < emission_done || work_remains())) {
    bed.sim().run_until(std::min(bed.sim().now() + slice, deadline));
  }
  // Let in-flight control traffic settle, then stop housekeeping and drain.
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(50));
  if (snapshotter) snapshotter->stop();
  if (sender) sender->stop();
  bed.stop();
  bed.sim().run();
  if (config.metrics != nullptr) {
    config.metrics->take_snapshot(bed.sim().now());  // final row, post-drain
    config.metrics->clear_polls();  // testbed dies with this frame
  }

  const sim::SimTime t0 = bed.measurement_start();
  const sim::SimTime t1 = bed.sim().now();

  FabricExperimentResult r;
  r.flows = gen.flows_started();
  r.packets_sent = gen.packets_emitted();
  r.packets_delivered = bed.total_delivered();
  r.duplicates = bed.total_duplicates();
  r.pkt_ins = bed.total_pkt_ins();
  const ctrl::ControllerCounters& cc = bed.controller().counters();
  r.full_frame_pkt_ins = cc.full_frame_pkt_ins;
  r.flow_mods = cc.flow_mods_sent;
  r.pkt_outs = cc.pkt_outs_sent;
  r.path_preinstalls = cc.path_preinstalls;
  r.unroutable_drops = cc.unroutable_drops;
  r.control_msgs = bed.total_control_msgs();
  r.control_bytes = bed.total_control_bytes();
  r.duration_s = (t1 - t0).sec();
  if (r.duration_s > 0) {
    r.control_mbps = static_cast<double>(r.control_bytes) * 8.0 / r.duration_s / 1e6;
  }
  r.first_packet_ms = bed.first_packet_ms();
  r.buffer_avg_units = bed.buffer_occupancy_mean_sum();
  r.buffer_max_units = static_cast<double>(bed.buffer_occupancy_max_sum());
  r.delivered = bed.delivered_payloads();

  r.link_fault_drops = bed.total_link_fault_drops();
  r.port_status_seen = cc.port_status_seen;
  r.rules_invalidated = cc.rules_invalidated;
  r.link_down_events = cc.link_down_events;
  for (unsigned i = 0; i < bed.n_switches(); ++i) {
    r.switch_crashes += bed.switch_at(i).counters().crashes;
    r.buffer_units_expired += bed.switch_at(i).counters().buffer_units_expired;
    r.flow_samples += bed.switch_at(i).counters().flow_samples_sent;
    r.int_stamps += bed.switch_at(i).counters().int_stamps_applied;
  }
  r.mmu_rejected = bed.total_mmu_rejected();
  r.mmu_peak_pool_cells = bed.mmu_peak_pool_cells_sum();
  r.flow_samples_seen = cc.flow_samples_seen;
  // Fold the telemetry event log inside the measured run — the collector
  // cost is part of what the overhead benchmark charges telemetry for.
  if (config.observatory != nullptr) config.observatory->flush();
  r.delivered_per_bin = std::move(delivered_per_bin);
  r.last_fault_clear = bed.last_fault_clear();
  if (sender) {
    const host::ReliableSenderCounters& sc = sender->counters();
    r.unique_offered = sc.offered;
    r.unique_acked = sc.acked;
    r.retransmits = sc.retransmits;
    r.abandoned = sc.abandoned;
    // Closed loop: drained means every offered packet was finally delivered
    // (spurious-retransmit duplicates at the sinks are expected and benign).
    r.drained = sc.acked == sc.offered && sender->outstanding() == 0;
  } else {
    r.drained = r.packets_delivered == r.packets_sent && r.duplicates == 0;
  }
  return r;
}

}  // namespace sdnbuf::core
