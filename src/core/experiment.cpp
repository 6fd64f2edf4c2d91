#include "core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace sdnbuf::core {

namespace {

// The paper rig's ports: Host1 on port 1, Host2 on port 2 (chain_fabric).
constexpr std::uint16_t kHost1Port = 1;
constexpr std::uint16_t kHost2Port = 2;

// Registers the per-component instruments and poll gauges into `registry`
// and installs the instrument bundles. Called after warm-up so histograms
// record only the measurement window. Poll callbacks reference the testbed;
// the caller clears them (clear_polls) before the testbed dies.
void install_metrics(obs::MetricsRegistry& registry, FabricTestbed& bed,
                     const ExperimentConfig& config) {
  registry.set_meta("mechanism", sw::buffer_mode_name(config.mode));
  registry.set_meta("rate_mbps", util::format_double(config.rate_mbps, 6));
  registry.set_meta("seed", std::to_string(config.seed));
  registry.set_meta("snapshot_interval_ms",
                    util::format_double(config.metrics_interval.ms(), 6));

  sw::Switch& ovs = bed.switch_at(0);
  of::Channel& channel = bed.channel_at(0);
  bed.install_component_histograms(registry);

  obs::EgressInstruments ei;
  ei.queue_depth = &registry.histogram("egress.queue_depth", 1.0);
  ovs.port_scheduler(kHost1Port).set_instruments(ei);
  ovs.port_scheduler(kHost2Port).set_instruments(ei);

  // Poll gauges: sampled only at snapshot instants, so the repo's existing
  // statistics become time series at zero hot-path cost. The occupancy
  // columns are Fig. 8 / Fig. 13 over time instead of end-of-run scalars.
  registry.register_poll("buffer.units_in_use", [&ovs]() {
    const auto* occ = ovs.buffer_occupancy();
    return occ == nullptr ? 0.0 : static_cast<double>(occ->current());
  });
  registry.register_poll("buffer.occupancy_twa", [&ovs, &bed]() {
    const auto* occ = ovs.buffer_occupancy();
    return occ == nullptr ? 0.0 : occ->time_weighted_mean(bed.sim().now());
  });
  registry.register_poll("buffer.occupancy_max", [&ovs]() {
    const auto* occ = ovs.buffer_occupancy();
    return occ == nullptr ? 0.0 : static_cast<double>(occ->max());
  });
  registry.register_poll("switch.pkt_ins_sent", [&ovs]() {
    return static_cast<double>(ovs.counters().pkt_ins_sent);
  });
  registry.register_poll("channel.to_controller_msgs", [&channel]() {
    return static_cast<double>(channel.to_controller_counters().total_count());
  });
  registry.register_poll("sink.packets_delivered", [&bed]() {
    return static_cast<double>(bed.sink_at(1).packets_received());
  });
  // True per-port high-water marks (updated at every enqueue), alongside the
  // polled egress.queue_depth gauge which can alias past transient bursts.
  registry.register_poll("egress.highwater_packets.port1", [&ovs]() {
    return static_cast<double>(ovs.port_scheduler(kHost1Port).highwater_packets());
  });
  registry.register_poll("egress.highwater_packets.port2", [&ovs]() {
    return static_cast<double>(ovs.port_scheduler(kHost2Port).highwater_packets());
  });
  if (config.observatory != nullptr) config.observatory->install_metrics(registry);
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  FabricConfig fc = config.testbed;
  SDNBUF_CHECK_MSG(fc.topology.n_switches() == 1 && fc.topology.n_hosts() == 2,
                   "run_experiment needs the one-switch, two-host rig (chain_fabric(1))");
  SDNBUF_CHECK_MSG(fc.routing == FabricRouting::L2Learning,
                   "run_experiment needs L2-learning routing");
  SDNBUF_CHECK_MSG(fc.observers.empty() && fc.observatory == nullptr,
                   "set observer/observatory on ExperimentConfig, not on its testbed template");
  fc.seed = config.seed;
  fc.switch_config.buffer_mode = config.mode;
  fc.switch_config.buffer_capacity = config.buffer_capacity;
  fc.observatory = config.observatory;

  // The tracer rides the same observation points as the invariant checker:
  // teed with it when both are wanted (the tee lives on this frame,
  // outliving the bed), wired directly when alone.
  std::unique_ptr<verify::TeeObserver> tee;
  if (verify::InvariantObserver* observer = verify::join(config.observer, config.tracer, tee)) {
    fc.observers.push_back(observer);
  }

  metrics::DelayRecorder recorder;
  FabricTestbed bed{fc};
  sw::Switch& ovs = bed.switch_at(0);
  of::Channel& channel = bed.channel_at(0);
  host::HostSink& sink2 = bed.sink_at(1);
  bed.set_delay_recorder(&recorder);
  if (config.capture != nullptr) config.capture->attach(channel);
  if (config.profiler != nullptr) bed.sim().set_profile_sink(config.profiler);
  bed.warm_up();

  std::optional<obs::MetricsSnapshotter> snapshotter;
  if (config.metrics != nullptr) {
    install_metrics(*config.metrics, bed, config);
    snapshotter.emplace(bed.sim(), *config.metrics, config.metrics_interval);
    snapshotter->start();
  }

  host::TrafficConfig traffic;
  traffic.rate_mbps = config.rate_mbps;
  traffic.frame_size = config.frame_size;
  traffic.n_flows = config.n_flows;
  traffic.packets_per_flow = config.packets_per_flow;
  traffic.order = config.order;
  traffic.batch_size = config.batch_size;
  traffic.tcp_flow_fraction = config.tcp_flow_fraction;
  traffic.src_mac = FabricTestbed::host1_mac();
  traffic.dst_mac = FabricTestbed::host2_mac();
  traffic.src_ip_base = FabricTestbed::host1_ip();
  traffic.dst_ip = FabricTestbed::host2_ip();

  host::TrafficGenerator gen{bed.sim(), traffic, config.seed * 7919u + 3,
                             [&bed](const net::Packet& p) { bed.inject_from_host(0, p); }};
  gen.start();

  const std::uint64_t expected = gen.total_packets();
  const sim::SimTime send_duration = gen.nominal_gap().scaled(static_cast<double>(expected));
  const sim::SimTime deadline =
      bed.sim().now() + send_duration.scaled(1.5) + config.drain_timeout;

  // Run in slices so we can stop as soon as everything is delivered.
  const sim::SimTime slice = sim::SimTime::milliseconds(20);
  while (bed.sim().now() < deadline && sink2.packets_received() < expected) {
    bed.sim().run_until(std::min(bed.sim().now() + slice, deadline));
  }
  // Let in-flight control traffic settle, then stop housekeeping and drain.
  // The snapshotter's recurring tick must stop too, or the drain never runs
  // out of events.
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(50));
  if (snapshotter) snapshotter->stop();
  bed.stop();
  bed.sim().run();
  if (config.tracer != nullptr) config.tracer->finalize(bed.sim().now());
  if (config.metrics != nullptr) {
    config.metrics->take_snapshot(bed.sim().now());  // final row, post-drain
    config.metrics->clear_polls();                   // testbed dies with this frame
  }

  const sim::SimTime t0 = bed.measurement_start();
  const sim::SimTime t1 = sink2.last_arrival() > t0 ? sink2.last_arrival() : bed.sim().now();

  ExperimentResult r;
  r.duration_s = (t1 - t0).sec();
  r.to_controller_mbps = bed.control_link_at(0).forward().tap().load_mbps(t0, t1);
  r.to_switch_mbps = bed.control_link_at(0).reverse().tap().load_mbps(t0, t1);
  r.controller_cpu_pct = bed.controller().cpu().utilization_percent(t0, t1);
  r.switch_cpu_pct = ovs.cpu().utilization_percent(t0, t1);
  r.bus_utilization_pct = ovs.bus().utilization_percent(t0, t1);

  auto delays = recorder.finalize();
  r.setup_ms = std::move(delays.setup_ms);
  r.controller_ms = std::move(delays.controller_ms);
  r.switch_ms = std::move(delays.switch_ms);
  r.forwarding_ms = std::move(delays.forwarding_ms);
  r.flows_complete = delays.flows_complete;

  if (const auto* occ = ovs.buffer_occupancy(); occ != nullptr) {
    r.buffer_avg_units = occ->time_weighted_mean(t1);
    r.buffer_max_units = static_cast<double>(occ->max());
  }

  const auto& sc = ovs.counters();
  r.pkt_ins_sent = sc.pkt_ins_sent;
  r.full_frame_pkt_ins = sc.full_frame_pkt_ins;
  r.resend_pkt_ins = sc.resend_pkt_ins;
  const auto& cc = bed.controller().counters();
  r.flow_mods = cc.flow_mods_sent;
  r.pkt_outs = cc.pkt_outs_sent;
  r.stats_requests = cc.stats_requests_sent;
  r.pkt_ins_dropped = cc.pkt_ins_dropped;
  r.int_stamps = sc.int_stamps_applied;
  if (const auto* mmu = ovs.mmu(); mmu != nullptr) {
    r.mmu_rejected = mmu->total_rejected();
    r.mmu_peak_pool_cells = mmu->peak_pool_cells();
  }
  // Fold the telemetry event log inside the measured run — the collector
  // cost is part of what the overhead benchmark charges telemetry for.
  if (config.observatory != nullptr) config.observatory->flush();

  const auto& up = channel.to_controller_counters();
  const auto& down = channel.to_switch_counters();
  r.to_controller_msgs = up.total_count();
  r.to_switch_msgs = down.total_count();
  r.to_controller_bytes = up.total_bytes();
  r.to_switch_bytes = down.total_bytes();
  r.echo_msgs = up.count(of::MsgType::EchoRequest) + up.count(of::MsgType::EchoReply) +
                down.count(of::MsgType::EchoRequest) + down.count(of::MsgType::EchoReply);
  r.hello_msgs = up.count(of::MsgType::Hello) + down.count(of::MsgType::Hello);
  r.error_msgs = up.count(of::MsgType::Error) + down.count(of::MsgType::Error);
  r.flow_samples = up.count(of::MsgType::Vendor);

  const auto& faults = channel.fault_counters();
  r.channel_lost_msgs = faults.total_lost();
  r.channel_duplicated_msgs = faults.total_duplicated();
  r.channel_outage_dropped_msgs = faults.total_outage_dropped();
  r.connection_losses = sc.connection_losses;
  r.reconnects = sc.reconnects;
  r.failsecure_dropped = sc.failsecure_dropped;
  r.standalone_forwarded = sc.standalone_forwarded;
  r.resend_cap_expired = sc.resend_cap_expired;
  r.reconcile_rerequests = sc.reconcile_rerequests;
  r.reconcile_expired = sc.reconcile_expired;
  if (ovs.last_restored_at() > t0) {
    r.last_reconnect_s = (ovs.last_restored_at() - t0).sec();
  }

  r.packets_sent = gen.packets_emitted();
  r.packets_delivered = sink2.packets_received();
  r.duplicates = sink2.duplicate_packets();
  r.drained = r.packets_delivered >= expected;
  return r;
}

std::string summarize(const ExperimentResult& r) {
  std::ostringstream os;
  os << "load(up/down)=" << util::format_double(r.to_controller_mbps, 3) << '/'
     << util::format_double(r.to_switch_mbps, 3) << " Mbps"
     << "  cpu(sw/ctrl)=" << util::format_double(r.switch_cpu_pct, 1) << "%/"
     << util::format_double(r.controller_cpu_pct, 1) << '%'
     << "  setup=" << util::format_double(r.setup_ms.mean(), 3) << " ms"
     << "  pkt_in=" << r.pkt_ins_sent << " (full " << r.full_frame_pkt_ins << ")"
     << "  delivered=" << r.packets_delivered << '/' << r.packets_sent;
  if (r.buffer_max_units > 0) {
    os << "  buf(avg/max)=" << util::format_double(r.buffer_avg_units, 1) << '/'
       << util::format_double(r.buffer_max_units, 0);
  }
  if (r.channel_lost_msgs + r.channel_duplicated_msgs + r.channel_outage_dropped_msgs > 0) {
    os << "  chan(lost/dup/outage)=" << r.channel_lost_msgs << '/' << r.channel_duplicated_msgs
       << '/' << r.channel_outage_dropped_msgs;
  }
  if (r.connection_losses > 0) {
    os << "  conn(losses/reconnects)=" << r.connection_losses << '/' << r.reconnects;
  }
  if (r.echo_msgs > 0) os << "  echo=" << r.echo_msgs;
  return os.str();
}

}  // namespace sdnbuf::core
