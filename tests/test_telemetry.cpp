// Tests for the in-fabric telemetry plane (DESIGN.md §15): INT per-hop
// stamping and harvest, the drop-attribution fate ledger, deterministic
// NetFlow-style sampling with the controller's FlowMonitor, the FlowSample
// vendor codec, egress high-water marks, and the telemetry-off bit-identity
// contract.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "core/fabric_testbed.hpp"
#include "controller/flow_monitor.hpp"
#include "net/link.hpp"
#include "obs/fabric_observatory.hpp"
#include "openflow/constants.hpp"
#include "openflow/messages.hpp"
#include "switchd/egress_scheduler.hpp"
#include "topo/topology.hpp"

using namespace sdnbuf;

namespace {

net::Packet host_packet(unsigned src, unsigned dst, std::uint16_t src_port,
                        std::uint64_t flow_id, std::uint32_t seq = 0) {
  net::Packet p = net::make_udp_packet(
      topo::Topology::host_mac(src), topo::Topology::host_mac(dst),
      topo::Topology::host_ip(src), topo::Topology::host_ip(dst), src_port, 9, 1000);
  p.flow_id = flow_id;
  p.seq_in_flow = seq;
  return p;
}

void drain(core::FabricTestbed& bed, sim::SimTime grace = sim::SimTime::milliseconds(200)) {
  bed.sim().run_until(bed.sim().now() + grace);
  bed.stop();
  bed.sim().run();
}

core::FabricConfig leaf_spine_config(obs::FabricObservatory* obsy, unsigned int_depth,
                                     std::uint32_t sample_period = 0) {
  core::FabricConfig config;
  config.topology = topo::make_leaf_spine(2, 2, 2);
  config.routing = core::FabricRouting::TopologyPerHop;
  config.switch_config.buffer_mode = sw::BufferMode::PacketGranularity;
  config.switch_config.buffer_capacity = 256;
  config.switch_config.telemetry_int_depth = int_depth;
  config.switch_config.telemetry_sample_period = sample_period;
  config.observatory = obsy;
  return config;
}

of::FlowSample sample_record(std::uint32_t seq, std::uint32_t src_ip = 0x0a010001,
                             std::uint16_t src_port = 20000) {
  of::FlowSample s;
  s.sample_seq = seq;
  s.src_ip = src_ip;
  s.dst_ip = 0x0a020001;
  s.src_port = src_port;
  s.dst_port = 9;
  s.in_port = 1;
  s.frame_bytes = 1000;
  s.protocol = 17;
  return s;
}

}  // namespace

// --- FlowSample vendor codec ---

TEST(FlowSampleCodec, RoundTripsThroughTheWire) {
  of::FlowSample s = sample_record(7);
  s.xid = 99;
  const std::vector<std::uint8_t> wire = of::encode_message(s);
  EXPECT_EQ(wire.size(), of::kVendorFlowSampleSize);
  const auto back = of::decode_message(wire);
  ASSERT_TRUE(back.has_value());
  const auto* decoded = std::get_if<of::FlowSample>(&*back);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(*decoded, s);
}

// --- fate taxonomy ---

TEST(FateTaxonomy, DropSitesClassify) {
  using obs::PacketFate;
  EXPECT_EQ(obs::classify_drop_site("egress-queue"), PacketFate::QueueFull);
  EXPECT_EQ(obs::classify_drop_site("flood-queue"), PacketFate::QueueFull);
  EXPECT_EQ(obs::classify_drop_site("link-down"), PacketFate::LinkFault);
  EXPECT_EQ(obs::classify_drop_site("port-down"), PacketFate::LinkFault);
  EXPECT_EQ(obs::classify_drop_site("switch-crashed"), PacketFate::LinkFault);
  EXPECT_EQ(obs::classify_drop_site("no-actions"), PacketFate::TableMissStorm);
  EXPECT_EQ(obs::classify_drop_site("hop-limit"), PacketFate::HopLimit);
  EXPECT_EQ(obs::classify_drop_site("fail-secure"), PacketFate::FailSecure);
  EXPECT_EQ(obs::classify_drop_site("unknown-port"), PacketFate::Other);
  EXPECT_EQ(obs::classify_drop_site(nullptr), PacketFate::Other);
}

// --- ledger state machine ---

TEST(FateLedger, FirstFateWinsAndDeliveryRetracts) {
  obs::FabricObservatory obsy;
  net::Packet p = host_packet(0, 1, 10000, 1);
  const auto t = sim::SimTime::milliseconds(1);

  obsy.on_injected(p, t);
  obsy.on_injected(p, t);  // retransmit of the same payload: idempotent
  EXPECT_EQ(obsy.injected(), 1u);

  obsy.on_fate(p, obs::PacketFate::QueueFull, "s1", "egress-queue", t);
  obsy.on_fate(p, obs::PacketFate::LinkFault, "s2", "link-down", t);  // later fate ignored
  EXPECT_EQ(obsy.discarded_fate_reports(), 1u);
  EXPECT_EQ(obsy.fated(), 1u);
  EXPECT_EQ(obsy.fate_count(obs::PacketFate::QueueFull), 1u);
  EXPECT_EQ(obsy.fate_count(obs::PacketFate::LinkFault), 0u);
  EXPECT_EQ(obsy.stranded(), 0u);

  // A duplicate copy makes it through: delivery wins, the fate is retracted.
  obsy.on_delivered(p, t);
  EXPECT_EQ(obsy.delivered(), 1u);
  EXPECT_EQ(obsy.fated(), 0u);
  EXPECT_EQ(obsy.retracted_fates(), 1u);
  EXPECT_EQ(obsy.injected(), obsy.delivered() + obsy.fated() + obsy.stranded());

  // A fate for a payload never injected is observed but not ledgered.
  net::Packet foreign = host_packet(0, 1, 10001, 2);
  obsy.on_fate(foreign, obs::PacketFate::Other, "s1", "unknown-port", t);
  EXPECT_EQ(obsy.discarded_fate_reports(), 2u);
  EXPECT_EQ(obsy.injected(), 1u);
  EXPECT_EQ(obsy.fate_count(obs::PacketFate::Other), 0u);
}

// --- INT stamping on a real fabric ---

TEST(IntHarvest, StampsRecordTheCrossFabricPath) {
  obs::FabricObservatory obsy;
  core::FabricTestbed bed{leaf_spine_config(&obsy, /*int_depth=*/8)};
  // Host 0 (leaf dpid 1) -> host 3 (leaf dpid 2) must cross a spine (dpid 3/4).
  bed.inject_from_host(0, host_packet(0, 3, 10000, /*flow_id=*/1));
  drain(bed);
  ASSERT_EQ(bed.total_delivered(), 1u);

  EXPECT_EQ(obsy.stamped_deliveries(), 1u);
  EXPECT_EQ(obsy.stamps_harvested(), 3u);  // leaf, spine, leaf
  ASSERT_EQ(obsy.flow_paths().count(1), 1u);
  const obs::FabricObservatory::FlowPath& fp = obsy.flow_paths().at(1);
  ASSERT_EQ(fp.hop_count, 3u);
  EXPECT_EQ(fp.hops()[0].switch_id, 1u);
  EXPECT_EQ(fp.hops()[2].switch_id, 2u);
  EXPECT_TRUE(fp.hops()[1].switch_id == 3u || fp.hops()[1].switch_id == 4u)
      << "middle hop must be a spine";
  EXPECT_FALSE(fp.multipath);
  EXPECT_EQ(fp.packets, 1u);
  EXPECT_GT(fp.e2e_ns_max, 0);

  // One heatmap cell per traversed (switch, egress port); residence is
  // non-negative everywhere.
  EXPECT_EQ(obsy.heatmap().size(), 3u);
  for (const auto& [key, cell] : obsy.heatmap()) {
    EXPECT_EQ(cell.samples, 1u);
    EXPECT_GE(cell.residence_ns_max, 0);
  }

  // Ledger closes: the one tracked payload was injected and delivered.
  EXPECT_EQ(obsy.injected(), 1u);
  EXPECT_EQ(obsy.delivered(), 1u);
  EXPECT_EQ(obsy.fated(), 0u);
  EXPECT_EQ(obsy.stranded(), 0u);
}

TEST(IntHarvest, DepthBoundTruncatesTheStack) {
  obs::FabricObservatory obsy;
  core::FabricTestbed bed{leaf_spine_config(&obsy, /*int_depth=*/2)};
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  drain(bed);
  ASSERT_EQ(bed.total_delivered(), 1u);
  // Only the first two hops fit in the stack.
  EXPECT_EQ(obsy.stamps_harvested(), 2u);
  const obs::FabricObservatory::FlowPath& fp = obsy.flow_paths().at(1);
  ASSERT_EQ(fp.hop_count, 2u);
  EXPECT_EQ(fp.hops()[0].switch_id, 1u);
}

TEST(IntHarvest, CsvExportsAreWellFormed) {
  obs::FabricObservatory obsy;
  core::FabricTestbed bed{leaf_spine_config(&obsy, /*int_depth=*/8)};
  bed.inject_from_host(0, host_packet(0, 3, 10000, 1));
  bed.inject_from_host(1, host_packet(1, 2, 10001, 2));
  drain(bed);

  std::ostringstream heat;
  obsy.write_heatmap_csv(heat);
  EXPECT_EQ(heat.str().substr(0, heat.str().find('\n')),
            "switch_id,port,samples,qdepth_max,qdepth_mean,residence_us_max,"
            "residence_us_mean,buffer_units_max,pool_cells_max,pool_cells_mean,"
            "threshold_min,threshold_max");

  std::ostringstream fates;
  obsy.write_fates_csv(fates);
  EXPECT_NE(fates.str().find("queue-full"), std::string::npos);
  EXPECT_NE(fates.str().find("delivered"), std::string::npos);

  std::ostringstream paths;
  obsy.write_paths_csv(paths);
  EXPECT_NE(paths.str().find("flow_id"), std::string::npos);

  std::ostringstream summary;
  obsy.write_summary_json(summary);
  EXPECT_NE(summary.str().find("\"injected\""), std::string::npos);
}

// --- deterministic sampling + FlowMonitor end to end (single switch) ---

TEST(Sampling, PeriodOneSamplesEveryPacketIntoTheMonitor) {
  core::FabricConfig tb = core::chain_fabric(1);
  tb.switch_config.telemetry_sample_period = 1;
  tb.switch_config.telemetry_int_depth = 4;
  tb.controller_config.flow_monitor_enabled = true;
  core::FabricTestbed bed{tb};
  bed.warm_up();
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    for (std::uint64_t flow = 1; flow <= 2; ++flow) {
      net::Packet p = net::make_udp_packet(
          bed.host1_mac(), bed.host2_mac(), bed.host1_ip(), bed.host2_ip(),
          static_cast<std::uint16_t>(20000 + flow), 7, 400);
      p.flow_id = flow;
      p.seq_in_flow = seq;
      bed.inject_from_host(0, p);
    }
  }
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(500));
  bed.stop();
  bed.sim().run();

  const sw::SwitchCounters& sc = bed.switch_at(0).counters();
  EXPECT_EQ(sc.flow_samples_sent, 10u);   // 1-in-1: every ingress frame
  EXPECT_EQ(sc.int_stamps_applied, 10u);  // single hop, depth 4
  EXPECT_EQ(bed.controller().counters().flow_samples_seen, 10u);

  ctrl::FlowMonitor* monitor = bed.controller().flow_monitor();
  ASSERT_NE(monitor, nullptr);
  EXPECT_EQ(monitor->counters().samples_seen, 10u);
  EXPECT_EQ(monitor->counters().samples_lost, 0u);
  EXPECT_EQ(monitor->counters().cache_inserts, 2u);  // two distinct 5-tuples
  EXPECT_EQ(monitor->counters().cache_updates, 8u);

  monitor->flush(bed.sim().now());
  std::uint64_t exported_packets = 0;
  for (const ctrl::FlowRecord& rec : monitor->exported()) {
    exported_packets += rec.sampled_packets;
    EXPECT_EQ(rec.datapath_id, 1u);
  }
  EXPECT_EQ(exported_packets, 10u);
}

TEST(Sampling, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t salt) {
    core::FabricConfig tb = core::chain_fabric(1);
    tb.switch_config.telemetry_sample_period = 4;
    tb.switch_config.telemetry_sample_salt = salt;
    core::FabricTestbed bed{tb};
    bed.warm_up();
    for (std::uint32_t seq = 0; seq < 32; ++seq) {
      net::Packet p = net::make_udp_packet(
          bed.host1_mac(), bed.host2_mac(), bed.host1_ip(), bed.host2_ip(),
          static_cast<std::uint16_t>(21000 + (seq % 8)), 7, 400);
      p.flow_id = 1 + (seq % 8);
      p.seq_in_flow = seq / 8;
      bed.inject_from_host(0, p);
    }
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(500));
    bed.stop();
    bed.sim().run();
    return bed.switch_at(0).counters().flow_samples_sent;
  };
  const std::uint64_t a = run_once(0);
  const std::uint64_t b = run_once(0);
  EXPECT_EQ(a, b) << "sampling must be deterministic for a fixed salt";
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 32u) << "1-in-4 sampling should not take everything";
}

// --- FlowMonitor cache machinery (unit level) ---

TEST(FlowMonitor, SeqGapsCountAsChannelLoss) {
  sim::Simulator sim;
  ctrl::FlowMonitor monitor{sim, ctrl::FlowMonitorConfig{}};
  monitor.on_sample(1, sample_record(0), sim.now());
  monitor.on_sample(1, sample_record(5), sim.now());  // 1..4 lost on the channel
  monitor.on_sample(2, sample_record(0), sim.now());  // separate dpid namespace
  EXPECT_EQ(monitor.counters().samples_seen, 3u);
  EXPECT_EQ(monitor.counters().samples_lost, 4u);
}

TEST(FlowMonitor, IdleTimeoutExportsAndEvicts) {
  sim::Simulator sim;
  ctrl::FlowMonitorConfig config;
  config.idle_timeout = sim::SimTime::milliseconds(100);
  config.active_timeout = sim::SimTime::seconds(60);
  config.sweep_interval = sim::SimTime::milliseconds(50);
  ctrl::FlowMonitor monitor{sim, config};
  monitor.start();
  monitor.on_sample(1, sample_record(0), sim.now());
  sim.run_until(sim::SimTime::milliseconds(400));
  monitor.stop();
  sim.run();
  EXPECT_EQ(monitor.counters().exports_idle, 1u);
  EXPECT_EQ(monitor.cache_size(), 0u);
  ASSERT_EQ(monitor.exported().size(), 1u);
  EXPECT_STREQ(monitor.exported()[0].reason, "idle-timeout");
}

TEST(FlowMonitor, ActiveTimeoutKeepsTheFlowCached) {
  sim::Simulator sim;
  ctrl::FlowMonitorConfig config;
  config.idle_timeout = sim::SimTime::seconds(60);
  config.active_timeout = sim::SimTime::milliseconds(100);
  config.sweep_interval = sim::SimTime::milliseconds(50);
  ctrl::FlowMonitor monitor{sim, config};
  monitor.start();
  // Keep the flow hot past several active timeouts.
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(sim::SimTime::milliseconds(40 * i), [&monitor, i, &sim]() {
      monitor.on_sample(1, sample_record(static_cast<std::uint32_t>(i)), sim.now());
    });
  }
  sim.run_until(sim::SimTime::milliseconds(450));
  monitor.stop();
  sim.run();
  EXPECT_GE(monitor.counters().exports_active, 2u);
  EXPECT_EQ(monitor.cache_size(), 1u) << "active export must not evict";
}

TEST(FlowMonitor, CachePressureEvictsLeastRecentlyUpdated) {
  sim::Simulator sim;
  ctrl::FlowMonitorConfig config;
  config.cache_capacity = 2;
  ctrl::FlowMonitor monitor{sim, config};
  monitor.on_sample(1, sample_record(0, 0x0a010001, 20000), sim.now());
  monitor.on_sample(1, sample_record(1, 0x0a010002, 20001), sim.now());
  monitor.on_sample(1, sample_record(2, 0x0a010003, 20002), sim.now());
  EXPECT_EQ(monitor.cache_size(), 2u);
  EXPECT_EQ(monitor.counters().exports_evicted, 1u);
  ASSERT_EQ(monitor.exported().size(), 1u);
  EXPECT_STREQ(monitor.exported()[0].reason, "evicted");

  monitor.flush(sim.now());
  EXPECT_EQ(monitor.cache_size(), 0u);
  EXPECT_EQ(monitor.counters().exports_final, 2u);

  std::ostringstream csv;
  monitor.write_exports_csv(csv);
  EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
            "datapath_id,src_ip,dst_ip,src_port,dst_port,protocol,packets,bytes,"
            "first_us,last_us,reason");
}

// --- egress high-water marks ---

TEST(HighWater, EnqueueBurstRaisesTheMark) {
  sim::Simulator sim;
  net::Link link{sim, "egress", 100e6, sim::SimTime::zero()};
  sw::EgressSchedulerConfig config;
  std::vector<net::Packet> delivered;
  sw::EgressScheduler sched{sim, config, link,
                            [&delivered](const net::Packet& p) { delivered.push_back(p); }};
  EXPECT_EQ(sched.highwater_packets(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    net::Packet p = host_packet(0, 1, static_cast<std::uint16_t>(10000 + i), 1, i);
    ASSERT_TRUE(sched.enqueue(p));
  }
  // All five enqueued at the same instant: one is immediately in flight, the
  // rest queue behind it — the high-water mark saw the peak.
  EXPECT_EQ(sched.highwater_packets(), 4u);
  EXPECT_GT(sched.highwater_bytes(), 0u);
  sim.run();
  EXPECT_EQ(delivered.size(), 5u);
  // Draining does not lower the mark.
  EXPECT_EQ(sched.highwater_packets(), 4u);
}

// --- fabric-scale ledger totality + bit-identity contract ---

TEST(TelemetryContract, FabricLedgerClosesOnADrainedRun) {
  obs::FabricObservatory obsy;
  core::FabricExperimentConfig cfg;
  cfg.topology = topo::make_leaf_spine(2, 2, 2);
  cfg.mode = sw::BufferMode::PacketGranularity;
  cfg.duration_s = 0.2;
  cfg.flow_arrival_per_s = 200.0;
  cfg.seed = 7;
  cfg.observatory = &obsy;
  cfg.fabric.switch_config.telemetry_int_depth = 8;
  cfg.fabric.switch_config.telemetry_sample_period = 4;
  cfg.fabric.controller_config.flow_monitor_enabled = true;
  const core::FabricExperimentResult r = core::run_fabric_experiment(cfg);

  ASSERT_TRUE(r.drained);
  EXPECT_EQ(obsy.injected(), r.packets_sent);
  EXPECT_EQ(obsy.delivered(), r.packets_delivered);
  EXPECT_EQ(obsy.fated(), 0u);
  EXPECT_EQ(obsy.stranded(), 0u);
  EXPECT_EQ(obsy.injected(), obsy.delivered() + obsy.fated() + obsy.stranded());

  EXPECT_GT(r.int_stamps, 0u);
  EXPECT_GT(r.flow_samples, 0u);
  EXPECT_EQ(r.flow_samples_seen, r.flow_samples) << "fault-free channel: no sample loss";
  EXPECT_EQ(obsy.stamped_deliveries(), r.packets_delivered);
  EXPECT_FALSE(obsy.heatmap().empty());
  EXPECT_LE(obsy.hotspots(3).size(), 3u);
}

TEST(TelemetryContract, PassiveObservatoryPreservesBitIdentity) {
  core::ExperimentConfig base;
  base.mode = sw::BufferMode::PacketGranularity;
  base.n_flows = 40;
  base.packets_per_flow = 2;
  base.rate_mbps = 20.0;
  base.seed = 5;
  const core::ExperimentResult a = core::run_experiment(base);

  obs::FabricObservatory obsy;
  core::ExperimentConfig with = base;
  with.observatory = &obsy;  // ledger on, INT/sampling knobs still off
  const core::ExperimentResult b = core::run_experiment(with);

  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.pkt_ins_sent, b.pkt_ins_sent);
  EXPECT_EQ(a.to_controller_bytes, b.to_controller_bytes);
  EXPECT_EQ(a.to_switch_bytes, b.to_switch_bytes);
  EXPECT_EQ(a.setup_ms.values(), b.setup_ms.values());
  EXPECT_EQ(a.buffer_max_units, b.buffer_max_units);

  // Knobs off: nothing on the wire, nothing stamped.
  EXPECT_EQ(a.flow_samples, 0u);
  EXPECT_EQ(b.flow_samples, 0u);
  EXPECT_EQ(b.int_stamps, 0u);
  EXPECT_EQ(obsy.stamps_harvested(), 0u);

  // The passive ledger still closes exactly.
  EXPECT_EQ(obsy.injected(), b.packets_sent);
  EXPECT_EQ(obsy.delivered(), b.packets_delivered);
  EXPECT_EQ(obsy.injected(), obsy.delivered() + obsy.fated() + obsy.stranded());
}
