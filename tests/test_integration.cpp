// Integration tests: the full Fig. 1 testbed end to end.
//
// These check the system-level invariants the figures rest on: packet
// conservation under every mechanism, message-count relations (one
// packet_in per miss vs one per flow), the direction of every headline
// comparison (control load, message sizes, buffer occupancy), determinism,
// and the §VI.B rule-eviction scenario.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/fabric_experiment.hpp"
#include "core/sweep.hpp"
#include "host/traffic_gen.hpp"
#include "obs/fabric_observatory.hpp"
#include "topo/topology.hpp"
#include "verify/invariants.hpp"

namespace sdnbuf::core {
namespace {

ExperimentConfig base_config(sw::BufferMode mode, double rate = 50.0) {
  ExperimentConfig c;
  c.mode = mode;
  c.rate_mbps = rate;
  c.n_flows = 200;
  c.packets_per_flow = 1;
  c.seed = 11;
  return c;
}

class MechanismTest : public ::testing::TestWithParam<sw::BufferMode> {};

TEST_P(MechanismTest, EveryPacketDeliveredExactlyOnce) {
  auto config = base_config(GetParam());
  config.packets_per_flow = 4;
  config.order = host::EmissionOrder::CrossSequence;
  const auto r = run_experiment(config);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.packets_delivered, config.n_flows * config.packets_per_flow);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.flows_complete, config.n_flows);
}

TEST_P(MechanismTest, EveryFlowGetsARule) {
  const auto r = run_experiment(base_config(GetParam()));
  EXPECT_EQ(r.flow_mods, 200u);
}

TEST_P(MechanismTest, DeterministicForSameSeed) {
  const auto a = run_experiment(base_config(GetParam()));
  const auto b = run_experiment(base_config(GetParam()));
  EXPECT_EQ(a.to_controller_bytes, b.to_controller_bytes);
  EXPECT_EQ(a.to_switch_bytes, b.to_switch_bytes);
  EXPECT_EQ(a.pkt_ins_sent, b.pkt_ins_sent);
  EXPECT_DOUBLE_EQ(a.setup_ms.mean(), b.setup_ms.mean());
  EXPECT_DOUBLE_EQ(a.switch_cpu_pct, b.switch_cpu_pct);
}

TEST_P(MechanismTest, DifferentSeedsJitter) {
  const auto a = run_experiment(base_config(GetParam()));
  auto config = base_config(GetParam());
  config.seed = 99;
  const auto b = run_experiment(config);
  EXPECT_NE(a.setup_ms.mean(), b.setup_ms.mean());
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, MechanismTest,
                         ::testing::Values(sw::BufferMode::NoBuffer,
                                           sw::BufferMode::PacketGranularity,
                                           sw::BufferMode::FlowGranularity),
                         [](const auto& info) {
                           return std::string(sw::buffer_mode_name(info.param)) == "no-buffer"
                                      ? "NoBuffer"
                                  : info.param == sw::BufferMode::PacketGranularity
                                      ? "PacketGranularity"
                                      : "FlowGranularity";
                         });

TEST(Integration, Singles_OnePacketInPerMissMatchPacket) {
  // Packet-granularity: single-packet flows -> one packet_in per flow.
  const auto r = run_experiment(base_config(sw::BufferMode::PacketGranularity));
  EXPECT_EQ(r.pkt_ins_sent, 200u);
  EXPECT_EQ(r.full_frame_pkt_ins, 0u);  // buffer-256 never exhausts here
}

TEST(Integration, MultiPacketFlows_PacketGranularitySendsManyRequests) {
  auto config = base_config(sw::BufferMode::PacketGranularity, 95.0);
  config.n_flows = 50;
  config.packets_per_flow = 20;
  config.order = host::EmissionOrder::CrossSequence;
  const auto r = run_experiment(config);
  // At 95 Mbps at least one more packet of each flow arrives before the rule
  // lands, and each triggers its own request: strictly more than one per
  // flow, unlike the flow-granularity mechanism.
  EXPECT_GE(r.pkt_ins_sent, 2 * config.n_flows);
  EXPECT_TRUE(r.drained);
}

TEST(Integration, MultiPacketFlows_FlowGranularitySendsOnePerFlow) {
  auto config = base_config(sw::BufferMode::FlowGranularity, 95.0);
  config.n_flows = 50;
  config.packets_per_flow = 20;
  config.order = host::EmissionOrder::CrossSequence;
  const auto r = run_experiment(config);
  // Algorithm 1: one request per flow — up to a handful more when a packet
  // lands in the small window between the whole-flow release and the rule
  // becoming effective (it opens a fresh per-flow buffer, like a new flow).
  EXPECT_GE(r.pkt_ins_sent, 50u);
  EXPECT_LE(r.pkt_ins_sent, 55u);
  EXPECT_EQ(r.resend_pkt_ins, 0u);
  EXPECT_TRUE(r.drained);
  // In-order delivery within each flow is preserved by the whole-flow
  // release; no duplicates are created.
  EXPECT_EQ(r.duplicates, 0u);
}

TEST(Integration, BufferShrinksControlPathLoad) {
  const auto none = run_experiment(base_config(sw::BufferMode::NoBuffer));
  const auto buffered = run_experiment(base_config(sw::BufferMode::PacketGranularity));
  // §IV.A: ~78.7% up-direction reduction with enough buffer.
  EXPECT_LT(buffered.to_controller_mbps, none.to_controller_mbps * 0.35);
  // §IV.A: ~96% down-direction reduction (piggybacked flow_mod only).
  EXPECT_LT(buffered.to_switch_mbps, none.to_switch_mbps * 0.20);
}

TEST(Integration, BufferReducesControllerLoad) {
  const auto none = run_experiment(base_config(sw::BufferMode::NoBuffer));
  const auto buffered = run_experiment(base_config(sw::BufferMode::PacketGranularity));
  EXPECT_LT(buffered.controller_cpu_pct, none.controller_cpu_pct);
}

TEST(Integration, MessageSizesMatchSpec) {
  const auto none = run_experiment(base_config(sw::BufferMode::NoBuffer));
  const auto buffered = run_experiment(base_config(sw::BufferMode::PacketGranularity));
  // Up direction: 200 packet_ins each; no-buffer carries 1000-byte frames,
  // buffered carries 128-byte captures.
  const double none_avg = static_cast<double>(none.to_controller_bytes) / none.to_controller_msgs;
  const double buf_avg =
      static_cast<double>(buffered.to_controller_bytes) / buffered.to_controller_msgs;
  EXPECT_NEAR(none_avg, 1000 + 18 + 66, 5.0);
  EXPECT_NEAR(buf_avg, 128 + 18 + 66, 5.0);
}

TEST(Integration, BufferExhaustionDegradesTowardNoBuffer) {
  auto small = base_config(sw::BufferMode::PacketGranularity, 95.0);
  small.buffer_capacity = 16;
  const auto r16 = run_experiment(small);
  auto large = base_config(sw::BufferMode::PacketGranularity, 95.0);
  const auto r256 = run_experiment(large);
  // buffer-16 exhausts at 95 Mbps: full-frame fallbacks appear and the
  // control load rises above buffer-256's.
  EXPECT_GT(r16.full_frame_pkt_ins, 0u);
  EXPECT_EQ(r256.full_frame_pkt_ins, 0u);
  EXPECT_GT(r16.to_controller_mbps, r256.to_controller_mbps * 1.5);
}

TEST(Integration, FlowGranularityUsesFewerBufferUnits) {
  auto pkt = base_config(sw::BufferMode::PacketGranularity, 95.0);
  pkt.n_flows = 50;
  pkt.packets_per_flow = 20;
  pkt.order = host::EmissionOrder::CrossSequence;
  auto flow = pkt;
  flow.mode = sw::BufferMode::FlowGranularity;
  const auto rp = run_experiment(pkt);
  const auto rf = run_experiment(flow);
  // Fig. 13: whole-flow release keeps occupancy much lower.
  EXPECT_LT(rf.buffer_max_units, rp.buffer_max_units);
  EXPECT_LT(rf.buffer_avg_units, rp.buffer_avg_units);
}

TEST(Integration, FlowGranularityCutsControlTrafficOnBursts) {
  auto pkt = base_config(sw::BufferMode::PacketGranularity, 95.0);
  pkt.n_flows = 50;
  pkt.packets_per_flow = 20;
  pkt.order = host::EmissionOrder::CrossSequence;
  auto flow = pkt;
  flow.mode = sw::BufferMode::FlowGranularity;
  const auto rp = run_experiment(pkt);
  const auto rf = run_experiment(flow);
  EXPECT_LT(rf.to_controller_bytes, rp.to_controller_bytes);
  EXPECT_LT(rf.pkt_ins_sent, rp.pkt_ins_sent);
}

TEST(Integration, NoBufferDelaysBlowUpAtHighRate) {
  const auto low = run_experiment(base_config(sw::BufferMode::NoBuffer, 30.0));
  const auto high = run_experiment(base_config(sw::BufferMode::NoBuffer, 95.0));
  EXPECT_GT(high.setup_ms.mean(), low.setup_ms.mean() * 3.0);
  const auto buffered_high = run_experiment(base_config(sw::BufferMode::PacketGranularity, 95.0));
  EXPECT_LT(buffered_high.setup_ms.mean(), high.setup_ms.mean() * 0.3);
}

TEST(Integration, RuleEvictionCausesNewRequests) {
  // §VI.B: a tiny flow table evicts rules; returning flows miss again.
  ExperimentConfig config = base_config(sw::BufferMode::PacketGranularity);
  config.testbed.switch_config.flow_table_capacity = 8;
  config.n_flows = 100;
  const auto r = run_experiment(config);
  EXPECT_TRUE(r.drained);
  // 100 rules through an 8-entry table: evictions must have happened (the
  // run still completes because each flow has one packet).
  EXPECT_EQ(r.pkt_ins_sent, 100u);
}

TEST(Integration, SweepAggregatesAcrossRates) {
  SweepConfig sweep;
  sweep.rates_mbps = {20.0, 80.0};
  sweep.repetitions = 3;
  sweep.base = base_config(sw::BufferMode::PacketGranularity);
  sweep.base.n_flows = 100;
  const auto result = run_sweep(sweep, "buffer-256");
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].rate_mbps, 20.0);
  EXPECT_EQ(result.points[0].to_controller_mbps.count(), 3u);
  // Load grows with the sending rate.
  EXPECT_GT(result.points[1].to_controller_mbps.mean(),
            result.points[0].to_controller_mbps.mean());
  EXPECT_EQ(result.points[0].undelivered_packets, 0u);
  // overall_mean averages the per-rate means.
  const double mean = result.overall_mean(
      [](const RatePoint& p) { return p.to_controller_mbps.mean(); });
  EXPECT_NEAR(mean,
              (result.points[0].to_controller_mbps.mean() +
               result.points[1].to_controller_mbps.mean()) /
                  2.0,
              1e-9);
}

TEST(Integration, ControllerDelayMeasuredOnlyWithResponses) {
  const auto r = run_experiment(base_config(sw::BufferMode::PacketGranularity));
  EXPECT_EQ(r.controller_ms.count(), 200u);
  EXPECT_EQ(r.switch_ms.count(), 200u);
  // Switch delay is the (positive) remainder of the setup delay.
  EXPECT_GT(r.switch_ms.mean(), 0.0);
  EXPECT_NEAR(r.setup_ms.mean(), r.controller_ms.mean() + r.switch_ms.mean(), 1e-6);
}

// Property sweep: system-level invariants must hold for every mechanism at
// every rate regime (uncongested, mid, saturated).
class InvariantSweepTest
    : public ::testing::TestWithParam<std::tuple<sw::BufferMode, double>> {};

TEST_P(InvariantSweepTest, SystemInvariantsHold) {
  const auto [mode, rate] = GetParam();
  auto config = base_config(mode, rate);
  config.n_flows = 150;
  config.packets_per_flow = 3;
  config.order = host::EmissionOrder::CrossSequence;
  const auto r = run_experiment(config);

  // Conservation: every packet delivered exactly once.
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.packets_delivered, r.packets_sent);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.flows_complete, config.n_flows);

  // Delay sanity: positive, and setup = controller + switch parts.
  EXPECT_GT(r.setup_ms.min(), 0.0);
  EXPECT_GT(r.controller_ms.min(), 0.0);
  EXPECT_GT(r.forwarding_ms.min(), 0.0);
  EXPECT_GE(r.forwarding_ms.mean(), r.setup_ms.mean());
  EXPECT_NEAR(r.setup_ms.mean(), r.controller_ms.mean() + r.switch_ms.mean(), 1e-6);

  // Resource readings stay within physical bounds.
  EXPECT_GE(r.switch_cpu_pct, 0.0);
  EXPECT_LE(r.switch_cpu_pct, 400.0 + 1e-6);   // 4 cores
  EXPECT_LE(r.controller_cpu_pct, 200.0 + 1e-6);  // 2 cores
  EXPECT_LE(r.bus_utilization_pct, 100.0 + 1e-6);
  EXPECT_LE(r.buffer_max_units, static_cast<double>(config.buffer_capacity));

  // Control accounting: at least one request per flow, one rule per flow,
  // and nonzero load in both directions.
  EXPECT_GE(r.pkt_ins_sent, config.n_flows);
  EXPECT_GE(r.flow_mods, config.n_flows);
  EXPECT_GT(r.to_controller_mbps, 0.0);
  EXPECT_GT(r.to_switch_mbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsAndRates, InvariantSweepTest,
    ::testing::Combine(::testing::Values(sw::BufferMode::NoBuffer,
                                         sw::BufferMode::PacketGranularity,
                                         sw::BufferMode::FlowGranularity),
                       ::testing::Values(15.0, 55.0, 95.0)),
    [](const auto& info) {
      const sw::BufferMode mode = std::get<0>(info.param);
      const double rate = std::get<1>(info.param);
      std::string name = mode == sw::BufferMode::NoBuffer            ? "NoBuffer"
                         : mode == sw::BufferMode::PacketGranularity ? "PacketGranularity"
                                                                     : "FlowGranularity";
      return name + "_" + std::to_string(static_cast<int>(rate)) + "Mbps";
    });

TEST(Integration, FlowGranularityRecoversFromDroppedRequests) {
  // Algorithm 1's timeout re-request in action: even when the controller
  // drops 20% of packet_ins, every packet is eventually delivered.
  auto config = base_config(sw::BufferMode::FlowGranularity);
  config.n_flows = 50;
  config.packets_per_flow = 4;
  config.order = host::EmissionOrder::CrossSequence;
  config.testbed.controller_config.drop_pkt_in_probability = 0.2;
  const auto r = run_experiment(config);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.resend_pkt_ins, 0u);
  EXPECT_GT(r.pkt_ins_dropped, 0u);
}

TEST(Integration, OtherMechanismsLosePacketsOnDroppedRequests) {
  // Without the re-request, a dropped packet_in strands the packet: the
  // no-buffer variant loses it outright, the packet-granularity buffer
  // expires it.
  for (const auto mode : {sw::BufferMode::NoBuffer, sw::BufferMode::PacketGranularity}) {
    auto config = base_config(mode);
    config.n_flows = 100;
    config.testbed.controller_config.drop_pkt_in_probability = 0.5;
    const auto r = run_experiment(config);
    EXPECT_FALSE(r.drained) << sw::buffer_mode_name(mode);
    EXPECT_LT(r.packets_delivered, r.packets_sent) << sw::buffer_mode_name(mode);
  }
}

TEST(Integration, StatsPollingCoexistsWithForwarding) {
  auto config = base_config(sw::BufferMode::PacketGranularity);
  config.testbed.controller_config.stats_poll_interval = sim::SimTime::milliseconds(20);
  const auto r = run_experiment(config);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.stats_requests, 0u);
  EXPECT_EQ(r.duplicates, 0u);
}

TEST(Integration, RejectsATemplateOtherThanTheOneSwitchRig) {
  ExperimentConfig two_switches = base_config(sw::BufferMode::PacketGranularity);
  two_switches.testbed = chain_fabric(2);
  EXPECT_DEATH((void)run_experiment(two_switches), "one-switch");

  ExperimentConfig routed = base_config(sw::BufferMode::PacketGranularity);
  routed.testbed.routing = FabricRouting::TopologyPerHop;
  EXPECT_DEATH((void)run_experiment(routed), "L2-learning");

  // Observers and the observatory belong on ExperimentConfig; a template
  // that sets its own would be silently replaced, so it is refused.
  verify::InvariantRegistry registry;
  ExperimentConfig template_observer = base_config(sw::BufferMode::PacketGranularity);
  template_observer.testbed.observers.push_back(&registry);
  EXPECT_DEATH((void)run_experiment(template_observer), "not on its testbed template");

  obs::FabricObservatory observatory;
  ExperimentConfig template_observatory = base_config(sw::BufferMode::PacketGranularity);
  template_observatory.testbed.observatory = &observatory;
  EXPECT_DEATH((void)run_experiment(template_observatory), "not on its testbed template");

  FabricExperimentConfig fabric;
  fabric.topology = topo::make_leaf_spine(1, 2, 2);
  fabric.routing = FabricRouting::TopologyPerHop;
  FabricExperimentConfig fabric_observers = fabric;
  fabric_observers.fabric.observers.assign(fabric.topology.n_switches(), &registry);
  EXPECT_DEATH((void)run_fabric_experiment(fabric_observers), "not on its fabric template");
  FabricExperimentConfig fabric_observatory = fabric;
  fabric_observatory.fabric.observatory = &observatory;
  EXPECT_DEATH((void)run_fabric_experiment(fabric_observatory), "not on its fabric template");
}

TEST(RuleAggregation, OneRuleCoversManyFlows) {
  // Exact-match rules: one miss per flow. With /16 source aggregation, the
  // first miss installs a rule covering the whole forged-source block.
  ExperimentConfig exact;
  exact.mode = sw::BufferMode::PacketGranularity;
  exact.rate_mbps = 20.0;
  exact.n_flows = 200;  // forged sources 10.1.0.1 .. 10.1.0.200
  exact.seed = 3;
  ExperimentConfig aggregated = exact;
  aggregated.testbed.controller_config.aggregate_src_bits = 16;  // /16 source block

  const auto r_exact = run_experiment(exact);
  const auto r_aggregated = run_experiment(aggregated);
  EXPECT_EQ(r_exact.pkt_ins_sent, 200u);
  // A handful of flows miss before the aggregate rule lands; afterwards
  // everything hits it.
  EXPECT_LT(r_aggregated.pkt_ins_sent, 20u);
  EXPECT_TRUE(r_aggregated.drained);
  EXPECT_EQ(r_aggregated.duplicates, 0u);
  EXPECT_LT(r_aggregated.to_controller_bytes, r_exact.to_controller_bytes / 10);
}

TEST(Integration, DefaultRatesMatchPaperAxis) {
  const auto rates = default_rates();
  ASSERT_EQ(rates.size(), 20u);
  EXPECT_EQ(rates.front(), 5.0);
  EXPECT_EQ(rates.back(), 100.0);
}

}  // namespace
}  // namespace sdnbuf::core
