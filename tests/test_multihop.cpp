// Integration tests for the multi-switch chain: L2 learning across hops,
// per-hop rule installation, packet conservation, buffering at every hop,
// and the per-hop multiplication of the reactive overhead.
#include <gtest/gtest.h>

#include "core/fabric_testbed.hpp"
#include "host/traffic_gen.hpp"

namespace sdnbuf::core {
namespace {

// Port numbering per switch (topo::make_chain): 1 faces Host1, 2 faces Host2.
constexpr std::uint16_t kLeftPort = 1;
constexpr std::uint16_t kRightPort = 2;

FabricConfig chain_config(unsigned n_switches, sw::BufferMode mode) {
  FabricConfig config = chain_fabric(n_switches);
  config.switch_config.buffer_mode = mode;
  config.switch_config.buffer_capacity = 256;
  return config;
}

// Sends `n_flows` single-packet flows from host1 at 50 Mbps and drains.
void run_flows(FabricTestbed& bed, std::uint64_t n_flows, std::uint32_t packets_per_flow = 1) {
  host::TrafficConfig traffic;
  traffic.rate_mbps = 50.0;
  traffic.n_flows = n_flows;
  traffic.packets_per_flow = packets_per_flow;
  traffic.src_mac = bed.host1_mac();
  traffic.dst_mac = bed.host2_mac();
  traffic.src_ip_base = bed.host1_ip();
  traffic.dst_ip = bed.host2_ip();
  host::TrafficGenerator gen{bed.sim(), traffic, 3,
                             [&bed](const net::Packet& p) { bed.inject_from_host(0, p); }};
  gen.start();
  const sim::SimTime deadline = bed.sim().now() + sim::SimTime::seconds(10);
  while (bed.sim().now() < deadline &&
         bed.sink_at(1).packets_received() < gen.total_packets()) {
    bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(20));
  }
  bed.stop();
  bed.sim().run();
}

// One warm-up serves every chain, the paper's one-switch rig included.
class ChainWarmUpTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChainWarmUpTest, TeachesEverySwitchAndResetsStatistics) {
  const unsigned n = GetParam();
  FabricTestbed bed{chain_config(n, sw::BufferMode::PacketGranularity)};
  bed.warm_up();
  for (unsigned dpid = 1; dpid <= n; ++dpid) {
    // Every switch has Host1 behind its left port and Host2 behind its right.
    ASSERT_TRUE(bed.controller().lookup_mac(bed.host1_mac(), dpid).has_value()) << dpid;
    ASSERT_TRUE(bed.controller().lookup_mac(bed.host2_mac(), dpid).has_value()) << dpid;
    EXPECT_EQ(*bed.controller().lookup_mac(bed.host1_mac(), dpid), kLeftPort) << dpid;
    EXPECT_EQ(*bed.controller().lookup_mac(bed.host2_mac(), dpid), kRightPort) << dpid;
    // Statistics were reset after warm-up.
    EXPECT_EQ(bed.control_link_at(dpid - 1).forward().tap().bytes(), 0u) << dpid;
    EXPECT_EQ(bed.switch_at(dpid - 1).counters().pkt_ins_sent, 0u) << dpid;
  }
  EXPECT_EQ(bed.sink_at(1).packets_received(), 0u);

  run_flows(bed, 100);
  EXPECT_EQ(bed.sink_at(1).packets_received(), 100u);
  // Single-packet flows: one packet_in per flow per hop.
  EXPECT_EQ(bed.total_pkt_ins(), 100u * n);
}

INSTANTIATE_TEST_SUITE_P(Chains, ChainWarmUpTest, ::testing::Values(1u, 2u, 3u),
                         [](const auto& info) {
                           return std::to_string(info.param) + "Switch";
                         });

class ChainMechanismTest : public ::testing::TestWithParam<sw::BufferMode> {};

TEST_P(ChainMechanismTest, EveryPacketTraversesTheChainExactlyOnce) {
  FabricTestbed bed{chain_config(3, GetParam())};
  bed.warm_up();
  run_flows(bed, 100, 2);
  EXPECT_EQ(bed.sink_at(1).packets_received(), 200u);
  EXPECT_EQ(bed.sink_at(1).duplicate_packets(), 0u);
  EXPECT_EQ(bed.sink_at(0).packets_received(), 0u);  // nothing reflected back
}

TEST_P(ChainMechanismTest, EveryHopRequestsEveryFlow) {
  FabricTestbed bed{chain_config(3, GetParam())};
  bed.warm_up();
  run_flows(bed, 100);
  // Single-packet flows: exactly one miss per flow per switch.
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(bed.switch_at(i).counters().pkt_ins_sent, 100u) << "switch " << i;
    // 100 flow rules plus the rules warm-up installed (they idle out later).
    EXPECT_GE(bed.switch_at(i).flow_table().size(), 100u) << "switch " << i;
    EXPECT_LE(bed.switch_at(i).flow_table().size(), 103u) << "switch " << i;
  }
  EXPECT_EQ(bed.total_pkt_ins(), 300u);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, ChainMechanismTest,
                         ::testing::Values(sw::BufferMode::NoBuffer,
                                           sw::BufferMode::PacketGranularity,
                                           sw::BufferMode::FlowGranularity),
                         [](const auto& info) {
                           return info.param == sw::BufferMode::NoBuffer ? "NoBuffer"
                                  : info.param == sw::BufferMode::PacketGranularity
                                      ? "PacketGranularity"
                                      : "FlowGranularity";
                         });

TEST(Chain, ControlBytesScaleWithHops) {
  std::uint64_t bytes_1 = 0;
  std::uint64_t bytes_3 = 0;
  for (const unsigned hops : {1u, 3u}) {
    FabricTestbed bed{chain_config(hops, sw::BufferMode::NoBuffer)};
    bed.warm_up();
    run_flows(bed, 50);
    (hops == 1 ? bytes_1 : bytes_3) = bed.total_control_bytes();
  }
  // Three switches generate ~3x the control traffic of one.
  EXPECT_NEAR(static_cast<double>(bytes_3) / static_cast<double>(bytes_1), 3.0, 0.3);
}

TEST(Chain, BufferSavingHoldsPerHop) {
  std::uint64_t none_bytes = 0;
  std::uint64_t buffered_bytes = 0;
  for (const auto mode : {sw::BufferMode::NoBuffer, sw::BufferMode::PacketGranularity}) {
    FabricTestbed bed{chain_config(3, mode)};
    bed.warm_up();
    run_flows(bed, 50);
    (mode == sw::BufferMode::NoBuffer ? none_bytes : buffered_bytes) =
        bed.total_control_bytes();
  }
  // The per-hop reduction compounds: total control bytes shrink by the same
  // large factor as in the single-switch testbed.
  EXPECT_LT(buffered_bytes, none_bytes / 3);
}

TEST(Chain, FlowGranularityBuffersAtEveryHop) {
  FabricTestbed bed{chain_config(2, sw::BufferMode::FlowGranularity)};
  bed.warm_up();
  run_flows(bed, 20, 5);
  EXPECT_EQ(bed.sink_at(1).packets_received(), 100u);
  for (unsigned i = 0; i < 2; ++i) {
    const auto& counters = bed.switch_at(i).counters();
    // One request per flow per hop (a few re-opens are possible in the
    // release/install window).
    EXPECT_GE(counters.pkt_ins_sent, 20u) << "switch " << i;
    EXPECT_LE(counters.pkt_ins_sent, 25u) << "switch " << i;
    // Every hop buffered more packets than it requested.
    EXPECT_GT(bed.switch_at(i).flow_buffer()->total_stored(), counters.pkt_ins_sent);
  }
}

TEST(Chain, ReverseTrafficUsesLearnedPaths) {
  FabricTestbed bed{chain_config(2, sw::BufferMode::PacketGranularity)};
  bed.warm_up();
  // host2 -> host1: one flow; must arrive at sink1 without flooding back.
  net::Packet p = net::make_udp_packet(bed.host2_mac(), bed.host1_mac(), bed.host2_ip(),
                                       bed.host1_ip(), 7000, 7, 500);
  p.flow_id = 42;
  bed.inject_from_host(1, p);
  bed.sim().run_until(bed.sim().now() + sim::SimTime::milliseconds(100));
  bed.stop();
  bed.sim().run();
  EXPECT_EQ(bed.sink_at(0).packets_received(), 1u);
  EXPECT_EQ(bed.sink_at(1).packets_received(), 0u);
}

}  // namespace
}  // namespace sdnbuf::core
