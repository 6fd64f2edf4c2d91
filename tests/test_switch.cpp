// Unit tests for the switch: datapath fast path, miss handling under all
// three buffer modes (packet_in sizes, buffer_id semantics, exhaustion
// fallback), packet_out/flow_mod execution, flooding, flow-granularity
// re-request, expiry sweeps, and flow_removed emission.
//
// The controller side is scripted by hand so every switch behaviour is
// observable in isolation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "openflow/channel.hpp"
#include "switchd/switch.hpp"

namespace sdnbuf::sw {
namespace {

net::Packet flow_packet(std::uint32_t flow, std::uint32_t seq = 0,
                        std::uint32_t frame_size = 1000) {
  auto p = net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                                net::Ipv4Address{0x0a010001u + flow},
                                net::Ipv4Address::from_octets(10, 2, 0, 1),
                                static_cast<std::uint16_t>(10000 + flow), 9, frame_size);
  p.flow_id = flow;
  p.seq_in_flow = seq;
  return p;
}

struct SwitchTest : ::testing::Test {
  sim::Simulator sim;
  net::DuplexLink control{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  net::Link host1_egress{sim, "h1", 100e6, sim::SimTime::microseconds(20)};
  net::Link host2_egress{sim, "h2", 100e6, sim::SimTime::microseconds(20)};
  of::Channel channel{sim, control.forward(), control.reverse()};
  std::vector<of::PacketIn> pkt_ins;
  std::vector<net::Packet> at_host1;
  std::vector<net::Packet> at_host2;
  std::unique_ptr<Switch> ovs;

  Switch& make(BufferMode mode, std::size_t buffer_capacity = 256,
               SwitchConfig base = SwitchConfig{}) {
    base.buffer_mode = mode;
    base.buffer_capacity = buffer_capacity;
    ovs = std::make_unique<Switch>(sim, base, 7);
    ovs->attach_port(1, host1_egress, [this](const net::Packet& p) { at_host1.push_back(p); });
    ovs->attach_port(2, host2_egress, [this](const net::Packet& p) { at_host2.push_back(p); });
    ovs->connect(channel);
    channel.set_controller_handler([this](const of::OfMessage& m, std::size_t) {
      if (const auto* pi = std::get_if<of::PacketIn>(&m)) pkt_ins.push_back(*pi);
    });
    return *ovs;
  }

  // Scripted controller action: install an exact rule for `p` and release.
  void respond(const of::PacketIn& pi, std::uint16_t out_port) {
    const auto parsed = net::Packet::parse(pi.data, pi.total_len);
    ASSERT_TRUE(parsed.has_value());
    of::FlowMod fm;
    fm.xid = pi.xid;
    fm.match = of::Match::exact_from(*parsed, pi.in_port);
    fm.priority = 100;
    fm.actions = of::output_to(out_port);
    channel.send_from_controller(fm);
    of::PacketOut po;
    po.xid = pi.xid;
    po.buffer_id = pi.buffer_id;
    po.in_port = pi.in_port;
    po.actions = of::output_to(out_port);
    if (pi.buffer_id == of::kNoBuffer) po.data = pi.data;
    channel.send_from_controller(po);
  }
};

TEST_F(SwitchTest, MissTriggersPacketIn) {
  Switch& sw = make(BufferMode::NoBuffer);
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(pkt_ins[0].in_port, 1);
  EXPECT_EQ(pkt_ins[0].reason, of::PacketInReason::NoMatch);
  EXPECT_EQ(sw.counters().table_misses, 1u);
  EXPECT_EQ(sw.counters().pkt_ins_sent, 1u);
}

TEST_F(SwitchTest, NoBufferPacketInCarriesWholeFrame) {
  make(BufferMode::NoBuffer);
  ovs->receive(1, flow_packet(0, 0, 1000));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(pkt_ins[0].buffer_id, of::kNoBuffer);
  EXPECT_EQ(pkt_ins[0].data.size(), 1000u);
  EXPECT_EQ(pkt_ins[0].total_len, 1000);
}

TEST_F(SwitchTest, PacketGranularityPacketInCarriesMissSendLen) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0, 0, 1000));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  EXPECT_NE(pkt_ins[0].buffer_id, of::kNoBuffer);
  EXPECT_EQ(pkt_ins[0].data.size(), std::size_t{of::kDefaultMissSendLen});
  EXPECT_EQ(pkt_ins[0].total_len, 1000);  // total_len still reports the full frame
  EXPECT_EQ(sw.packet_buffer()->packets_stored(), 1u);
}

TEST_F(SwitchTest, PacketOutReleasesBufferedPacket) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  respond(pkt_ins[0], 2);
  sim.run();
  ASSERT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(at_host2[0].flow_id, 0u);
  EXPECT_EQ(sw.packet_buffer()->packets_stored(), 0u);
  EXPECT_EQ(sw.counters().packets_forwarded, 1u);
}

TEST_F(SwitchTest, RuleInstalledByFlowModForwardsSubsequentPackets) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0, 0));
  sim.run();
  respond(pkt_ins[0], 2);
  sim.run();
  // Next packet of the same flow now hits the table: no new packet_in.
  sw.receive(1, flow_packet(0, 1));
  sim.run();
  EXPECT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(at_host2.size(), 2u);
  EXPECT_EQ(sw.counters().table_hits, 1u);
  EXPECT_EQ(sw.flow_table().size(), 1u);
}

TEST_F(SwitchTest, BufferExhaustionFallsBackToFullFrame) {
  Switch& sw = make(BufferMode::PacketGranularity, /*buffer_capacity=*/2);
  for (std::uint32_t f = 0; f < 4; ++f) sw.receive(1, flow_packet(f));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 4u);
  int full = 0;
  for (const auto& pi : pkt_ins) {
    if (pi.buffer_id == of::kNoBuffer) {
      ++full;
      EXPECT_EQ(pi.data.size(), 1000u);  // spec: entire frame when not buffered
    }
  }
  EXPECT_EQ(full, 2);
  EXPECT_EQ(sw.counters().full_frame_pkt_ins, 2u);
}

TEST_F(SwitchTest, FlowGranularityOnePacketInPerFlow) {
  Switch& sw = make(BufferMode::FlowGranularity);
  // Algorithm 1: 5 packets of one flow arriving before any response.
  for (std::uint32_t seq = 0; seq < 5; ++seq) sw.receive(1, flow_packet(0, seq));
  sim.run_until(sim::SimTime::milliseconds(5));
  EXPECT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(sw.flow_buffer()->packets_buffered(), 5u);
  EXPECT_EQ(sw.flow_buffer()->units_in_use(), 1u);  // one shared buffer_id slot
  EXPECT_EQ(sw.flow_buffer()->flows_buffered(), 1u);
  ovs->stop();
  sim.run();
}

TEST_F(SwitchTest, FlowGranularityPacketOutReleasesWholeFlowInOrder) {
  Switch& sw = make(BufferMode::FlowGranularity);
  for (std::uint32_t seq = 0; seq < 5; ++seq) sw.receive(1, flow_packet(0, seq));
  sim.run_until(sim::SimTime::milliseconds(2));
  ASSERT_EQ(pkt_ins.size(), 1u);
  respond(pkt_ins[0], 2);
  sim.run_until(sim::SimTime::milliseconds(10));
  ASSERT_EQ(at_host2.size(), 5u);
  for (std::uint32_t seq = 0; seq < 5; ++seq) EXPECT_EQ(at_host2[seq].seq_in_flow, seq);
  EXPECT_EQ(sw.flow_buffer()->flows_buffered(), 0u);
  ovs->stop();
  sim.run();
}

TEST_F(SwitchTest, FlowGranularityDistinctFlowsDistinctRequests) {
  Switch& sw = make(BufferMode::FlowGranularity);
  sw.receive(1, flow_packet(0, 0));
  sw.receive(1, flow_packet(1, 0));
  sw.receive(1, flow_packet(0, 1));
  sim.run_until(sim::SimTime::milliseconds(2));
  EXPECT_EQ(pkt_ins.size(), 2u);  // one per flow
  EXPECT_NE(pkt_ins[0].buffer_id, pkt_ins[1].buffer_id);
  ovs->stop();
  sim.run();
}

TEST_F(SwitchTest, FlowGranularityResendAfterTimeout) {
  SwitchConfig config;
  config.costs.flow_resend_timeout = sim::SimTime::milliseconds(5);
  Switch& sw = make(BufferMode::FlowGranularity, 256, config);
  sw.receive(1, flow_packet(0));
  // No response from the controller: after the timeout the switch must ask
  // again (Algorithm 1, lines 12-13) with the resend reason.
  sim.run_until(sim::SimTime::milliseconds(14));
  ASSERT_GE(pkt_ins.size(), 2u);
  EXPECT_EQ(pkt_ins[0].reason, of::PacketInReason::NoMatch);
  EXPECT_EQ(pkt_ins[1].reason, of::PacketInReason::FlowResend);
  EXPECT_EQ(pkt_ins[1].buffer_id, pkt_ins[0].buffer_id);
  EXPECT_GE(sw.counters().resend_pkt_ins, 1u);
  ovs->stop();
  sim.run();
}

TEST_F(SwitchTest, FlowGranularityNoResendAfterRelease) {
  SwitchConfig config;
  config.costs.flow_resend_timeout = sim::SimTime::milliseconds(5);
  Switch& sw = make(BufferMode::FlowGranularity, 256, config);
  sw.receive(1, flow_packet(0));
  sim.run_until(sim::SimTime::milliseconds(2));
  ASSERT_EQ(pkt_ins.size(), 1u);
  respond(pkt_ins[0], 2);
  sim.run_until(sim::SimTime::milliseconds(30));
  EXPECT_EQ(pkt_ins.size(), 1u);  // released: the timeout check goes quiet
  EXPECT_EQ(sw.counters().resend_pkt_ins, 0u);
  ovs->stop();
  sim.run();
}

TEST_F(SwitchTest, FlowModWithBufferIdInstallsAndReleases) {
  // The piggybacked one-message variant: flow_mod names the buffer.
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  const auto parsed = net::Packet::parse(pkt_ins[0].data, pkt_ins[0].total_len);
  of::FlowMod fm;
  fm.xid = pkt_ins[0].xid;
  fm.match = of::Match::exact_from(*parsed, 1);
  fm.buffer_id = pkt_ins[0].buffer_id;
  fm.actions = of::output_to(2);
  channel.send_from_controller(fm);
  sim.run();
  EXPECT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(sw.flow_table().size(), 1u);
  EXPECT_EQ(sw.packet_buffer()->packets_stored(), 0u);
  // The release retired the packet_in's pending request.
  EXPECT_EQ(sw.pending_requests(), 0u);
}

TEST_F(SwitchTest, PendingRequestRetiresAfterItsPacketOutRuns) {
  Switch& sw = make(BufferMode::NoBuffer);
  sw.receive(1, flow_packet(5, 3));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(sw.pending_requests(), 1u);
  respond(pkt_ins[0], 2);
  sim.run();
  // The packet_out restored the frame's metadata from the entry, then
  // retired it.
  ASSERT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(at_host2[0].flow_id, 5u);
  EXPECT_EQ(at_host2[0].seq_in_flow, 3u);
  EXPECT_EQ(sw.pending_requests(), 0u);
}

// A duplicating channel delivers a packet_in or its answer twice; the second
// no-buffer packet_out must still get the frame's metadata back.
TEST_F(SwitchTest, DuplicatedPacketOutStillRestoresMetadata) {
  for (const bool to_switch : {true, false}) {
    SCOPED_TRACE(to_switch ? "duplicate_to_switch" : "duplicate_to_controller");
    pkt_ins.clear();
    at_host2.clear();
    Switch& sw = make(BufferMode::NoBuffer);
    of::FaultProfile dup;
    (to_switch ? dup.duplicate_to_switch : dup.duplicate_to_controller) = 1.0;
    channel.set_fault_profile(dup, 7);
    sw.receive(1, flow_packet(5, 3));
    sim.run();
    for (const of::PacketIn& pi : pkt_ins) respond(pi, 2);
    sim.run();
    ASSERT_EQ(at_host2.size(), 2u);
    for (const net::Packet& p : at_host2) {
      EXPECT_EQ(p.flow_id, 5u);
      EXPECT_EQ(p.seq_in_flow, 3u);
    }
    EXPECT_EQ(sw.pending_requests(), 1u);
  }
}

TEST_F(SwitchTest, PacketOutUnknownBufferIdCounted) {
  Switch& sw = make(BufferMode::PacketGranularity);
  of::PacketOut po;
  po.buffer_id = 0xbeef;
  po.actions = of::output_to(2);
  channel.send_from_controller(po);
  sim.run();
  EXPECT_EQ(sw.counters().unknown_buffer_releases, 1u);
  EXPECT_TRUE(at_host2.empty());
}

TEST_F(SwitchTest, PacketOutWithDataForwardsParsedFrame) {
  Switch& sw = make(BufferMode::NoBuffer);
  of::PacketOut po;
  po.buffer_id = of::kNoBuffer;
  po.in_port = 1;
  po.actions = of::output_to(2);
  po.data = flow_packet(3).serialize(1000);
  channel.send_from_controller(po);
  sim.run();
  ASSERT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(at_host2[0].frame_size, 1000u);
  EXPECT_EQ(sw.counters().pkt_outs_handled, 1u);
}

TEST_F(SwitchTest, FloodGoesEverywhereButInPort) {
  make(BufferMode::NoBuffer);
  of::PacketOut po;
  po.in_port = 1;
  po.actions = of::output_to(of::kPortFlood);
  po.data = flow_packet(0).serialize(1000);
  channel.send_from_controller(po);
  sim.run();
  EXPECT_TRUE(at_host1.empty());  // not back out of the ingress port
  EXPECT_EQ(at_host2.size(), 1u);
}

TEST_F(SwitchTest, DropActionDropsBufferedPacket) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0));
  sim.run();
  of::PacketOut po;
  po.xid = pkt_ins[0].xid;
  po.buffer_id = pkt_ins[0].buffer_id;
  po.actions = of::drop();
  channel.send_from_controller(po);
  sim.run();
  EXPECT_TRUE(at_host2.empty());
  EXPECT_EQ(sw.counters().packets_dropped, 1u);
}

TEST_F(SwitchTest, SetDlActionsRewriteHeaders) {
  Switch& sw = make(BufferMode::NoBuffer);
  of::FlowMod fm;
  fm.match = of::Match::wildcard_all();
  fm.priority = 1;
  fm.actions = {of::SetDlDstAction{net::MacAddress::from_index(9)}, of::OutputAction{2, 0}};
  channel.send_from_controller(fm);
  sim.run();
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(at_host2[0].eth.dst, net::MacAddress::from_index(9));
}

TEST_F(SwitchTest, EchoAndBarrierAndFeaturesAnswered) {
  make(BufferMode::PacketGranularity, 64);
  std::vector<of::OfMessage> replies;
  channel.set_controller_handler(
      [&](const of::OfMessage& m, std::size_t) { replies.push_back(m); });
  channel.send_from_controller(of::EchoRequest{1});
  channel.send_from_controller(of::BarrierRequest{2});
  channel.send_from_controller(of::FeaturesRequest{3});
  sim.run();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(std::get<of::EchoReply>(replies[0]).xid, 1u);
  EXPECT_EQ(std::get<of::BarrierReply>(replies[1]).xid, 2u);
  const auto& features = std::get<of::FeaturesReply>(replies[2]);
  EXPECT_EQ(features.xid, 3u);
  EXPECT_EQ(features.n_buffers, 64u);
  EXPECT_EQ(features.ports.size(), 2u);
}

TEST_F(SwitchTest, NoBufferAdvertisesZeroBuffers) {
  make(BufferMode::NoBuffer);
  std::optional<of::FeaturesReply> features;
  channel.set_controller_handler([&](const of::OfMessage& m, std::size_t) {
    if (const auto* f = std::get_if<of::FeaturesReply>(&m)) features = *f;
  });
  channel.send_from_controller(of::FeaturesRequest{1});
  sim.run();
  ASSERT_TRUE(features.has_value());
  EXPECT_EQ(features->n_buffers, 0u);
}

TEST_F(SwitchTest, SweepExpiresIdleRulesAndEmitsFlowRemoved) {
  SwitchConfig config;
  config.send_flow_removed = true;
  Switch& sw = make(BufferMode::NoBuffer, 256, config);
  sw.start();
  std::vector<of::FlowRemoved> removed;
  channel.set_controller_handler([&](const of::OfMessage& m, std::size_t) {
    if (const auto* fr = std::get_if<of::FlowRemoved>(&m)) removed.push_back(*fr);
  });
  of::FlowMod fm;
  fm.match = of::Match::exact_from(flow_packet(0), 1);
  fm.idle_timeout_s = 1;
  fm.flags = of::kFlowModSendFlowRem;
  fm.actions = of::output_to(2);
  channel.send_from_controller(fm);
  sim.run_until(sim::SimTime::milliseconds(1500));
  EXPECT_EQ(sw.flow_table().size(), 0u);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].reason, of::FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(sw.counters().flow_removed_sent, 1u);
  sw.stop();
  sim.run();
}

TEST_F(SwitchTest, SweepExpiresStaleBufferedPackets) {
  SwitchConfig config;
  config.costs.buffer_expiry = sim::SimTime::milliseconds(50);
  config.costs.flow_resend_timeout = sim::SimTime::seconds(10);  // keep resends out
  Switch& sw = make(BufferMode::PacketGranularity, 256, config);
  sw.start();
  sw.receive(1, flow_packet(0));
  // Never respond: the buffered packet must be expired by the sweep.
  sim.run_until(sim::SimTime::milliseconds(400));
  EXPECT_EQ(sw.packet_buffer()->packets_stored(), 0u);
  EXPECT_GE(sw.counters().buffered_packets_expired, 1u);
  sw.stop();
  sim.run();
}

TEST_F(SwitchTest, CpuAndBusAccumulateWork) {
  Switch& sw = make(BufferMode::NoBuffer);
  sw.receive(1, flow_packet(0));
  sim.run();
  EXPECT_GT(sw.cpu().busy_time().ns(), 0);
  EXPECT_GT(sw.bus().busy_time().ns(), 0);
  // The full 1000-byte frame crossed the 140 Mbps bus: ~57 us.
  EXPECT_NEAR(sw.bus().busy_time().us(), 1000.0 * 8 / 140.0, 1.0);
}

TEST_F(SwitchTest, BufferedMissMovesOnlyHeadersOverBus) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0));
  sim.run();
  // Only miss_send_len = 128 bytes crossed: ~7.3 us at 140 Mbps.
  EXPECT_NEAR(sw.bus().busy_time().us(), 128.0 * 8 / 140.0, 0.5);
}

TEST_F(SwitchTest, OutputToInPortSendsBack) {
  Switch& sw = make(BufferMode::NoBuffer);
  of::FlowMod fm;
  fm.match = of::Match::wildcard_all();
  fm.priority = 1;
  fm.actions = of::output_to(of::kPortInPort);
  channel.send_from_controller(fm);
  sim.run();
  sw.receive(1, flow_packet(0));
  sim.run();
  EXPECT_EQ(at_host1.size(), 1u);  // hairpinned out of the ingress port
  EXPECT_TRUE(at_host2.empty());
}

TEST_F(SwitchTest, OutputToControllerSendsPacketInWithActionReason) {
  Switch& sw = make(BufferMode::NoBuffer);
  of::FlowMod fm;
  fm.match = of::Match::wildcard_all();
  fm.priority = 1;
  fm.actions = of::output_to(of::kPortController, 64);
  channel.send_from_controller(fm);
  sim.run();
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  EXPECT_EQ(pkt_ins[0].reason, of::PacketInReason::Action);
  EXPECT_EQ(pkt_ins[0].data.size(), 64u);  // the action's max_len cap
}

TEST_F(SwitchTest, FlowModDeleteRemovesRules) {
  Switch& sw = make(BufferMode::NoBuffer);
  // Install two exact rules, then delete everything with a wildcard match.
  for (std::uint32_t f = 0; f < 2; ++f) {
    of::FlowMod fm;
    fm.match = of::Match::exact_from(flow_packet(f), 1);
    fm.priority = 100;
    fm.actions = of::output_to(2);
    channel.send_from_controller(fm);
  }
  sim.run();
  EXPECT_EQ(sw.flow_table().size(), 2u);
  of::FlowMod del;
  del.command = of::FlowModCommand::Delete;
  del.match = of::Match::wildcard_all();
  channel.send_from_controller(del);
  sim.run();
  EXPECT_EQ(sw.flow_table().size(), 0u);
}

TEST_F(SwitchTest, ChainedActionsRewriteThenOutput) {
  Switch& sw = make(BufferMode::PacketGranularity);
  sw.receive(1, flow_packet(0));
  sim.run();
  ASSERT_EQ(pkt_ins.size(), 1u);
  of::PacketOut po;
  po.xid = pkt_ins[0].xid;
  po.buffer_id = pkt_ins[0].buffer_id;
  po.actions = {of::SetDlSrcAction{net::MacAddress::from_index(7)},
                of::SetDlDstAction{net::MacAddress::from_index(8)}, of::OutputAction{2, 0}};
  channel.send_from_controller(po);
  sim.run();
  ASSERT_EQ(at_host2.size(), 1u);
  EXPECT_EQ(at_host2[0].eth.src, net::MacAddress::from_index(7));
  EXPECT_EQ(at_host2[0].eth.dst, net::MacAddress::from_index(8));
}

TEST_F(SwitchTest, EgressToUnknownPortDrops) {
  Switch& sw = make(BufferMode::NoBuffer);
  of::FlowMod fm;
  fm.match = of::Match::wildcard_all();
  fm.priority = 1;
  fm.actions = of::output_to(42);  // nonexistent port
  channel.send_from_controller(fm);
  sim.run();
  sw.receive(1, flow_packet(0));
  sim.run();
  EXPECT_EQ(sw.counters().packets_dropped, 1u);
  EXPECT_TRUE(at_host2.empty());
}

}  // namespace
}  // namespace sdnbuf::sw
