// Unit and property tests for the OpenFlow layer: match semantics, action
// codecs, full message round trips (parameterized sweeps), wire sizes
// against the OF 1.0 structure sizes, and the control channel.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/link.hpp"
#include "openflow/actions.hpp"
#include "openflow/channel.hpp"
#include "openflow/constants.hpp"
#include "openflow/match.hpp"
#include "openflow/messages.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sdnbuf::of {
namespace {

net::Packet sample_packet(std::uint32_t flow = 0) {
  return net::make_udp_packet(net::MacAddress::from_index(1), net::MacAddress::from_index(2),
                              net::Ipv4Address{0x0a010001u + flow},
                              net::Ipv4Address::from_octets(10, 2, 0, 1),
                              static_cast<std::uint16_t>(10000 + flow), 9, 1000);
}

TEST(Match, WildcardAllMatchesAnything) {
  const Match m = Match::wildcard_all();
  EXPECT_TRUE(m.matches(sample_packet(0), 1));
  EXPECT_TRUE(m.matches(sample_packet(77), 9));
}

TEST(Match, ExactFromMatchesOnlyThatPacket) {
  const auto p = sample_packet(5);
  const Match m = Match::exact_from(p, 1);
  EXPECT_TRUE(m.matches(p, 1));
  EXPECT_FALSE(m.matches(p, 2));             // different in_port
  EXPECT_FALSE(m.matches(sample_packet(6), 1));  // different flow
}

TEST(Match, SingleFieldWildcards) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.wildcards |= kWildcardTpSrc;
  auto q = sample_packet(5);
  q.udp.src_port = 999;  // only tp_src differs
  EXPECT_TRUE(m.matches(q, 1));
  q.udp.dst_port = 999;  // now tp_dst differs too
  EXPECT_FALSE(m.matches(q, 1));
}

TEST(Match, Ipv4PrefixWildcards) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.set_nw_src_ignored_bits(8);  // /24 source match
  auto q = sample_packet(5);
  q.ip.src = net::Ipv4Address{(p.ip.src.value() & 0xffffff00u) | 0x99};
  EXPECT_TRUE(m.matches(q, 1));
  q.ip.src = net::Ipv4Address{p.ip.src.value() ^ 0x00000100u};  // outside the /24
  EXPECT_FALSE(m.matches(q, 1));
}

TEST(Match, IgnoredBits32MeansAnyAddress) {
  const auto p = sample_packet(5);
  Match m = Match::exact_from(p, 1);
  m.set_nw_src_ignored_bits(32);
  auto q = sample_packet(5);
  q.ip.src = net::Ipv4Address::from_octets(1, 2, 3, 4);
  EXPECT_TRUE(m.matches(q, 1));
}

TEST(Match, SubsumesReflexiveAndHierarchy) {
  const auto p = sample_packet(5);
  const Match exact = Match::exact_from(p, 1);
  EXPECT_TRUE(exact.subsumes(exact));
  const Match all = Match::wildcard_all();
  EXPECT_TRUE(all.subsumes(exact));
  EXPECT_FALSE(exact.subsumes(all));
  Match prefix = exact;
  prefix.set_nw_src_ignored_bits(8);
  EXPECT_TRUE(prefix.subsumes(exact));
  EXPECT_FALSE(exact.subsumes(prefix));
}

TEST(Match, EncodedSizeIs40Bytes) {
  std::vector<std::uint8_t> buf(64);
  util::ByteCursor out(buf.data());
  Match::exact_from(sample_packet(0), 1).encode(out);
  EXPECT_EQ(out.pos(), buf.data() + kMatchSize);
}

TEST(Match, RoundTrip) {
  const Match m = Match::exact_from(sample_packet(3), 2);
  std::vector<std::uint8_t> buf(kMatchSize);
  util::ByteCursor out(buf.data());
  m.encode(out);
  const auto decoded = Match::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Actions, EncodedSizes) {
  EXPECT_EQ(encoded_size(Action{OutputAction{1, 0}}), 8u);
  EXPECT_EQ(encoded_size(Action{SetDlDstAction{net::MacAddress::from_index(1)}}), 16u);
  const ActionList list{OutputAction{1, 0}, SetDlSrcAction{net::MacAddress::from_index(2)}};
  EXPECT_EQ(encoded_size(list), 24u);
}

TEST(Actions, RoundTrip) {
  const ActionList list{OutputAction{2, 128}, SetDlSrcAction{net::MacAddress::from_index(7)},
                        SetDlDstAction{net::MacAddress::from_index(8)}};
  std::vector<std::uint8_t> buf(encoded_size(list));
  util::ByteCursor out(buf.data());
  encode_actions(list, out);
  EXPECT_EQ(out.pos(), buf.data() + buf.size());
  const auto decoded = decode_actions(buf, buf.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, list);
}

TEST(Actions, EmptyListIsDrop) {
  EXPECT_EQ(encoded_size(ActionList{}), 0u);
  std::uint8_t sentinel = 0xaa;
  util::ByteCursor out(&sentinel);
  encode_actions({}, out);
  EXPECT_EQ(out.pos(), &sentinel);  // nothing written
  EXPECT_EQ(sentinel, 0xaa);
  EXPECT_EQ(to_string(ActionList{}), "drop");
}

TEST(Actions, DecodeRejectsMalformed) {
  // Truncated action header.
  const std::vector<std::uint8_t> short_buf{0, 0};
  EXPECT_FALSE(decode_actions(short_buf, 2).has_value());
  // Bad declared length.
  const std::vector<std::uint8_t> bad_len{0, 0, 0, 3};
  EXPECT_FALSE(decode_actions(bad_len, 4).has_value());
  // Unknown action type.
  const std::vector<std::uint8_t> unknown{0xff, 0xff, 0, 8, 0, 0, 0, 0};
  EXPECT_FALSE(decode_actions(unknown, 8).has_value());
}

// --- message round trips ---

void expect_round_trip(const OfMessage& msg) {
  const auto wire = encode_message(msg);
  EXPECT_EQ(wire.size(), encoded_size(msg));
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, msg) << "type " << msg_type_name(message_type(msg));
}

TEST(Messages, TrivialMessagesRoundTrip) {
  expect_round_trip(Hello{7});
  expect_round_trip(EchoRequest{8});
  expect_round_trip(EchoReply{9});
  expect_round_trip(FeaturesRequest{10});
  expect_round_trip(BarrierRequest{11});
  expect_round_trip(BarrierReply{12});
}

TEST(Messages, HeaderEncodesTypeLengthXid) {
  const auto wire = encode_message(Hello{0xdeadbeef});
  ASSERT_EQ(wire.size(), kHeaderSize);
  EXPECT_EQ(wire[0], kVersion);
  EXPECT_EQ(wire[1], static_cast<std::uint8_t>(MsgType::Hello));
  EXPECT_EQ(wire[2], 0);
  EXPECT_EQ(wire[3], 8);
  EXPECT_EQ(wire[4], 0xde);
  EXPECT_EQ(wire[7], 0xef);
}

TEST(Messages, FeaturesReplyRoundTripWithPorts) {
  FeaturesReply m;
  m.xid = 3;
  m.datapath_id = 0x0102030405060708ULL;
  m.n_buffers = 256;
  m.n_tables = 2;
  m.ports.push_back(PortDesc{1, net::MacAddress::from_index(1), "eth1", 100});
  m.ports.push_back(PortDesc{2, net::MacAddress::from_index(2), "eth2", 100});
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFeaturesReplyFixedSize + 2 * kPhyPortSize);
}

TEST(Messages, PacketInFullFrameSize) {
  PacketIn m;
  m.xid = 1;
  m.buffer_id = kNoBuffer;
  m.total_len = 1000;
  m.in_port = 1;
  m.data = sample_packet(0).serialize(1000);
  expect_round_trip(m);
  // 18-byte fixed part + the whole frame: the no-buffer request size.
  EXPECT_EQ(encoded_size(OfMessage{m}), kPacketInFixedSize + 1000);
}

TEST(Messages, PacketInBufferedSize) {
  PacketIn m;
  m.buffer_id = 42;
  m.total_len = 1000;
  m.in_port = 1;
  m.data = sample_packet(0).serialize(kDefaultMissSendLen);
  expect_round_trip(m);
  // The buffered request carries only miss_send_len bytes: 18 + 128.
  EXPECT_EQ(encoded_size(OfMessage{m}), kPacketInFixedSize + kDefaultMissSendLen);
}

TEST(Messages, PacketInReasonPreserved) {
  PacketIn m;
  m.reason = PacketInReason::FlowResend;
  m.data = {1, 2, 3};
  const auto decoded = decode_message(encode_message(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<PacketIn>(*decoded).reason, PacketInReason::FlowResend);
}

TEST(Messages, PacketOutBufferedVsFull) {
  PacketOut buffered;
  buffered.buffer_id = 99;
  buffered.in_port = 1;
  buffered.actions = output_to(2);
  expect_round_trip(buffered);
  EXPECT_EQ(encoded_size(OfMessage{buffered}), kPacketOutFixedSize + 8);

  PacketOut full;
  full.buffer_id = kNoBuffer;
  full.in_port = 1;
  full.actions = output_to(2);
  full.data = sample_packet(0).serialize(1000);
  expect_round_trip(full);
  EXPECT_EQ(encoded_size(OfMessage{full}), kPacketOutFixedSize + 8 + 1000);
}

TEST(Messages, FlowModRoundTrip) {
  FlowMod m;
  m.xid = 5;
  m.match = Match::exact_from(sample_packet(9), 1);
  m.cookie = 0xfeedULL;
  m.command = FlowModCommand::Add;
  m.idle_timeout_s = 5;
  m.hard_timeout_s = 30;
  m.priority = 100;
  m.buffer_id = 1234;
  m.flags = kFlowModSendFlowRem;
  m.actions = output_to(2);
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFlowModFixedSize + 8);
}

TEST(Messages, FlowModDeleteRoundTrip) {
  FlowMod m;
  m.command = FlowModCommand::DeleteStrict;
  m.match = Match::wildcard_all();
  m.out_port = kPortNone;
  expect_round_trip(m);
}

TEST(Messages, FlowRemovedRoundTrip) {
  FlowRemoved m;
  m.xid = 6;
  m.match = Match::exact_from(sample_packet(2), 1);
  m.cookie = 42;
  m.priority = 100;
  m.reason = FlowRemovedReason::IdleTimeout;
  m.duration_sec = 12;
  m.duration_nsec = 345;
  m.idle_timeout_s = 5;
  m.packet_count = 99;
  m.byte_count = 99000;
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kFlowRemovedSize);
}

TEST(Messages, PortStatusRoundTrip) {
  PortStatus m;
  m.xid = 77;
  m.reason = PortStatusReason::Delete;
  m.desc.port_no = 3;
  m.desc.hw_addr = net::MacAddress::from_index(3);
  m.desc.name = "eth3";
  m.desc.curr_speed_mbps = 100;
  m.desc.link_down = true;
  expect_round_trip(m);
  EXPECT_EQ(encoded_size(OfMessage{m}), kPortStatusSize);

  // A recovered port reports with the link-down bit cleared.
  m.reason = PortStatusReason::Add;
  m.desc.link_down = false;
  expect_round_trip(m);
}

TEST(Messages, DecodeRejectsBadInput) {
  EXPECT_FALSE(decode_message(std::vector<std::uint8_t>{}).has_value());
  auto wire = encode_message(Hello{1});
  wire[0] = 0x04;  // wrong version
  EXPECT_FALSE(decode_message(wire).has_value());
  wire = encode_message(Hello{1});
  wire[1] = 200;  // unknown type
  EXPECT_FALSE(decode_message(wire).has_value());
  wire = encode_message(FlowMod{});
  wire.resize(wire.size() - 1);  // truncated
  EXPECT_FALSE(decode_message(wire).has_value());
}

// Property sweep: randomized packet_in/packet_out/flow_mod messages must
// round-trip exactly for a range of sizes and field values.
class CodecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecPropertyTest, RandomizedMessagesRoundTrip) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    PacketIn pi;
    pi.xid = static_cast<std::uint32_t>(rng.next_u64());
    pi.buffer_id = rng.next_below(2) != 0u ? static_cast<std::uint32_t>(rng.next_below(1 << 30))
                                           : kNoBuffer;
    pi.total_len = static_cast<std::uint16_t>(64 + rng.next_below(1436));
    pi.in_port = static_cast<std::uint16_t>(1 + rng.next_below(48));
    pi.reason = rng.next_below(2) != 0u ? PacketInReason::NoMatch : PacketInReason::Action;
    pi.data.resize(rng.next_below(512));
    for (auto& b : pi.data) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect_round_trip(pi);

    PacketOut po;
    po.xid = static_cast<std::uint32_t>(rng.next_u64());
    po.buffer_id = static_cast<std::uint32_t>(rng.next_below(1 << 30));
    po.in_port = static_cast<std::uint16_t>(rng.next_below(48));
    if (rng.next_below(2) != 0u) {
      po.actions = output_to(static_cast<std::uint16_t>(rng.next_below(48)));
    }
    if (rng.next_below(2) != 0u) {
      po.actions.push_back(
          SetDlDstAction{net::MacAddress::from_index(static_cast<std::uint16_t>(
              rng.next_below(100)))});
    }
    expect_round_trip(po);

    FlowMod fm;
    fm.xid = static_cast<std::uint32_t>(rng.next_u64());
    fm.match = Match::exact_from(sample_packet(static_cast<std::uint32_t>(rng.next_below(1000))),
                                 static_cast<std::uint16_t>(1 + rng.next_below(4)));
    fm.cookie = rng.next_u64();
    fm.priority = static_cast<std::uint16_t>(rng.next_below(65536));
    fm.idle_timeout_s = static_cast<std::uint16_t>(rng.next_below(600));
    fm.buffer_id = static_cast<std::uint32_t>(rng.next_below(1 << 30));
    fm.actions = output_to(static_cast<std::uint16_t>(1 + rng.next_below(4)));
    expect_round_trip(fm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Property: subsumption is consistent with matching — if A subsumes B, then
// every packet matching B also matches A.
class SubsumptionPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SubsumptionPropertyTest, SubsumesImpliesMatchSuperset) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    // Generate B as an exact match on a random packet, then derive A by
    // randomly wildcarding some of B's fields: A must subsume B.
    const auto flow = static_cast<std::uint32_t>(rng.next_below(50));
    const auto port = static_cast<std::uint16_t>(1 + rng.next_below(4));
    const auto p = sample_packet(flow);
    const Match b = Match::exact_from(p, port);
    Match a = b;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardInPort;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardDlSrc;
    if (rng.next_below(2) != 0u) a.wildcards |= kWildcardTpSrc;
    if (rng.next_below(2) != 0u) a.set_nw_src_ignored_bits(static_cast<int>(rng.next_below(33)));
    if (rng.next_below(2) != 0u) a.set_nw_dst_ignored_bits(static_cast<int>(rng.next_below(33)));
    ASSERT_TRUE(a.subsumes(b)) << a.to_string() << " vs " << b.to_string();
    // The original packet matches B exactly, so it must match A too.
    ASSERT_TRUE(b.matches(p, port));
    ASSERT_TRUE(a.matches(p, port));
    // Random perturbations that still match B must match A.
    auto q = p;
    if (rng.next_below(2) != 0u) {
      // Perturb a field that A wildcards but B does not: now q may stop
      // matching B; whenever it still matches B it must match A.
      q.udp.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    }
    if (b.matches(q, port)) {
      ASSERT_TRUE(a.matches(q, port));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubsumptionPropertyTest, ::testing::Values(11, 22, 33));

// Fuzz: feeding random bytes to the decoder must never crash and only ever
// return nullopt or a message that re-encodes.
class DecodeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesAreHandledSafely) {
  util::Rng rng{GetParam()};
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = decode_message(bytes);
    if (decoded) {
      // Whatever decoded must be re-encodable without crashing.
      const auto wire = encode_message(*decoded);
      EXPECT_GE(wire.size(), kHeaderSize);
    }
  }
}

TEST_P(DecodeFuzzTest, BitFlippedValidMessagesAreHandledSafely) {
  util::Rng rng{GetParam() * 7 + 1};
  PacketIn pi;
  pi.buffer_id = 42;
  pi.total_len = 1000;
  pi.data = sample_packet(1).serialize(128);
  const auto original = encode_message(pi);
  for (int i = 0; i < 500; ++i) {
    auto wire = original;
    // Flip 1-4 random bits.
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      wire[rng.next_below(wire.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    const auto decoded = decode_message(wire);  // must not crash
    (void)decoded;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, ::testing::Values(101, 202, 303));

// --- channel ---

struct ChannelFixture : ::testing::Test {
  sim::Simulator sim;
  net::DuplexLink link{sim, "ctl", 1000e6, sim::SimTime::microseconds(250)};
  Channel channel{sim, link.forward(), link.reverse()};
};

TEST_F(ChannelFixture, DeliversDecodedMessageToController) {
  std::optional<OfMessage> received;
  std::size_t wire_bytes = 0;
  channel.set_controller_handler([&](const OfMessage& m, std::size_t bytes) {
    received = m;
    wire_bytes = bytes;
  });
  PacketIn pi;
  pi.xid = 77;
  pi.data = {1, 2, 3};
  const std::size_t sent_bytes = channel.send_from_switch(pi);
  sim.run();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::get<PacketIn>(*received).xid, 77u);
  EXPECT_EQ(wire_bytes, sent_bytes);
  EXPECT_EQ(sent_bytes, encoded_size(OfMessage{pi}) + kTransportOverhead);
}

TEST_F(ChannelFixture, DirectionsAreSeparate) {
  int to_controller = 0;
  int to_switch = 0;
  channel.set_controller_handler([&](const OfMessage&, std::size_t) { ++to_controller; });
  channel.set_switch_handler([&](const OfMessage&, std::size_t) { ++to_switch; });
  channel.send_from_switch(Hello{1});
  channel.send_from_controller(Hello{2});
  channel.send_from_controller(EchoRequest{3});
  sim.run();
  EXPECT_EQ(to_controller, 1);
  EXPECT_EQ(to_switch, 2);
}

TEST_F(ChannelFixture, FifoOrderPreserved) {
  std::vector<MsgType> order;
  channel.set_switch_handler(
      [&](const OfMessage& m, std::size_t) { order.push_back(message_type(m)); });
  channel.send_from_controller(FlowMod{});
  channel.send_from_controller(PacketOut{});
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], MsgType::FlowMod);
  EXPECT_EQ(order[1], MsgType::PacketOut);
}

TEST_F(ChannelFixture, CountersTrackTypeAndBytes) {
  channel.set_controller_handler([](const OfMessage&, std::size_t) {});
  channel.send_from_switch(PacketIn{});
  channel.send_from_switch(PacketIn{});
  channel.send_from_switch(Hello{});
  sim.run();
  const auto& c = channel.to_controller_counters();
  EXPECT_EQ(c.count(MsgType::PacketIn), 2u);
  EXPECT_EQ(c.count(MsgType::Hello), 1u);
  EXPECT_EQ(c.total_count(), 3u);
  EXPECT_EQ(c.bytes(MsgType::Hello), kHeaderSize + kTransportOverhead);
  EXPECT_EQ(c.total_bytes(),
            2 * (kPacketInFixedSize + kTransportOverhead) + kHeaderSize + kTransportOverhead);
}

TEST_F(ChannelFixture, XidsAreUnique) {
  std::set<std::uint32_t> xids;
  for (int i = 0; i < 1000; ++i) xids.insert(channel.next_xid());
  EXPECT_EQ(xids.size(), 1000u);
}


// --- encoder byte goldens ---
//
// One instance of every OfMessage alternative (in variant order) and the
// exact wire bytes the encoder produced for it when the goldens were
// recorded. Any change to the encoder that moves a byte fails here.

std::vector<OfMessage> one_of_each_message() {
  const auto packet = sample_packet(3);
  Match exact = Match::exact_from(packet, 2);
  Match prefix = exact;
  prefix.set_nw_src_ignored_bits(8);
  prefix.wildcards |= kWildcardTpSrc;
  prefix.dl_vlan_pcp = 5;
  prefix.nw_tos = 0x2e;

  std::vector<OfMessage> out;
  out.emplace_back(Hello{0x01020304});
  out.emplace_back(Error{0x11, ErrorType::BadRequest, ErrorCode::BufferUnknown,
                         packet.serialize(20)});
  out.emplace_back(EchoRequest{0x21});
  out.emplace_back(EchoReply{0x22});
  out.emplace_back(FeaturesRequest{0x23});
  FeaturesReply features;
  features.xid = 0x24;
  features.datapath_id = 0x0102030405060708ULL;
  features.n_buffers = 256;
  features.n_tables = 3;
  features.ports.push_back(PortDesc{1, net::MacAddress::from_index(1), "eth1", 100, false});
  features.ports.push_back(
      PortDesc{7, net::MacAddress::from_index(7), "a-long-port-name", 10000, true});
  out.emplace_back(features);
  PacketIn pin;
  pin.xid = 0x25;
  pin.buffer_id = 42;
  pin.total_len = 1000;
  pin.in_port = 3;
  pin.reason = PacketInReason::FlowResend;
  pin.data = packet.serialize(64);
  out.emplace_back(pin);
  PacketOut pout;
  pout.xid = 0x26;
  pout.buffer_id = kNoBuffer;
  pout.in_port = 2;
  pout.actions = {SetDlDstAction{net::MacAddress::from_index(9)}, OutputAction{4, 0}};
  pout.data = packet.serialize(60);
  out.emplace_back(pout);
  FlowMod fm;
  fm.xid = 0x27;
  fm.match = exact;
  fm.cookie = 0xfeedface12345678ULL;
  fm.command = FlowModCommand::Add;
  fm.idle_timeout_s = 5;
  fm.hard_timeout_s = 30;
  fm.priority = 100;
  fm.buffer_id = 1234;
  fm.out_port = kPortNone;
  fm.flags = kFlowModSendFlowRem;
  fm.actions = {SetDlSrcAction{net::MacAddress::from_index(11)},
                SetDlDstAction{net::MacAddress::from_index(12)},
                OutputAction{kPortController, 128}};
  out.emplace_back(fm);
  FlowRemoved removed;
  removed.xid = 0x28;
  removed.match = prefix;
  removed.cookie = 77;
  removed.priority = 0x8000;
  removed.reason = FlowRemovedReason::Eviction;
  removed.duration_sec = 12;
  removed.duration_nsec = 345678;
  removed.idle_timeout_s = 5;
  removed.packet_count = 99;
  removed.byte_count = 99000;
  out.emplace_back(removed);
  PortStatus status;
  status.xid = 0x29;
  status.reason = PortStatusReason::Delete;
  status.desc = PortDesc{3, net::MacAddress::from_index(3), "eth3", 1000, true};
  out.emplace_back(status);
  out.emplace_back(FlowStatsRequest{0x2a, prefix, 6});
  FlowStatsReply flow_stats;
  flow_stats.xid = 0x2b;
  for (std::uint16_t i = 0; i < 2; ++i) {
    FlowStatsEntry e;
    e.match = i == 0 ? exact : prefix;
    e.duration_sec = 10u + i;
    e.duration_nsec = 500u * i;
    e.priority = static_cast<std::uint16_t>(100 + i);
    e.idle_timeout_s = 5;
    e.hard_timeout_s = static_cast<std::uint16_t>(60 * i);
    e.cookie = 0xabcdef00ULL + i;
    e.packet_count = 1000u + i;
    e.byte_count = 1000000u + i;
    flow_stats.flows.push_back(e);
  }
  out.emplace_back(flow_stats);
  out.emplace_back(AggregateStatsRequest{0x2c, Match::wildcard_all(), kPortNone});
  out.emplace_back(AggregateStatsReply{0x2d, 123456789ULL, 987654321012ULL, 17});
  out.emplace_back(PortStatsRequest{0x2e, 3});
  PortStatsReply port_stats;
  port_stats.xid = 0x2f;
  port_stats.ports.push_back(PortStatsEntry{1, 10, 20, 30, 40, 50, 60});
  port_stats.ports.push_back(PortStatsEntry{2, 0xffffffffffULL, 1, 2, 3, 4, 5});
  out.emplace_back(port_stats);
  out.emplace_back(BarrierRequest{0x30});
  out.emplace_back(BarrierReply{0x31});
  FlowSample sample;
  sample.xid = 0x32;
  sample.sample_seq = 9;
  sample.src_ip = 0x0a010004;
  sample.dst_ip = 0x0a020001;
  sample.src_port = 10003;
  sample.dst_port = 9;
  sample.in_port = 2;
  sample.frame_bytes = 1000;
  sample.protocol = 17;
  out.emplace_back(sample);
  return out;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

// Recorded from the push_back encoder the cursor encoder replaced.
constexpr const char* kGoldenWireHex[] = {
    "0100000801020304",
    "0101002000000011000100080200000000020200000000010800450003da0000",
    "0102000800000021",
    "0103000800000022",
    "0105000800000023",
    "01060080000000240102030405060708000001000300000000000000000000000001020000000001"
    "65746831000000000000000000000000000000000000000000000064000000000000000000000000"
    "0007020000000007612d6c6f6e672d706f72742d6e616d0000000000000000010000271000000000"
    "0000000000000000",
    "010a0052000000250000002a03e8000380000200000000020200000000010800450003da00004000"
    "4011230c0a0100040a0200012713000903c600000000000000000000000000000000000000000000"
    "0000",
    "010d006400000026ffffffff00020018000500100200000000090000000000000000000800040000"
    "0200000000020200000000010800450003da000040004011230c0a0100040a0200012713000903c6"
    "0000000000000000000000000000000000000000",
    "010e007000000027000000000002020000000001020000000002ffff00000800001100000a010004"
    "0a02000127130009feedface1234567800000005001e0064000004d2ffff00010004001002000000"
    "000b0000000000000005001002000000000c00000000000000000008fffd0080",
    "010b005800000028000008400002020000000001020000000002ffff050008002e1100000a010004"
    "0a02000127130009000000000000004d800080000000000c0005464e000500000000000000000063"
    "00000000000182b8",
    "010c0040000000290100000000000000000302000000000365746833000000000000000000000000"
    "0000000000000001000003e8000000000000000000000000",
    "011000380000002a00010000000008400002020000000001020000000002ffff050008002e110000"
    "0a0100040a02000127130009ff000006",
    "011100bc0000002b0001000000580000000000000002020000000001020000000002ffff00000800"
    "001100000a0100040a020001271300090000000a0000000000640005000000000000000000000000"
    "abcdef0000000000000003e800000000000f42400058000000000840000202000000000102000000"
    "0002ffff050008002e1100000a0100040a020001271300090000000b000001f400650005003c0000"
    "0000000000000000abcdef0100000000000003e900000000000f4241",
    "011000380000002c00020000003fffff0000000000000000000000000000ffff0000000000000000"
    "000000000000000000000000ff00ffff",
    "011100240000002d0002000000000000075bcd15000000e5f4c8f3740000001100000000",
    "011000140000002e000400000003000000000000",
    "011100dc0000002f000400000001000000000000000000000000000a000000000000001400000000"
    "0000001e00000000000000280000000000000032000000000000003c000000000000000000000000"
    "00000000000000000000000000000000000000000000000000000000000000000000000000020000"
    "00000000000000ffffffffff00000000000000010000000000000002000000000000000300000000"
    "00000004000000000000000500000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000",
    "0112000800000030",
    "0113000800000031",
    "010400280000003200005db100010000000000090a0100040a02000127130009000203e811000000",
};

TEST(MessageGoldens, EveryMessageTypeEncodesToTheRecordedBytes) {
  const auto messages = one_of_each_message();
  ASSERT_EQ(messages.size(), std::variant_size_v<OfMessage>);
  ASSERT_EQ(std::size(kGoldenWireHex), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    ASSERT_EQ(messages[i].index(), i);
    const auto wire = encode_message(messages[i]);
    EXPECT_EQ(wire.size(), encoded_size(messages[i]));
    EXPECT_EQ(to_hex(wire), kGoldenWireHex[i]) << msg_type_name(message_type(messages[i]));
    // Port names longer than 15 bytes are cut on the wire, so compare the
    // re-encoding rather than the decoded struct.
    const auto decoded = decode_message(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(encode_message(*decoded), wire);
  }
}

TEST(MessageGoldens, EncodeIntoReusesADirtyBuffer) {
  // A pooled buffer arrives with stale bytes and spare capacity; the cursor
  // encoder must overwrite it to exactly the message.
  std::vector<std::uint8_t> buf(4096, 0xee);
  for (const auto& m : one_of_each_message()) {
    encode_message_into(m, buf);
    EXPECT_EQ(buf, encode_message(m)) << msg_type_name(message_type(m));
  }
}

// Random instance of variant alternative `index`, every field drawn.
Match random_match(util::Rng& rng) {
  Match m;
  m.wildcards = static_cast<std::uint32_t>(rng.next_below(kWildcardAll + 1));
  m.in_port = static_cast<std::uint16_t>(rng.next_below(65536));
  m.dl_src = net::MacAddress::from_index(static_cast<std::uint16_t>(rng.next_below(65536)));
  m.dl_dst = net::MacAddress::from_index(static_cast<std::uint16_t>(rng.next_below(65536)));
  m.dl_vlan = static_cast<std::uint16_t>(rng.next_below(65536));
  m.dl_vlan_pcp = static_cast<std::uint8_t>(rng.next_below(8));
  m.dl_type = static_cast<std::uint16_t>(rng.next_below(65536));
  m.nw_tos = static_cast<std::uint8_t>(rng.next_below(256));
  m.nw_proto = static_cast<std::uint8_t>(rng.next_below(256));
  m.nw_src = net::Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
  m.nw_dst = net::Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())};
  m.tp_src = static_cast<std::uint16_t>(rng.next_below(65536));
  m.tp_dst = static_cast<std::uint16_t>(rng.next_below(65536));
  return m;
}

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::uint64_t max_len) {
  std::vector<std::uint8_t> bytes(rng.next_below(max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

ActionList random_actions(util::Rng& rng) {
  ActionList actions;
  const auto n = rng.next_below(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto mac = net::MacAddress::from_index(static_cast<std::uint16_t>(rng.next_below(65536)));
    switch (rng.next_below(3)) {
      case 0:
        actions.emplace_back(OutputAction{static_cast<std::uint16_t>(rng.next_below(65536)),
                                          static_cast<std::uint16_t>(rng.next_below(65536))});
        break;
      case 1: actions.emplace_back(SetDlSrcAction{mac}); break;
      default: actions.emplace_back(SetDlDstAction{mac}); break;
    }
  }
  return actions;
}

PortDesc random_port(util::Rng& rng) {
  PortDesc p;
  p.port_no = static_cast<std::uint16_t>(rng.next_below(65536));
  p.hw_addr = net::MacAddress::from_index(static_cast<std::uint16_t>(rng.next_below(65536)));
  p.name.assign(rng.next_below(16), 'a');
  for (auto& c : p.name) c = static_cast<char>('a' + rng.next_below(26));
  p.curr_speed_mbps = static_cast<std::uint32_t>(rng.next_u64());
  p.link_down = rng.next_below(2) != 0u;
  return p;
}

OfMessage random_message(util::Rng& rng, std::size_t index) {
  const auto xid = static_cast<std::uint32_t>(rng.next_u64());
  const auto u16 = [&] { return static_cast<std::uint16_t>(rng.next_below(65536)); };
  const auto u32 = [&] { return static_cast<std::uint32_t>(rng.next_u64()); };
  switch (index) {
    case 0: return Hello{xid};
    case 1: return Error{xid, static_cast<ErrorType>(1 + rng.next_below(3)),
                         static_cast<ErrorCode>(rng.next_below(9)), random_bytes(rng, 64)};
    case 2: return EchoRequest{xid};
    case 3: return EchoReply{xid};
    case 4: return FeaturesRequest{xid};
    case 5: {
      FeaturesReply m{xid, rng.next_u64(), u32(), static_cast<std::uint8_t>(rng.next_below(256)),
                      {}};
      for (auto n = rng.next_below(5); n > 0; --n) m.ports.push_back(random_port(rng));
      return m;
    }
    case 6:
      return PacketIn{xid, u32(), u16(), u16(),
                      static_cast<PacketInReason>(rng.next_below(256)), random_bytes(rng, 300)};
    case 7: return PacketOut{xid, u32(), u16(), random_actions(rng), random_bytes(rng, 300)};
    case 8: {
      FlowMod m;
      m.xid = xid;
      m.match = random_match(rng);
      m.cookie = rng.next_u64();
      m.command = static_cast<FlowModCommand>(rng.next_below(5));
      m.idle_timeout_s = u16();
      m.hard_timeout_s = u16();
      m.priority = u16();
      m.buffer_id = u32();
      m.out_port = u16();
      m.flags = u16();
      m.actions = random_actions(rng);
      return m;
    }
    case 9:
      return FlowRemoved{xid, random_match(rng), rng.next_u64(), u16(),
                         static_cast<FlowRemovedReason>(rng.next_below(256)), u32(), u32(), u16(),
                         rng.next_u64(), rng.next_u64()};
    case 10:
      return PortStatus{xid, static_cast<PortStatusReason>(rng.next_below(3)), random_port(rng)};
    case 11: return FlowStatsRequest{xid, random_match(rng), u16()};
    case 12: {
      FlowStatsReply m{xid, {}};
      for (auto n = rng.next_below(4); n > 0; --n) {
        m.flows.push_back(FlowStatsEntry{random_match(rng), u32(), u32(), u16(), u16(), u16(),
                                         rng.next_u64(), rng.next_u64(), rng.next_u64()});
      }
      return m;
    }
    case 13: return AggregateStatsRequest{xid, random_match(rng), u16()};
    case 14: return AggregateStatsReply{xid, rng.next_u64(), rng.next_u64(), u32()};
    case 15: return PortStatsRequest{xid, u16()};
    case 16: {
      PortStatsReply m{xid, {}};
      for (auto n = rng.next_below(4); n > 0; --n) {
        m.ports.push_back(PortStatsEntry{u16(), rng.next_u64(), rng.next_u64(), rng.next_u64(),
                                         rng.next_u64(), rng.next_u64(), rng.next_u64()});
      }
      return m;
    }
    case 17: return BarrierRequest{xid};
    case 18: return BarrierReply{xid};
    default:
      return FlowSample{xid, u32(), u32(), u32(), u16(), u16(), u16(), u16(),
                        static_cast<std::uint8_t>(rng.next_below(256))};
  }
}

TEST(MessageGoldens, RandomMessagesOfEveryTypeRoundTrip) {
  util::Rng rng{0x5eed};
  std::vector<std::uint8_t> buf;
  constexpr std::size_t kTypes = std::variant_size_v<OfMessage>;
  for (std::size_t i = 0; i < 100 * kTypes; ++i) {
    const OfMessage msg = random_message(rng, i % kTypes);
    ASSERT_EQ(msg.index(), i % kTypes);
    encode_message_into(msg, buf);
    ASSERT_EQ(buf.size(), encoded_size(msg));
    const auto decoded = decode_message(buf);
    ASSERT_TRUE(decoded.has_value()) << msg_type_name(message_type(msg));
    ASSERT_EQ(*decoded, msg) << "message " << i << ": " << msg_type_name(message_type(msg));
  }
}

}  // namespace
}  // namespace sdnbuf::of
