// Unit tests for the net library: addresses, header codecs (byte-accurate
// round trips, checksum verification), flow keys, packets, links and taps.
#include <gtest/gtest.h>

#include "net/address.hpp"
#include "net/flow_key.hpp"
#include "net/headers.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace sdnbuf::net {
namespace {

// Encodes one header through a cursor into a buffer cut to what it wrote.
template <class Header>
std::vector<std::uint8_t> encoded(const Header& h) {
  std::vector<std::uint8_t> buf(64);
  util::ByteCursor out(buf.data());
  h.encode(out);
  buf.resize(static_cast<std::size_t>(out.pos() - buf.data()));
  return buf;
}

TEST(MacAddress, ParseAndFormatRoundTrip) {
  const auto mac = MacAddress::parse("02:00:5e:10:ab:cd");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "02:00:5e:10:ab:cd");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::parse("02:00:5e:10:ab").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:5e:10:ab:cd:ef").has_value());
  EXPECT_FALSE(MacAddress::parse("not a mac").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:5e:10:ab:1cd").has_value());
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  const MacAddress unicast = MacAddress::from_index(3);
  EXPECT_FALSE(unicast.is_broadcast());
  EXPECT_FALSE(unicast.is_multicast());
}

TEST(MacAddress, FromIndexDistinct) {
  EXPECT_NE(MacAddress::from_index(1), MacAddress::from_index(2));
  EXPECT_EQ(MacAddress::from_index(600).to_u64() & 0xffff, 600u);
}

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto ip = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "10.1.2.3");
  EXPECT_EQ(ip->value(), 0x0a010203u);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.300").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
}

TEST(Checksum, KnownVector) {
  // RFC 1071 example-style check: the checksum of a buffer with its checksum
  // field filled verifies to zero.
  Ipv4Header h;
  h.total_length = 100;
  h.src = Ipv4Address::from_octets(192, 168, 0, 1);
  h.dst = Ipv4Address::from_octets(192, 168, 0, 2);
  auto buf = encoded(h);
  EXPECT_EQ(internet_checksum(buf), 0);
}

TEST(EthernetHeader, RoundTrip) {
  EthernetHeader h;
  h.src = MacAddress::from_index(1);
  h.dst = MacAddress::from_index(2);
  h.ethertype = kEtherTypeIpv4;
  auto buf = encoded(h);
  ASSERT_EQ(buf.size(), EthernetHeader::kSize);
  const auto decoded = EthernetHeader::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(EthernetHeader, DecodeRejectsTruncated) {
  const std::vector<std::uint8_t> buf(EthernetHeader::kSize - 1, 0);
  EXPECT_FALSE(EthernetHeader::decode(buf).has_value());
}

TEST(Ipv4Header, RoundTrip) {
  Ipv4Header h;
  h.dscp = 0x12;
  h.total_length = 986;
  h.identification = 777;
  h.ttl = 61;
  h.protocol = kIpProtoUdp;
  h.src = Ipv4Address::from_octets(10, 1, 0, 5);
  h.dst = Ipv4Address::from_octets(10, 2, 0, 1);
  auto buf = encoded(h);
  ASSERT_EQ(buf.size(), Ipv4Header::kSize);
  const auto decoded = Ipv4Header::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(Ipv4Header, DecodeRejectsCorruptChecksum) {
  Ipv4Header h;
  h.total_length = 40;
  auto buf = encoded(h);
  buf[14] ^= 0x01;  // flip a source-address bit
  EXPECT_FALSE(Ipv4Header::decode(buf).has_value());
}

TEST(UdpHeader, RoundTrip) {
  UdpHeader h;
  h.src_port = 10001;
  h.dst_port = 9;
  h.length = 966;
  auto buf = encoded(h);
  ASSERT_EQ(buf.size(), UdpHeader::kSize);
  const auto decoded = UdpHeader::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(TcpHeader, RoundTrip) {
  TcpHeader h;
  h.src_port = 43210;
  h.dst_port = 80;
  h.seq = 0x11223344;
  h.ack = 0x55667788;
  h.flags = kTcpSyn | kTcpAck;
  h.window = 8192;
  auto buf = encoded(h);
  ASSERT_EQ(buf.size(), TcpHeader::kSize);
  const auto decoded = TcpHeader::decode(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(FlowKey, EqualityAndHash) {
  FlowKey a{Ipv4Address::from_octets(10, 0, 0, 1), Ipv4Address::from_octets(10, 0, 0, 2), 1000,
            2000, kIpProtoUdp};
  FlowKey b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.src_port = 1001;
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(FlowKey, HashSpreads) {
  // Different flows (the forged-source-IP workload) must hash apart.
  std::set<std::uint64_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const FlowKey k{Ipv4Address{0x0a010001u + i}, Ipv4Address::from_octets(10, 2, 0, 1), 10000,
                    9, kIpProtoUdp};
    hashes.insert(k.hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Packet, MakeUdpConsistentLengths) {
  const auto p = make_udp_packet(MacAddress::from_index(1), MacAddress::from_index(2),
                                 Ipv4Address::from_octets(10, 1, 0, 1),
                                 Ipv4Address::from_octets(10, 2, 0, 1), 10000, 9, 1000);
  EXPECT_EQ(p.frame_size, 1000u);
  EXPECT_EQ(p.ip.total_length, 1000 - EthernetHeader::kSize);
  EXPECT_EQ(p.udp.length, 1000 - EthernetHeader::kSize - Ipv4Header::kSize);
  EXPECT_EQ(p.header_size(), EthernetHeader::kSize + Ipv4Header::kSize + UdpHeader::kSize);
}

TEST(Packet, FlowKeyFromHeaders) {
  const auto p = make_udp_packet(MacAddress::from_index(1), MacAddress::from_index(2),
                                 Ipv4Address::from_octets(10, 1, 0, 1),
                                 Ipv4Address::from_octets(10, 2, 0, 1), 10000, 9, 1000);
  const FlowKey k = p.flow_key();
  EXPECT_EQ(k.src_ip, p.ip.src);
  EXPECT_EQ(k.dst_ip, p.ip.dst);
  EXPECT_EQ(k.src_port, 10000);
  EXPECT_EQ(k.dst_port, 9);
  EXPECT_EQ(k.protocol, kIpProtoUdp);
}

TEST(Packet, SerializeParseRoundTripUdp) {
  const auto p = make_udp_packet(MacAddress::from_index(1), MacAddress::from_index(2),
                                 Ipv4Address::from_octets(10, 1, 0, 7),
                                 Ipv4Address::from_octets(10, 2, 0, 1), 12345, 9, 1000);
  const auto wire = p.serialize(p.frame_size);
  EXPECT_EQ(wire.size(), 1000u);
  const auto parsed = Packet::parse(wire, 1000);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->eth, p.eth);
  EXPECT_EQ(parsed->ip, p.ip);
  EXPECT_EQ(parsed->udp, p.udp);
  EXPECT_EQ(parsed->frame_size, 1000u);
}

TEST(Packet, SerializeParseRoundTripTcp) {
  const auto p = make_tcp_packet(MacAddress::from_index(1), MacAddress::from_index(2),
                                 Ipv4Address::from_octets(10, 1, 0, 7),
                                 Ipv4Address::from_octets(10, 2, 0, 1), 50000, 80, kTcpSyn, 74);
  const auto wire = p.serialize(p.frame_size);
  const auto parsed = Packet::parse(wire, 74);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tcp, p.tcp);
  EXPECT_EQ(parsed->tcp.flags, kTcpSyn);
}

TEST(Packet, TruncatedCaptureStillParses) {
  // miss_send_len-style truncation: 128 bytes still cover all headers.
  const auto p = make_udp_packet(MacAddress::from_index(1), MacAddress::from_index(2),
                                 Ipv4Address::from_octets(10, 1, 0, 7),
                                 Ipv4Address::from_octets(10, 2, 0, 1), 12345, 9, 1000);
  const auto wire = p.serialize(128);
  EXPECT_EQ(wire.size(), 128u);
  const auto parsed = Packet::parse(wire, 1000);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame_size, 1000u);  // total frame size survives truncation
  EXPECT_EQ(parsed->udp.src_port, 12345);
}

TEST(Packet, ParseRejectsGarbage) {
  std::vector<std::uint8_t> garbage(64, 0xaa);
  // Ethertype will be 0xaaaa (non-IP): parses as an L2-only packet.
  const auto l2only = Packet::parse(garbage, 64);
  ASSERT_TRUE(l2only.has_value());
  EXPECT_NE(l2only->eth.ethertype, kEtherTypeIpv4);
  // Claiming IPv4 but with a corrupt header must fail.
  garbage[12] = 0x08;
  garbage[13] = 0x00;
  EXPECT_FALSE(Packet::parse(garbage, 64).has_value());
}

TEST(Link, DeliversAfterSerializationAndPropagation) {
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::microseconds(20)};
  sim::SimTime delivered_at;
  link.send(1000, [&]() { delivered_at = sim.now(); });
  sim.run();
  // 1000 B at 100 Mbps = 80 us; +20 us propagation.
  EXPECT_EQ(delivered_at, sim::SimTime::microseconds(100));
}

TEST(Link, BackToBackFramesSerialize) {
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::zero()};
  std::vector<sim::SimTime> arrivals;
  for (int i = 0; i < 3; ++i) link.send(1000, [&]() { arrivals.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::SimTime::microseconds(80));
  EXPECT_EQ(arrivals[1], sim::SimTime::microseconds(160));
  EXPECT_EQ(arrivals[2], sim::SimTime::microseconds(240));
}

TEST(Link, TapCountsBytesAndFrames) {
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::zero()};
  link.send(600, nullptr);
  link.send(400, nullptr);
  sim.run();
  EXPECT_EQ(link.tap().bytes(), 1000u);
  EXPECT_EQ(link.tap().frames(), 2u);
  // 1000 B over 1 ms = 8 Mbps.
  EXPECT_DOUBLE_EQ(link.tap().load_mbps(sim::SimTime::zero(), sim::SimTime::milliseconds(1)),
                   8.0);
}

TEST(Link, TapResets) {
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::zero()};
  link.send(100, nullptr);
  sim.run();
  link.tap().reset();
  EXPECT_EQ(link.tap().bytes(), 0u);
  EXPECT_EQ(link.tap().frames(), 0u);
}

// Counts its own move constructions (declaring the move constructor
// deletes copying).
struct MoveCounting {
  int* moves;
  int* runs;
  MoveCounting(int* m, int* r) : moves(m), runs(r) {}
  MoveCounting(MoveCounting&& o) noexcept : moves(o.moves), runs(o.runs) { ++*moves; }
  void operator()() const { ++*runs; }
};

TEST(Link, DeliveryCallableIsMovedAtMostTwice) {
  // Forwarded to the simulator and built in its event slot: one move in,
  // one move out to run it.
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::microseconds(20)};
  int moves = 0;
  int runs = 0;
  EXPECT_TRUE(link.send(1000, MoveCounting{&moves, &runs}));
  sim.run();
  EXPECT_EQ(runs, 1);
  EXPECT_LE(moves, 2);

  moves = 0;
  EXPECT_EQ(link.send_frame(1000, MoveCounting{&moves, &runs}), Link::SendResult::Sent);
  sim.run();
  EXPECT_EQ(runs, 2);
  EXPECT_LE(moves, 2);
}

TEST(Link, EmptyCallbackStillSchedulesItsDeliveryEvent) {
  sim::Simulator sim;
  Link link{sim, "l", 100e6, sim::SimTime::zero()};
  link.send(100, nullptr);
  link.send(100, sim::EventFn{});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(link.tap().frames(), 2u);
}

TEST(DuplexLink, DirectionsAreIndependent) {
  sim::Simulator sim;
  DuplexLink link{sim, "d", 100e6, sim::SimTime::zero()};
  link.forward().send(100, nullptr);
  sim.run();
  EXPECT_EQ(link.forward().tap().bytes(), 100u);
  EXPECT_EQ(link.reverse().tap().bytes(), 0u);
}

}  // namespace
}  // namespace sdnbuf::net
