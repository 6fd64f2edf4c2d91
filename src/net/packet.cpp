#include "net/packet.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/check.hpp"

namespace sdnbuf::net {

FlowKey Packet::flow_key() const {
  FlowKey key;
  key.src_ip = ip.src;
  key.dst_ip = ip.dst;
  key.protocol = ip.protocol;
  if (ip.protocol == kIpProtoUdp) {
    key.src_port = udp.src_port;
    key.dst_port = udp.dst_port;
  } else if (ip.protocol == kIpProtoTcp) {
    key.src_port = tcp.src_port;
    key.dst_port = tcp.dst_port;
  }
  return key;
}

std::size_t Packet::header_size() const {
  std::size_t n = EthernetHeader::kSize + Ipv4Header::kSize;
  if (ip.protocol == kIpProtoUdp) n += UdpHeader::kSize;
  if (ip.protocol == kIpProtoTcp) n += TcpHeader::kSize;
  return n;
}

void Packet::serialize_into(std::size_t max_bytes, std::vector<std::uint8_t>& out) const {
  const std::size_t want = std::min<std::size_t>(frame_size, max_bytes);
  out.clear();
  out.resize(want);  // zero payload
  // Headers go through a cursor into a scratch block, then as many of their
  // bytes as the capture keeps (miss_send_len may be shorter than them).
  std::array<std::uint8_t, EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize> headers{};
  util::ByteCursor cursor(headers.data());
  eth.encode(cursor);
  ip.encode(cursor);
  if (ip.protocol == kIpProtoUdp) {
    udp.encode(cursor);
  } else if (ip.protocol == kIpProtoTcp) {
    tcp.encode(cursor);
  }
  const auto written = static_cast<std::size_t>(cursor.pos() - headers.data());
  if (want > 0) std::memcpy(out.data(), headers.data(), std::min(written, want));
}

std::vector<std::uint8_t> Packet::serialize(std::size_t max_bytes) const {
  std::vector<std::uint8_t> out;
  serialize_into(max_bytes, out);
  return out;
}

std::optional<Packet> Packet::parse(std::span<const std::uint8_t> wire,
                                    std::uint32_t total_frame_size) {
  auto eth = EthernetHeader::decode(wire);
  if (!eth) return std::nullopt;
  Packet p;
  p.eth = *eth;
  p.frame_size = total_frame_size;
  if (eth->ethertype != kEtherTypeIpv4) return p;  // non-IP: L2 headers only
  auto ip = Ipv4Header::decode(wire.subspan(EthernetHeader::kSize));
  if (!ip) return std::nullopt;
  p.ip = *ip;
  const auto l4 = wire.subspan(EthernetHeader::kSize + Ipv4Header::kSize);
  if (ip->protocol == kIpProtoUdp) {
    auto udp = UdpHeader::decode(l4);
    if (!udp) return std::nullopt;
    p.udp = *udp;
  } else if (ip->protocol == kIpProtoTcp) {
    auto tcp = TcpHeader::decode(l4);
    if (!tcp) return std::nullopt;
    p.tcp = *tcp;
  }
  return p;
}

namespace {

Packet make_base(const MacAddress& src_mac, const MacAddress& dst_mac, const Ipv4Address& src_ip,
                 const Ipv4Address& dst_ip, std::uint8_t protocol, std::uint32_t frame_size) {
  Packet p;
  p.eth.src = src_mac;
  p.eth.dst = dst_mac;
  p.eth.ethertype = kEtherTypeIpv4;
  p.ip.src = src_ip;
  p.ip.dst = dst_ip;
  p.ip.protocol = protocol;
  p.frame_size = frame_size;
  p.ip.total_length = static_cast<std::uint16_t>(frame_size - EthernetHeader::kSize);
  return p;
}

}  // namespace

Packet make_udp_packet(const MacAddress& src_mac, const MacAddress& dst_mac,
                       const Ipv4Address& src_ip, const Ipv4Address& dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t frame_size) {
  Packet p = make_base(src_mac, dst_mac, src_ip, dst_ip, kIpProtoUdp, frame_size);
  SDNBUF_CHECK_MSG(frame_size >= p.header_size(), "frame too small for UDP headers");
  p.udp.src_port = src_port;
  p.udp.dst_port = dst_port;
  p.udp.length = static_cast<std::uint16_t>(frame_size - EthernetHeader::kSize - Ipv4Header::kSize);
  return p;
}

Packet make_tcp_packet(const MacAddress& src_mac, const MacAddress& dst_mac,
                       const Ipv4Address& src_ip, const Ipv4Address& dst_ip,
                       std::uint16_t src_port, std::uint16_t dst_port, std::uint8_t flags,
                       std::uint32_t frame_size) {
  Packet p = make_base(src_mac, dst_mac, src_ip, dst_ip, kIpProtoTcp, frame_size);
  SDNBUF_CHECK_MSG(frame_size >= p.header_size(), "frame too small for TCP headers");
  p.tcp.src_port = src_port;
  p.tcp.dst_port = dst_port;
  p.tcp.flags = flags;
  return p;
}

}  // namespace sdnbuf::net
