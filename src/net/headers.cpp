#include "net/headers.hpp"

#include "util/byte_order.hpp"

namespace sdnbuf::net {

using util::get_be16;
using util::get_be32;

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) sum += (std::uint32_t{data[i]} << 8) | data[i + 1];
  if (i < data.size()) sum += std::uint32_t{data[i]} << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

void EthernetHeader::encode(util::ByteCursor& out) const {
  out.bytes(dst.octets());
  out.bytes(src.octets());
  out.be16(ethertype);
}

std::optional<EthernetHeader> EthernetHeader::decode(std::span<const std::uint8_t> in) {
  if (in.size() < kSize) return std::nullopt;
  EthernetHeader h;
  std::array<std::uint8_t, 6> mac{};
  std::copy(in.begin(), in.begin() + 6, mac.begin());
  h.dst = MacAddress{mac};
  std::copy(in.begin() + 6, in.begin() + 12, mac.begin());
  h.src = MacAddress{mac};
  h.ethertype = get_be16(in, 12);
  return h;
}

void Ipv4Header::encode(util::ByteCursor& out) const {
  std::uint8_t* const start = out.pos();
  out.u8(0x45);  // version 4, IHL 5
  out.u8(dscp);
  out.be16(total_length);
  out.be16(identification);
  out.be16(0x4000);  // flags: DF, fragment offset 0
  out.u8(ttl);
  out.u8(protocol);
  out.be16(0);  // checksum placeholder
  out.be32(src.value());
  out.be32(dst.value());
  const std::uint16_t csum = internet_checksum(std::span<const std::uint8_t>(start, kSize));
  start[10] = static_cast<std::uint8_t>(csum >> 8);
  start[11] = static_cast<std::uint8_t>(csum);
}

std::optional<Ipv4Header> Ipv4Header::decode(std::span<const std::uint8_t> in) {
  if (in.size() < kSize) return std::nullopt;
  if (in[0] != 0x45) return std::nullopt;  // only version 4, no options
  if (internet_checksum(in.subspan(0, kSize)) != 0) return std::nullopt;
  Ipv4Header h;
  h.dscp = in[1];
  h.total_length = get_be16(in, 2);
  h.identification = get_be16(in, 4);
  h.ttl = in[8];
  h.protocol = in[9];
  h.src = Ipv4Address{get_be32(in, 12)};
  h.dst = Ipv4Address{get_be32(in, 16)};
  return h;
}

void UdpHeader::encode(util::ByteCursor& out) const {
  out.be16(src_port);
  out.be16(dst_port);
  out.be16(length);
  out.be16(0);  // checksum optional in IPv4; 0 == not computed
}

std::optional<UdpHeader> UdpHeader::decode(std::span<const std::uint8_t> in) {
  if (in.size() < kSize) return std::nullopt;
  UdpHeader h;
  h.src_port = get_be16(in, 0);
  h.dst_port = get_be16(in, 2);
  h.length = get_be16(in, 4);
  return h;
}

void TcpHeader::encode(util::ByteCursor& out) const {
  out.be16(src_port);
  out.be16(dst_port);
  out.be32(seq);
  out.be32(ack);
  out.u8(0x50);  // data offset 5 words
  out.u8(flags);
  out.be16(window);
  out.be16(0);  // checksum: not modelled (needs pseudo-header over payload)
  out.be16(0);  // urgent pointer
}

std::optional<TcpHeader> TcpHeader::decode(std::span<const std::uint8_t> in) {
  if (in.size() < kSize) return std::nullopt;
  if ((in[12] >> 4) != 5) return std::nullopt;  // options not supported
  TcpHeader h;
  h.src_port = get_be16(in, 0);
  h.dst_port = get_be16(in, 2);
  h.seq = get_be32(in, 4);
  h.ack = get_be32(in, 8);
  h.flags = in[13];
  h.window = get_be16(in, 14);
  return h;
}

}  // namespace sdnbuf::net
