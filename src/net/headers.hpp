// Byte-accurate protocol header codecs: Ethernet II, IPv4, UDP, TCP.
//
// These are real wire encodings (big-endian, with IPv4 header checksum), so
// the bytes a switch copies into an OpenFlow `packet_in` and the bytes the
// controller parses are the genuine article — message sizes, the quantity
// the paper's analysis hinges on, are therefore exact.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/address.hpp"
#include "util/byte_order.hpp"

namespace sdnbuf::net {

// EtherType values used by the testbed.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;

// IP protocol numbers.
inline constexpr std::uint8_t kIpProtoIcmp = 1;
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

// TCP flag bits.
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct EthernetHeader {
  static constexpr std::size_t kSize = 14;

  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = kEtherTypeIpv4;

  void encode(util::ByteCursor& out) const;
  [[nodiscard]] static std::optional<EthernetHeader> decode(std::span<const std::uint8_t> in);

  bool operator==(const EthernetHeader&) const = default;
};

struct Ipv4Header {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // IP header + payload
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  Ipv4Address src;
  Ipv4Address dst;

  // Encodes with a correct header checksum.
  void encode(util::ByteCursor& out) const;
  // Decodes and verifies the checksum; nullopt on truncation/corruption.
  [[nodiscard]] static std::optional<Ipv4Header> decode(std::span<const std::uint8_t> in);

  bool operator==(const Ipv4Header&) const = default;
};

struct UdpHeader {
  static constexpr std::size_t kSize = 8;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = kSize;  // UDP header + payload

  void encode(util::ByteCursor& out) const;
  [[nodiscard]] static std::optional<UdpHeader> decode(std::span<const std::uint8_t> in);

  bool operator==(const UdpHeader&) const = default;
};

struct TcpHeader {
  static constexpr std::size_t kSize = 20;  // no options

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  void encode(util::ByteCursor& out) const;
  [[nodiscard]] static std::optional<TcpHeader> decode(std::span<const std::uint8_t> in);

  bool operator==(const TcpHeader&) const = default;
};

// RFC 1071 ones-complement checksum over `data` (for the IPv4 header).
[[nodiscard]] std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

}  // namespace sdnbuf::net
