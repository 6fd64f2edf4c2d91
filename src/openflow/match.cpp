#include "openflow/match.hpp"

#include <sstream>

#include "openflow/constants.hpp"
#include "util/byte_order.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdnbuf::of {

using util::get_be16;
using util::get_be32;

namespace {

// Mask of IP bits that must agree, given a count of ignored low bits.
std::uint32_t prefix_mask(int ignored_bits) {
  if (ignored_bits >= 32) return 0;
  return ~std::uint32_t{0} << ignored_bits;
}

std::uint16_t l4_src(const net::Packet& p) {
  if (p.ip.protocol == net::kIpProtoUdp) return p.udp.src_port;
  if (p.ip.protocol == net::kIpProtoTcp) return p.tcp.src_port;
  return 0;
}

std::uint16_t l4_dst(const net::Packet& p) {
  if (p.ip.protocol == net::kIpProtoUdp) return p.udp.dst_port;
  if (p.ip.protocol == net::kIpProtoTcp) return p.tcp.dst_port;
  return 0;
}

}  // namespace

Match Match::exact_from(const net::Packet& p, std::uint16_t in_port) {
  Match m;
  m.wildcards = 0;
  m.in_port = in_port;
  m.dl_src = p.eth.src;
  m.dl_dst = p.eth.dst;
  m.dl_type = p.eth.ethertype;
  if (p.eth.ethertype == net::kEtherTypeIpv4) {
    m.nw_tos = p.ip.dscp;
    m.nw_proto = p.ip.protocol;
    m.nw_src = p.ip.src;
    m.nw_dst = p.ip.dst;
    m.tp_src = l4_src(p);
    m.tp_dst = l4_dst(p);
  } else {
    // Non-IP: network/transport fields are irrelevant; wildcard them.
    m.wildcards |= kWildcardNwProto | kWildcardNwTos | kWildcardTpSrc | kWildcardTpDst |
                   kWildcardNwSrcMask | kWildcardNwDstMask;
  }
  return m;
}

int Match::nw_src_ignored_bits() const {
  return static_cast<int>((wildcards & kWildcardNwSrcMask) >> kWildcardNwSrcShift);
}

int Match::nw_dst_ignored_bits() const {
  return static_cast<int>((wildcards & kWildcardNwDstMask) >> kWildcardNwDstShift);
}

void Match::set_nw_src_ignored_bits(int bits) {
  SDNBUF_CHECK(bits >= 0 && bits <= 63);
  wildcards = (wildcards & ~kWildcardNwSrcMask) |
              (static_cast<std::uint32_t>(bits) << kWildcardNwSrcShift);
}

void Match::set_nw_dst_ignored_bits(int bits) {
  SDNBUF_CHECK(bits >= 0 && bits <= 63);
  wildcards = (wildcards & ~kWildcardNwDstMask) |
              (static_cast<std::uint32_t>(bits) << kWildcardNwDstShift);
}

bool Match::matches(const net::Packet& p, std::uint16_t port) const {
  if (!(wildcards & kWildcardInPort) && in_port != port) return false;
  if (!(wildcards & kWildcardDlSrc) && dl_src != p.eth.src) return false;
  if (!(wildcards & kWildcardDlDst) && dl_dst != p.eth.dst) return false;
  if (!(wildcards & kWildcardDlType) && dl_type != p.eth.ethertype) return false;
  // IP-layer fields only constrain IPv4 packets; for non-IP traffic OF 1.0
  // treats them as unconstrained.
  if (p.eth.ethertype != net::kEtherTypeIpv4) return true;
  if (!(wildcards & kWildcardNwTos) && nw_tos != p.ip.dscp) return false;
  if (!(wildcards & kWildcardNwProto) && nw_proto != p.ip.protocol) return false;
  const std::uint32_t src_mask = prefix_mask(nw_src_ignored_bits());
  if ((p.ip.src.value() & src_mask) != (nw_src.value() & src_mask)) return false;
  const std::uint32_t dst_mask = prefix_mask(nw_dst_ignored_bits());
  if ((p.ip.dst.value() & dst_mask) != (nw_dst.value() & dst_mask)) return false;
  if (!(wildcards & kWildcardTpSrc) && tp_src != l4_src(p)) return false;
  if (!(wildcards & kWildcardTpDst) && tp_dst != l4_dst(p)) return false;
  return true;
}

bool Match::subsumes(const Match& other) const {
  auto field_ok = [&](std::uint32_t bit, auto mine, auto theirs) {
    if (wildcards & bit) return true;              // we don't constrain it
    if (other.wildcards & bit) return false;       // they allow anything, we don't
    return mine == theirs;
  };
  if (!field_ok(kWildcardInPort, in_port, other.in_port)) return false;
  if (!field_ok(kWildcardDlSrc, dl_src, other.dl_src)) return false;
  if (!field_ok(kWildcardDlDst, dl_dst, other.dl_dst)) return false;
  if (!field_ok(kWildcardDlType, dl_type, other.dl_type)) return false;
  if (!field_ok(kWildcardNwTos, nw_tos, other.nw_tos)) return false;
  if (!field_ok(kWildcardNwProto, nw_proto, other.nw_proto)) return false;
  if (!field_ok(kWildcardTpSrc, tp_src, other.tp_src)) return false;
  if (!field_ok(kWildcardTpDst, tp_dst, other.tp_dst)) return false;
  // Prefixes: ours must be no longer than theirs and agree on the kept bits.
  const int my_src_ign = nw_src_ignored_bits();
  const int their_src_ign = other.nw_src_ignored_bits();
  if (my_src_ign < their_src_ign) return false;
  const std::uint32_t src_mask = prefix_mask(my_src_ign);
  if ((nw_src.value() & src_mask) != (other.nw_src.value() & src_mask)) return false;
  const int my_dst_ign = nw_dst_ignored_bits();
  const int their_dst_ign = other.nw_dst_ignored_bits();
  if (my_dst_ign < their_dst_ign) return false;
  const std::uint32_t dst_mask = prefix_mask(my_dst_ign);
  if ((nw_dst.value() & dst_mask) != (other.nw_dst.value() & dst_mask)) return false;
  return true;
}

void Match::encode(util::ByteCursor& out) const {
  out.be32(wildcards);
  out.be16(in_port);
  out.bytes(dl_src.octets());
  out.bytes(dl_dst.octets());
  out.be16(dl_vlan);
  out.u8(dl_vlan_pcp);
  out.pad(1);
  out.be16(dl_type);
  out.u8(nw_tos);
  out.u8(nw_proto);
  out.pad(2);
  out.be32(nw_src.value());
  out.be32(nw_dst.value());
  out.be16(tp_src);
  out.be16(tp_dst);
}

std::optional<Match> Match::decode(std::span<const std::uint8_t> in) {
  if (in.size() < kMatchSize) return std::nullopt;
  Match m;
  m.wildcards = get_be32(in, 0);
  m.in_port = get_be16(in, 4);
  std::array<std::uint8_t, 6> mac{};
  std::copy(in.begin() + 6, in.begin() + 12, mac.begin());
  m.dl_src = net::MacAddress{mac};
  std::copy(in.begin() + 12, in.begin() + 18, mac.begin());
  m.dl_dst = net::MacAddress{mac};
  m.dl_vlan = get_be16(in, 18);
  m.dl_vlan_pcp = in[20];
  m.dl_type = get_be16(in, 22);
  m.nw_tos = in[24];
  m.nw_proto = in[25];
  m.nw_src = net::Ipv4Address{get_be32(in, 28)};
  m.nw_dst = net::Ipv4Address{get_be32(in, 32)};
  m.tp_src = get_be16(in, 36);
  m.tp_dst = get_be16(in, 38);
  return m;
}

std::size_t MatchHash::operator()(const of::Match& m) const {
  const auto mac48 = [](const net::MacAddress& mac) {
    std::uint64_t v = 0;
    for (const std::uint8_t octet : mac.octets()) v = (v << 8) | octet;
    return v;
  };
  std::uint64_t h = util::mix64(m.wildcards | std::uint64_t{m.in_port} << 32 |
                                std::uint64_t{m.dl_vlan} << 48);
  h = util::mix64(h ^ mac48(m.dl_src) ^ std::uint64_t{m.dl_type} << 48);
  h = util::mix64(h ^ mac48(m.dl_dst) ^ std::uint64_t{m.dl_vlan_pcp} << 48 ^
                  std::uint64_t{m.nw_tos} << 56);
  h = util::mix64(h ^ m.nw_src.value() ^ std::uint64_t{m.nw_dst.value()} << 32);
  return static_cast<std::size_t>(util::mix64(h ^ m.tp_src ^ std::uint64_t{m.tp_dst} << 16 ^
                                              std::uint64_t{m.nw_proto} << 32));
}

std::string Match::to_string() const {
  std::ostringstream os;
  os << "match{";
  if (!(wildcards & kWildcardInPort)) os << "in_port=" << in_port << ' ';
  if (!(wildcards & kWildcardDlSrc)) os << "dl_src=" << dl_src.to_string() << ' ';
  if (!(wildcards & kWildcardDlDst)) os << "dl_dst=" << dl_dst.to_string() << ' ';
  if (!(wildcards & kWildcardDlType)) os << "dl_type=0x" << std::hex << dl_type << std::dec << ' ';
  if (!(wildcards & kWildcardNwProto)) os << "nw_proto=" << int{nw_proto} << ' ';
  if (nw_src_ignored_bits() < 32) {
    os << "nw_src=" << nw_src.to_string() << '/' << (32 - nw_src_ignored_bits()) << ' ';
  }
  if (nw_dst_ignored_bits() < 32) {
    os << "nw_dst=" << nw_dst.to_string() << '/' << (32 - nw_dst_ignored_bits()) << ' ';
  }
  if (!(wildcards & kWildcardTpSrc)) os << "tp_src=" << tp_src << ' ';
  if (!(wildcards & kWildcardTpDst)) os << "tp_dst=" << tp_dst << ' ';
  os << '}';
  return os.str();
}

}  // namespace sdnbuf::of
