#include "openflow/messages.hpp"

#include <algorithm>

#include "util/byte_order.hpp"
#include "util/check.hpp"

namespace sdnbuf::of {

using util::get_be16;
using util::get_be32;
using util::get_be64;

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "hello";
    case MsgType::Error: return "error";
    case MsgType::EchoRequest: return "echo_request";
    case MsgType::EchoReply: return "echo_reply";
    case MsgType::Vendor: return "vendor";
    case MsgType::FeaturesRequest: return "features_request";
    case MsgType::FeaturesReply: return "features_reply";
    case MsgType::PacketIn: return "packet_in";
    case MsgType::FlowRemoved: return "flow_removed";
    case MsgType::PortStatus: return "port_status";
    case MsgType::PacketOut: return "packet_out";
    case MsgType::FlowMod: return "flow_mod";
    case MsgType::StatsRequest: return "stats_request";
    case MsgType::StatsReply: return "stats_reply";
    case MsgType::BarrierRequest: return "barrier_request";
    case MsgType::BarrierReply: return "barrier_reply";
  }
  return "?";
}

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::Loss: return "loss";
    case FaultKind::Duplicate: return "duplicate";
    case FaultKind::Outage: return "outage";
  }
  return "?";
}

MsgType message_type(const OfMessage& msg) {
  struct Visitor {
    MsgType operator()(const Hello&) const { return MsgType::Hello; }
    MsgType operator()(const Error&) const { return MsgType::Error; }
    MsgType operator()(const EchoRequest&) const { return MsgType::EchoRequest; }
    MsgType operator()(const EchoReply&) const { return MsgType::EchoReply; }
    MsgType operator()(const FeaturesRequest&) const { return MsgType::FeaturesRequest; }
    MsgType operator()(const FeaturesReply&) const { return MsgType::FeaturesReply; }
    MsgType operator()(const PacketIn&) const { return MsgType::PacketIn; }
    MsgType operator()(const PacketOut&) const { return MsgType::PacketOut; }
    MsgType operator()(const FlowMod&) const { return MsgType::FlowMod; }
    MsgType operator()(const FlowRemoved&) const { return MsgType::FlowRemoved; }
    MsgType operator()(const PortStatus&) const { return MsgType::PortStatus; }
    MsgType operator()(const FlowStatsRequest&) const { return MsgType::StatsRequest; }
    MsgType operator()(const FlowStatsReply&) const { return MsgType::StatsReply; }
    MsgType operator()(const AggregateStatsRequest&) const { return MsgType::StatsRequest; }
    MsgType operator()(const AggregateStatsReply&) const { return MsgType::StatsReply; }
    MsgType operator()(const PortStatsRequest&) const { return MsgType::StatsRequest; }
    MsgType operator()(const PortStatsReply&) const { return MsgType::StatsReply; }
    MsgType operator()(const BarrierRequest&) const { return MsgType::BarrierRequest; }
    MsgType operator()(const BarrierReply&) const { return MsgType::BarrierReply; }
    MsgType operator()(const FlowSample&) const { return MsgType::Vendor; }
  };
  return std::visit(Visitor{}, msg);
}

std::uint32_t message_xid(const OfMessage& msg) {
  return std::visit([](const auto& m) { return m.xid; }, msg);
}

std::size_t encoded_size(const OfMessage& msg) {
  struct Visitor {
    std::size_t operator()(const Hello&) const { return kHeaderSize; }
    std::size_t operator()(const Error& m) const { return kErrorFixedSize + m.data.size(); }
    std::size_t operator()(const EchoRequest&) const { return kHeaderSize; }
    std::size_t operator()(const EchoReply&) const { return kHeaderSize; }
    std::size_t operator()(const FeaturesRequest&) const { return kHeaderSize; }
    std::size_t operator()(const FeaturesReply& m) const {
      return kFeaturesReplyFixedSize + m.ports.size() * kPhyPortSize;
    }
    std::size_t operator()(const PacketIn& m) const { return kPacketInFixedSize + m.data.size(); }
    std::size_t operator()(const PacketOut& m) const {
      return kPacketOutFixedSize + encoded_size(m.actions) + m.data.size();
    }
    std::size_t operator()(const FlowMod& m) const {
      return kFlowModFixedSize + encoded_size(m.actions);
    }
    std::size_t operator()(const FlowRemoved&) const { return kFlowRemovedSize; }
    std::size_t operator()(const PortStatus&) const { return kPortStatusSize; }
    std::size_t operator()(const FlowStatsRequest&) const {
      return kStatsHeaderSize + kFlowStatsRequestBodySize;
    }
    std::size_t operator()(const FlowStatsReply& m) const {
      return kStatsHeaderSize + m.flows.size() * kFlowStatsEntrySize;
    }
    std::size_t operator()(const AggregateStatsRequest&) const {
      return kStatsHeaderSize + kFlowStatsRequestBodySize;
    }
    std::size_t operator()(const AggregateStatsReply&) const {
      return kStatsHeaderSize + kAggregateStatsReplyBodySize;
    }
    std::size_t operator()(const PortStatsRequest&) const {
      return kStatsHeaderSize + kPortStatsRequestBodySize;
    }
    std::size_t operator()(const PortStatsReply& m) const {
      return kStatsHeaderSize + m.ports.size() * kPortStatsEntrySize;
    }
    std::size_t operator()(const BarrierRequest&) const { return kHeaderSize; }
    std::size_t operator()(const BarrierReply&) const { return kHeaderSize; }
    std::size_t operator()(const FlowSample&) const { return kVendorFlowSampleSize; }
  };
  return std::visit(Visitor{}, msg);
}

namespace {

void encode_port(util::ByteCursor& out, const PortDesc& p) {
  out.be16(p.port_no);
  out.bytes(p.hw_addr.octets());
  char name[16] = {};
  std::copy_n(p.name.data(), std::min<std::size_t>(p.name.size(), 15), name);
  out.bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(name), 16));
  // config, advertised, supported are not modelled; store the current speed
  // in the "curr" word, the link-down bit in "state", and zero the rest.
  out.be32(0);
  out.be32(p.link_down ? kPortStateLinkDown : 0);
  out.be32(p.curr_speed_mbps);
  out.be32(0);
  out.be32(0);
  out.be32(0);
}

std::optional<PortDesc> decode_port(std::span<const std::uint8_t> in) {
  if (in.size() < kPhyPortSize) return std::nullopt;
  PortDesc p;
  p.port_no = get_be16(in, 0);
  std::array<std::uint8_t, 6> mac{};
  std::copy(in.begin() + 2, in.begin() + 8, mac.begin());
  p.hw_addr = net::MacAddress{mac};
  const auto* name_begin = reinterpret_cast<const char*>(in.data() + 8);
  const auto* name_end = std::find(name_begin, name_begin + 16, '\0');
  p.name.assign(name_begin, name_end);
  p.link_down = (get_be32(in, 28) & kPortStateLinkDown) != 0;
  p.curr_speed_mbps = get_be32(in, 32);
  return p;
}

// Writes one message body (everything after the ofp_header).
struct BodyEncoder {
  util::ByteCursor& out;

  void operator()(const Hello&) const {}
  void operator()(const Error& m) const {
    out.be16(static_cast<std::uint16_t>(m.type));
    out.be16(static_cast<std::uint16_t>(m.code));
    out.bytes(m.data);
  }
  void operator()(const EchoRequest&) const {}
  void operator()(const EchoReply&) const {}
  void operator()(const FeaturesRequest&) const {}
  void operator()(const FeaturesReply& m) const {
    out.be64(m.datapath_id);
    out.be32(m.n_buffers);
    out.u8(m.n_tables);
    out.pad(3);
    out.be32(0);  // capabilities
    out.be32(0);  // actions bitmap
    for (const auto& p : m.ports) encode_port(out, p);
  }
  void operator()(const PacketIn& m) const {
    out.be32(m.buffer_id);
    out.be16(m.total_len);
    out.be16(m.in_port);
    out.u8(static_cast<std::uint8_t>(m.reason));
    out.pad(1);
    out.bytes(m.data);
  }
  void operator()(const PacketOut& m) const {
    out.be32(m.buffer_id);
    out.be16(m.in_port);
    out.be16(static_cast<std::uint16_t>(encoded_size(m.actions)));
    encode_actions(m.actions, out);
    out.bytes(m.data);
  }
  void operator()(const FlowMod& m) const {
    m.match.encode(out);
    out.be64(m.cookie);
    out.be16(static_cast<std::uint16_t>(m.command));
    out.be16(m.idle_timeout_s);
    out.be16(m.hard_timeout_s);
    out.be16(m.priority);
    out.be32(m.buffer_id);
    out.be16(m.out_port);
    out.be16(m.flags);
    encode_actions(m.actions, out);
  }
  void operator()(const FlowRemoved& m) const {
    m.match.encode(out);
    out.be64(m.cookie);
    out.be16(m.priority);
    out.u8(static_cast<std::uint8_t>(m.reason));
    out.pad(1);
    out.be32(m.duration_sec);
    out.be32(m.duration_nsec);
    out.be16(m.idle_timeout_s);
    out.pad(2);
    out.be64(m.packet_count);
    out.be64(m.byte_count);
  }
  void operator()(const PortStatus& m) const {
    out.u8(static_cast<std::uint8_t>(m.reason));
    out.pad(7);
    encode_port(out, m.desc);
  }
  void operator()(const FlowStatsRequest& m) const {
    stats_header(StatsType::Flow);
    match_request(m.match, m.out_port);
  }
  void operator()(const FlowStatsReply& m) const {
    stats_header(StatsType::Flow);
    for (const auto& f : m.flows) {
      out.be16(static_cast<std::uint16_t>(kFlowStatsEntrySize));
      out.u8(0);  // table_id
      out.pad(1);
      f.match.encode(out);
      out.be32(f.duration_sec);
      out.be32(f.duration_nsec);
      out.be16(f.priority);
      out.be16(f.idle_timeout_s);
      out.be16(f.hard_timeout_s);
      out.pad(6);
      out.be64(f.cookie);
      out.be64(f.packet_count);
      out.be64(f.byte_count);
    }
  }
  void operator()(const AggregateStatsRequest& m) const {
    stats_header(StatsType::Aggregate);
    match_request(m.match, m.out_port);
  }
  void operator()(const AggregateStatsReply& m) const {
    stats_header(StatsType::Aggregate);
    out.be64(m.packet_count);
    out.be64(m.byte_count);
    out.be32(m.flow_count);
    out.pad(4);
  }
  void operator()(const PortStatsRequest& m) const {
    stats_header(StatsType::Port);
    out.be16(m.port_no);
    out.pad(6);
  }
  void operator()(const PortStatsReply& m) const {
    stats_header(StatsType::Port);
    for (const auto& p : m.ports) {
      out.be16(p.port_no);
      out.pad(6);
      out.be64(p.rx_packets);
      out.be64(p.tx_packets);
      out.be64(p.rx_bytes);
      out.be64(p.tx_bytes);
      out.be64(p.rx_dropped);
      out.be64(p.tx_dropped);
      out.pad(48);  // rx/tx errors, frame/over/crc errors, collisions
    }
  }
  void operator()(const BarrierRequest&) const {}
  void operator()(const BarrierReply&) const {}
  void operator()(const FlowSample& m) const {
    out.be32(kSdnbufVendorId);
    out.be16(kFlowSampleSubtype);
    out.pad(2);
    out.be32(m.sample_seq);
    out.be32(m.src_ip);
    out.be32(m.dst_ip);
    out.be16(m.src_port);
    out.be16(m.dst_port);
    out.be16(m.in_port);
    out.be16(m.frame_bytes);
    out.u8(m.protocol);
    out.pad(3);
  }

  // ofp_stats_request/reply: type, then zero flags.
  void stats_header(StatsType type) const {
    out.be16(static_cast<std::uint16_t>(type));
    out.be16(0);
  }
  // Flow/aggregate stats request body: match, table_id (all tables), pad,
  // out_port.
  void match_request(const Match& match, std::uint16_t out_port) const {
    match.encode(out);
    out.u8(0xff);
    out.pad(1);
    out.be16(out_port);
  }
};

}  // namespace

void encode_message_into(const OfMessage& msg, std::vector<std::uint8_t>& out) {
  const std::size_t total = encoded_size(msg);
  SDNBUF_CHECK_MSG(total <= 0xffff, "OpenFlow message too long for 16-bit length");
  out.clear();
  out.resize(total);
  util::ByteCursor cursor(out.data());
  cursor.u8(kVersion);
  cursor.u8(static_cast<std::uint8_t>(message_type(msg)));
  cursor.be16(static_cast<std::uint16_t>(total));
  cursor.be32(message_xid(msg));
  std::visit(BodyEncoder{cursor}, msg);
  SDNBUF_CHECK_MSG(cursor.pos() == out.data() + total, "encoded size mismatch");
}

std::vector<std::uint8_t> encode_message(const OfMessage& msg) {
  std::vector<std::uint8_t> out;
  encode_message_into(msg, out);
  return out;
}

std::optional<OfMessage> decode_message(std::span<const std::uint8_t> in) {
  if (in.size() < kHeaderSize) return std::nullopt;
  if (in[0] != kVersion) return std::nullopt;
  const auto type = static_cast<MsgType>(in[1]);
  const std::uint16_t length = get_be16(in, 2);
  const std::uint32_t xid = get_be32(in, 4);
  if (length < kHeaderSize || in.size() < length) return std::nullopt;
  const auto body = in.subspan(kHeaderSize, length - kHeaderSize);

  switch (type) {
    case MsgType::Hello:
      return Hello{xid};
    case MsgType::Error: {
      if (body.size() < 4) return std::nullopt;
      Error m;
      m.xid = xid;
      m.type = static_cast<ErrorType>(get_be16(body, 0));
      m.code = static_cast<ErrorCode>(get_be16(body, 2));
      m.data.assign(body.begin() + 4, body.end());
      return m;
    }
    case MsgType::EchoRequest:
      return EchoRequest{xid};
    case MsgType::EchoReply:
      return EchoReply{xid};
    case MsgType::FeaturesRequest:
      return FeaturesRequest{xid};
    case MsgType::FeaturesReply: {
      if (body.size() < kFeaturesReplyFixedSize - kHeaderSize) return std::nullopt;
      FeaturesReply m;
      m.xid = xid;
      m.datapath_id = get_be64(body, 0);
      m.n_buffers = get_be32(body, 8);
      m.n_tables = body[12];
      // datapath_id(8) + n_buffers(4) + n_tables(1) + pad(3) + caps(4) + actions(4)
      std::size_t off = 24;
      while (off + kPhyPortSize <= body.size()) {
        auto p = decode_port(body.subspan(off));
        if (!p) return std::nullopt;
        m.ports.push_back(std::move(*p));
        off += kPhyPortSize;
      }
      if (off != body.size()) return std::nullopt;
      return m;
    }
    case MsgType::PacketIn: {
      if (body.size() < kPacketInFixedSize - kHeaderSize) return std::nullopt;
      PacketIn m;
      m.xid = xid;
      m.buffer_id = get_be32(body, 0);
      m.total_len = get_be16(body, 4);
      m.in_port = get_be16(body, 6);
      m.reason = static_cast<PacketInReason>(body[8]);
      m.data.assign(body.begin() + 10, body.end());
      return m;
    }
    case MsgType::PacketOut: {
      if (body.size() < kPacketOutFixedSize - kHeaderSize) return std::nullopt;
      PacketOut m;
      m.xid = xid;
      m.buffer_id = get_be32(body, 0);
      m.in_port = get_be16(body, 4);
      const std::uint16_t actions_len = get_be16(body, 6);
      if (body.size() < 8u + actions_len) return std::nullopt;
      auto actions = decode_actions(body.subspan(8), actions_len);
      if (!actions) return std::nullopt;
      m.actions = std::move(*actions);
      m.data.assign(body.begin() + 8 + actions_len, body.end());
      return m;
    }
    case MsgType::FlowMod: {
      if (body.size() < kFlowModFixedSize - kHeaderSize) return std::nullopt;
      auto match = Match::decode(body);
      if (!match) return std::nullopt;
      FlowMod m;
      m.xid = xid;
      m.match = *match;
      std::size_t off = kMatchSize;
      m.cookie = get_be64(body, off);
      m.command = static_cast<FlowModCommand>(get_be16(body, off + 8));
      m.idle_timeout_s = get_be16(body, off + 10);
      m.hard_timeout_s = get_be16(body, off + 12);
      m.priority = get_be16(body, off + 14);
      m.buffer_id = get_be32(body, off + 16);
      m.out_port = get_be16(body, off + 20);
      m.flags = get_be16(body, off + 22);
      auto actions = decode_actions(body.subspan(off + 24), body.size() - off - 24);
      if (!actions) return std::nullopt;
      m.actions = std::move(*actions);
      return m;
    }
    case MsgType::FlowRemoved: {
      if (body.size() < kFlowRemovedSize - kHeaderSize) return std::nullopt;
      auto match = Match::decode(body);
      if (!match) return std::nullopt;
      FlowRemoved m;
      m.xid = xid;
      m.match = *match;
      std::size_t off = kMatchSize;
      m.cookie = get_be64(body, off);
      m.priority = get_be16(body, off + 8);
      m.reason = static_cast<FlowRemovedReason>(body[off + 10]);
      m.duration_sec = get_be32(body, off + 12);
      m.duration_nsec = get_be32(body, off + 16);
      m.idle_timeout_s = get_be16(body, off + 20);
      m.packet_count = get_be64(body, off + 24);
      m.byte_count = get_be64(body, off + 32);
      return m;
    }
    case MsgType::PortStatus: {
      if (body.size() < kPortStatusSize - kHeaderSize) return std::nullopt;
      PortStatus m;
      m.xid = xid;
      m.reason = static_cast<PortStatusReason>(body[0]);
      auto p = decode_port(body.subspan(8));
      if (!p) return std::nullopt;
      m.desc = std::move(*p);
      return m;
    }
    case MsgType::StatsRequest: {
      if (body.size() < 4) return std::nullopt;
      const auto stats_type = static_cast<StatsType>(get_be16(body, 0));
      const auto sbody = body.subspan(4);
      switch (stats_type) {
        case StatsType::Flow:
        case StatsType::Aggregate: {
          if (sbody.size() != kFlowStatsRequestBodySize) return std::nullopt;
          auto match = Match::decode(sbody);
          if (!match) return std::nullopt;
          const std::uint16_t out_port = get_be16(sbody, kMatchSize + 2);
          if (stats_type == StatsType::Flow) return FlowStatsRequest{xid, *match, out_port};
          return AggregateStatsRequest{xid, *match, out_port};
        }
        case StatsType::Port: {
          if (sbody.size() != kPortStatsRequestBodySize) return std::nullopt;
          return PortStatsRequest{xid, get_be16(sbody, 0)};
        }
      }
      return std::nullopt;
    }
    case MsgType::StatsReply: {
      if (body.size() < 4) return std::nullopt;
      const auto stats_type = static_cast<StatsType>(get_be16(body, 0));
      const auto sbody = body.subspan(4);
      switch (stats_type) {
        case StatsType::Flow: {
          if (sbody.size() % kFlowStatsEntrySize != 0) return std::nullopt;
          FlowStatsReply m;
          m.xid = xid;
          for (std::size_t off = 0; off < sbody.size(); off += kFlowStatsEntrySize) {
            if (get_be16(sbody, off) != kFlowStatsEntrySize) return std::nullopt;
            auto match = Match::decode(sbody.subspan(off + 4));
            if (!match) return std::nullopt;
            FlowStatsEntry e;
            e.match = *match;
            std::size_t p = off + 4 + kMatchSize;
            e.duration_sec = get_be32(sbody, p);
            e.duration_nsec = get_be32(sbody, p + 4);
            e.priority = get_be16(sbody, p + 8);
            e.idle_timeout_s = get_be16(sbody, p + 10);
            e.hard_timeout_s = get_be16(sbody, p + 12);
            e.cookie = get_be64(sbody, p + 20);
            e.packet_count = get_be64(sbody, p + 28);
            e.byte_count = get_be64(sbody, p + 36);
            m.flows.push_back(std::move(e));
          }
          return m;
        }
        case StatsType::Aggregate: {
          if (sbody.size() != kAggregateStatsReplyBodySize) return std::nullopt;
          AggregateStatsReply m;
          m.xid = xid;
          m.packet_count = get_be64(sbody, 0);
          m.byte_count = get_be64(sbody, 8);
          m.flow_count = get_be32(sbody, 16);
          return m;
        }
        case StatsType::Port: {
          if (sbody.size() % kPortStatsEntrySize != 0) return std::nullopt;
          PortStatsReply m;
          m.xid = xid;
          for (std::size_t off = 0; off < sbody.size(); off += kPortStatsEntrySize) {
            PortStatsEntry e;
            e.port_no = get_be16(sbody, off);
            e.rx_packets = get_be64(sbody, off + 8);
            e.tx_packets = get_be64(sbody, off + 16);
            e.rx_bytes = get_be64(sbody, off + 24);
            e.tx_bytes = get_be64(sbody, off + 32);
            e.rx_dropped = get_be64(sbody, off + 40);
            e.tx_dropped = get_be64(sbody, off + 48);
            m.ports.push_back(e);
          }
          return m;
        }
      }
      return std::nullopt;
    }
    case MsgType::BarrierRequest:
      return BarrierRequest{xid};
    case MsgType::BarrierReply:
      return BarrierReply{xid};
    case MsgType::Vendor: {
      if (body.size() != kVendorFlowSampleSize - kHeaderSize) return std::nullopt;
      if (get_be32(body, 0) != kSdnbufVendorId) return std::nullopt;
      if (get_be16(body, 4) != kFlowSampleSubtype) return std::nullopt;
      FlowSample m;
      m.xid = xid;
      m.sample_seq = get_be32(body, 8);
      m.src_ip = get_be32(body, 12);
      m.dst_ip = get_be32(body, 16);
      m.src_port = get_be16(body, 20);
      m.dst_port = get_be16(body, 22);
      m.in_port = get_be16(body, 24);
      m.frame_bytes = get_be16(body, 26);
      m.protocol = body[28];
      return m;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace sdnbuf::of
