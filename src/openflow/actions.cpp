#include "openflow/actions.hpp"

#include <sstream>

#include "util/byte_order.hpp"

namespace sdnbuf::of {

using util::get_be16;

namespace {

// OFPAT_* type codes.
constexpr std::uint16_t kTypeOutput = 0;
constexpr std::uint16_t kTypeSetDlSrc = 4;
constexpr std::uint16_t kTypeSetDlDst = 5;

constexpr std::size_t kOutputSize = 8;
constexpr std::size_t kSetDlSize = 16;

}  // namespace

std::size_t encoded_size(const Action& a) {
  return std::holds_alternative<OutputAction>(a) ? kOutputSize : kSetDlSize;
}

std::size_t encoded_size(const ActionList& actions) {
  std::size_t n = 0;
  for (const auto& a : actions) n += encoded_size(a);
  return n;
}

void encode_actions(const ActionList& actions, util::ByteCursor& out) {
  for (const auto& a : actions) {
    if (const auto* o = std::get_if<OutputAction>(&a)) {
      out.be16(kTypeOutput);
      out.be16(kOutputSize);
      out.be16(o->port);
      out.be16(o->max_len);
    } else if (const auto* s = std::get_if<SetDlSrcAction>(&a)) {
      out.be16(kTypeSetDlSrc);
      out.be16(kSetDlSize);
      out.bytes(s->mac.octets());
      out.pad(6);
    } else if (const auto* d = std::get_if<SetDlDstAction>(&a)) {
      out.be16(kTypeSetDlDst);
      out.be16(kSetDlSize);
      out.bytes(d->mac.octets());
      out.pad(6);
    }
  }
}

std::optional<ActionList> decode_actions(std::span<const std::uint8_t> in, std::size_t len) {
  if (in.size() < len) return std::nullopt;
  ActionList actions;
  std::size_t off = 0;
  while (off < len) {
    if (len - off < 4) return std::nullopt;
    const std::uint16_t type = get_be16(in, off);
    const std::uint16_t alen = get_be16(in, off + 2);
    if (alen < 4 || off + alen > len) return std::nullopt;
    switch (type) {
      case kTypeOutput: {
        if (alen != kOutputSize) return std::nullopt;
        OutputAction o;
        o.port = get_be16(in, off + 4);
        o.max_len = get_be16(in, off + 6);
        actions.emplace_back(o);
        break;
      }
      case kTypeSetDlSrc:
      case kTypeSetDlDst: {
        if (alen != kSetDlSize) return std::nullopt;
        std::array<std::uint8_t, 6> mac{};
        std::copy(in.begin() + static_cast<std::ptrdiff_t>(off + 4),
                  in.begin() + static_cast<std::ptrdiff_t>(off + 10), mac.begin());
        if (type == kTypeSetDlSrc) {
          actions.emplace_back(SetDlSrcAction{net::MacAddress{mac}});
        } else {
          actions.emplace_back(SetDlDstAction{net::MacAddress{mac}});
        }
        break;
      }
      default:
        return std::nullopt;  // unknown action type
    }
    off += alen;
  }
  return actions;
}

std::string to_string(const Action& a) {
  std::ostringstream os;
  if (const auto* o = std::get_if<OutputAction>(&a)) {
    os << "output:" << o->port;
  } else if (const auto* s = std::get_if<SetDlSrcAction>(&a)) {
    os << "set_dl_src:" << s->mac.to_string();
  } else if (const auto* d = std::get_if<SetDlDstAction>(&a)) {
    os << "set_dl_dst:" << d->mac.to_string();
  }
  return os.str();
}

std::string to_string(const ActionList& actions) {
  if (actions.empty()) return "drop";
  std::string out;
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i) out += ',';
    out += to_string(actions[i]);
  }
  return out;
}

}  // namespace sdnbuf::of
