// OpenFlow 1.0 actions.
//
// The testbed only needs OUTPUT (forward through a port, flood, or send to
// controller) plus the L2 rewrite actions a learning controller may emit;
// an empty action list means drop, as in the specification.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/address.hpp"
#include "util/byte_order.hpp"

namespace sdnbuf::of {

// OFPAT_OUTPUT
struct OutputAction {
  std::uint16_t port = 0;
  // Max bytes to send when port == kPortController.
  std::uint16_t max_len = 0;

  bool operator==(const OutputAction&) const = default;
};

// OFPAT_SET_DL_SRC / OFPAT_SET_DL_DST
struct SetDlSrcAction {
  net::MacAddress mac;
  bool operator==(const SetDlSrcAction&) const = default;
};

struct SetDlDstAction {
  net::MacAddress mac;
  bool operator==(const SetDlDstAction&) const = default;
};

using Action = std::variant<OutputAction, SetDlSrcAction, SetDlDstAction>;

using ActionList = std::vector<Action>;

// Encoded length of one action / a list (every modelled action is 8 or 16
// bytes on the wire, as in OF 1.0).
[[nodiscard]] std::size_t encoded_size(const Action& a);
[[nodiscard]] std::size_t encoded_size(const ActionList& actions);

void encode_actions(const ActionList& actions, util::ByteCursor& out);

// Decodes exactly `len` bytes of actions; nullopt on malformed input.
[[nodiscard]] std::optional<ActionList> decode_actions(std::span<const std::uint8_t> in,
                                                       std::size_t len);

[[nodiscard]] std::string to_string(const Action& a);
[[nodiscard]] std::string to_string(const ActionList& actions);

// Convenience constructors.
[[nodiscard]] inline ActionList output_to(std::uint16_t port, std::uint16_t max_len = 0) {
  return {OutputAction{port, max_len}};
}
[[nodiscard]] inline ActionList drop() { return {}; }

}  // namespace sdnbuf::of
