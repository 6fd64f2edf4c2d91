// Big-endian (network byte order) serialization helpers.
//
// OpenFlow and all classic network headers are big-endian on the wire; these
// helpers read/write integers into byte buffers independent of host
// endianness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace sdnbuf::util {

// Write cursor over storage the caller has already sized: encoders compute
// the wire size once, resize the buffer, then store every field through the
// pointer (no per-byte capacity checks, no reallocation).
class ByteCursor {
 public:
  explicit ByteCursor(std::uint8_t* pos) : pos_(pos) {}

  void u8(std::uint8_t v) { *pos_++ = v; }
  void be16(std::uint16_t v) {
    pos_[0] = static_cast<std::uint8_t>(v >> 8);
    pos_[1] = static_cast<std::uint8_t>(v);
    pos_ += 2;
  }
  void be32(std::uint32_t v) {
    pos_[0] = static_cast<std::uint8_t>(v >> 24);
    pos_[1] = static_cast<std::uint8_t>(v >> 16);
    pos_[2] = static_cast<std::uint8_t>(v >> 8);
    pos_[3] = static_cast<std::uint8_t>(v);
    pos_ += 4;
  }
  void be64(std::uint64_t v) {
    be32(static_cast<std::uint32_t>(v >> 32));
    be32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(pos_, data.data(), data.size());
    pos_ += data.size();
  }
  // `n` zero bytes (OpenFlow structures use explicit padding).
  void pad(std::size_t n) {
    std::memset(pos_, 0, n);
    pos_ += n;
  }

  [[nodiscard]] std::uint8_t* pos() const { return pos_; }

 private:
  std::uint8_t* pos_;
};

[[nodiscard]] inline std::uint16_t get_be16(std::span<const std::uint8_t> in, std::size_t off) {
  return static_cast<std::uint16_t>((std::uint16_t{in[off]} << 8) | in[off + 1]);
}

[[nodiscard]] inline std::uint32_t get_be32(std::span<const std::uint8_t> in, std::size_t off) {
  return (std::uint32_t{in[off]} << 24) | (std::uint32_t{in[off + 1]} << 16) |
         (std::uint32_t{in[off + 2]} << 8) | std::uint32_t{in[off + 3]};
}

[[nodiscard]] inline std::uint64_t get_be64(std::span<const std::uint8_t> in, std::size_t off) {
  return (std::uint64_t{get_be32(in, off)} << 32) | get_be32(in, off + 4);
}

}  // namespace sdnbuf::util
