// Minimal binary serialisation for preserved-memory payloads.
//
// The real RootHammer writes domain metadata (P2M table, execution state,
// device configuration) into reserved machine frames that the next VMM
// instance parses during initialisation. We mirror that: metadata is
// serialised into byte blobs stored in the PreservedRegionRegistry, and
// the post-reload VMM must successfully deserialise them to resume VMs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "simcore/check.hpp"

namespace rh::mm {

/// Stores `v` as 8 little-endian bytes at `out`.
inline void store_le64(std::byte* out, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Loads 8 little-endian bytes from `in`.
inline std::uint64_t load_le64(const std::byte* in) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
  }
  return v;
}

/// Appends little-endian encoded values to a byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);

  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads values written by ByteWriter; throws InvariantViolation on
/// truncated or malformed input.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  /// Reads an element count (u64) for a sequence of `element_bytes`-byte
  /// elements that follows, checking that they fit in the bytes left
  /// before the caller allocates or loops over anything.
  std::uint64_t count(std::size_t element_bytes);

  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }

 private:
  // pos_ never passes buf_.size(), so the subtraction cannot wrap.
  void need(std::size_t n) const {
    ensure(n <= buf_.size() - pos_, "ByteReader: truncated payload");
  }

  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace rh::mm
