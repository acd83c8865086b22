#include "mm/serde.hpp"

namespace rh::mm {

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 8);
  store_le64(buf_.data() + at, v);
}

void ByteWriter::str(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* bytes = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), bytes, bytes + s.size());
}

void ByteWriter::i64_vector(const std::vector<std::int64_t>& v) {
  u64(v.size());
  const std::size_t at = buf_.size();
  buf_.resize(at + v.size() * 8);
  std::byte* out = buf_.data() + at;
  for (const auto x : v) {
    store_le64(out, static_cast<std::uint64_t>(x));
    out += 8;
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  const std::uint64_t v = load_le64(buf_.data() + pos_);
  pos_ += 8;
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::int64_t> ByteReader::i64_vector() {
  const std::uint64_t n = u64();
  // Divide rather than multiply: n * 8 wraps for a corrupt n >= 2^61.
  ensure(n <= (buf_.size() - pos_) / 8, "ByteReader: truncated payload");
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  const std::byte* in = buf_.data() + pos_;
  for (auto& x : v) {
    x = static_cast<std::int64_t>(load_le64(in));
    in += 8;
  }
  pos_ += v.size() * 8;
  return v;
}

}  // namespace rh::mm
