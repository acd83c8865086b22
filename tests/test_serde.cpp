#include <gtest/gtest.h>

#include "mm/serde.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

/// A count-prefixed i64 sequence, as the P2M writes its runs.
void write_i64s(mm::ByteWriter& w, const std::vector<std::int64_t>& v) {
  w.u64(v.size());
  for (const auto x : v) w.i64(x);
}

std::vector<std::int64_t> read_i64s(mm::ByteReader& r) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(r.count(8)));
  for (auto& x : v) x = r.i64();
  return v;
}

TEST(Serde, RoundTripsAllTypes) {
  mm::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello, world");
  write_i64s(w, {1, -1, 1000000});
  const auto blob = w.take();

  mm::ByteReader r(blob);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello, world");
  EXPECT_EQ(read_i64s(r), (std::vector<std::int64_t>{1, -1, 1000000}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, EmptyStringAndVector) {
  mm::ByteWriter w;
  w.str("");
  write_i64s(w, {});
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(read_i64s(r).empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, TruncatedPayloadThrows) {
  mm::ByteWriter w;
  w.u64(7);
  auto blob = w.take();
  blob.pop_back();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.u64(), InvariantViolation);
}

TEST(Serde, TruncatedStringLengthThrows) {
  mm::ByteWriter w;
  w.u32(100);  // declares a 100-char string with no body
  const auto blob = w.take();
  mm::ByteReader r(blob);
  EXPECT_THROW(r.str(), InvariantViolation);
}

TEST(Serde, CorruptVectorCountThrowsInvariantViolation) {
  // Counts beyond the two elements carried: one too many, and 2^61, which
  // would be 2^64 bytes -- a check that multiplies the count by 8 wraps to
  // 0 and lets the allocation fail with std::length_error.
  for (const std::uint64_t count : {std::uint64_t{3}, std::uint64_t{1} << 61}) {
    mm::ByteWriter w;
    w.u64(count);
    w.i64(1);
    w.i64(2);
    const auto blob = w.take();
    mm::ByteReader r(blob);
    EXPECT_THROW((void)r.count(8), InvariantViolation) << "count " << count;
  }
}

TEST(Serde, LittleEndianLayout) {
  mm::ByteWriter w;
  w.u32(0x01020304);
  const auto blob = w.take();
  ASSERT_EQ(blob.size(), std::size_t{4});
  EXPECT_EQ(std::to_integer<int>(blob[0]), 0x04);
  EXPECT_EQ(std::to_integer<int>(blob[3]), 0x01);

  // Vectors: the u64 count, then each element, all little-endian.
  mm::ByteWriter vw;
  write_i64s(vw, {0x0102030405060708, -1});
  const auto vblob = vw.take();
  const std::vector<int> expected{
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // count
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // 0x0102030405060708
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // -1
  };
  std::vector<int> got;
  for (const std::byte b : vblob) got.push_back(std::to_integer<int>(b));
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace rh::test
