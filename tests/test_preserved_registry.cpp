#include <gtest/gtest.h>

#include "mm/preserved_registry.hpp"
#include "simcore/check.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

mm::PreservedRegion make_region(const std::string& name, std::size_t payload,
                                std::vector<hw::FrameNumber> frames) {
  mm::PreservedRegion r;
  r.name = name;
  r.payload.assign(payload, std::byte{0x5a});
  for (const auto f : frames) r.frozen_frames.push_back({f, 1});
  return r;
}

TEST(PreservedRegistry, PutFindErase) {
  mm::PreservedRegionRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.put(make_region("domain/a", 100, {1, 2, 3}));
  ASSERT_NE(reg.find("domain/a"), nullptr);
  EXPECT_EQ(expand_runs(reg.find("domain/a")->frozen_frames).size(),
            std::size_t{3});
  EXPECT_EQ(reg.find("nope"), nullptr);
  EXPECT_TRUE(reg.erase("domain/a"));
  EXPECT_FALSE(reg.erase("domain/a"));
  EXPECT_TRUE(reg.empty());
}

TEST(PreservedRegistry, PutRejectsDuplicatesAndReplaceOverwrites) {
  mm::PreservedRegionRegistry reg;
  reg.put(make_region("x", 10, {1}));
  // A silent overwrite would leak the old region's frozen frames (still
  // claimed in the allocator, nobody left to release them), so put() on
  // an existing name refuses; replace() is the deliberate overwrite.
  EXPECT_THROW(reg.put(make_region("x", 20, {2, 3})), InvariantViolation);
  EXPECT_EQ(reg.find("x")->payload.size(), std::size_t{10});
  reg.replace(make_region("x", 20, {2, 3}));
  EXPECT_EQ(reg.size(), std::size_t{1});
  EXPECT_EQ(reg.find("x")->payload.size(), std::size_t{20});
  EXPECT_TRUE(reg.intact("x"));
  EXPECT_EQ(reg.names(), std::vector<std::string>{"x"});
  // replace() of an absent name is a bug, not an insert.
  EXPECT_THROW(reg.replace(make_region("y", 5, {})), InvariantViolation);
}

TEST(PreservedRegistry, NamesKeepInsertionOrder) {
  mm::PreservedRegionRegistry reg;
  reg.put(make_region("c", 1, {}));
  reg.put(make_region("a", 1, {}));
  reg.put(make_region("b", 1, {}));
  reg.erase("a");
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"c", "b"}));
}

TEST(PreservedRegistry, AggregatesFrozenFramesAndPayload) {
  mm::PreservedRegionRegistry reg;
  reg.put(make_region("a", 100, {1, 2}));
  reg.put(make_region("b", 50, {7}));
  // Three frozen frames, plus one frame for each (sub-page) payload.
  EXPECT_EQ(reg.reserved_frames(), 5);
  EXPECT_EQ(reg.payload_bytes(), 150);
}

TEST(PreservedRegistry, ClearModelsPowerLoss) {
  mm::PreservedRegionRegistry reg;
  reg.put(make_region("a", 10, {1}));
  reg.clear();
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.payload_bytes(), 0);
  EXPECT_TRUE(reg.names().empty());
}

TEST(PreservedRegistry, CorruptionDetectedAtEveryPayloadLength) {
  // The checksum hashes 8-byte words and then the tail bytes; lengths 1 to
  // 24 put the flipped middle byte in a tail, a first word and a later word.
  for (std::size_t len = 1; len <= 24; ++len) {
    mm::PreservedRegionRegistry reg;
    reg.put(make_region("r", len, {}));
    ASSERT_TRUE(reg.intact("r")) << "length " << len;
    reg.corrupt_payload("r");
    EXPECT_FALSE(reg.intact("r")) << "length " << len;
  }
}

TEST(PreservedRegistry, ChecksumSeesEveryByte) {
  for (std::size_t len = 1; len <= 24; ++len) {
    std::vector<std::byte> payload(len);
    for (std::size_t i = 0; i < len; ++i) {
      payload[i] = static_cast<std::byte>(i * 37 + 1);
    }
    const std::uint64_t sum = mm::payload_checksum(payload);
    for (std::size_t i = 0; i < len; ++i) {
      auto flipped = payload;
      flipped[i] ^= std::byte{0x80};
      EXPECT_NE(mm::payload_checksum(flipped), sum)
          << "length " << len << ", byte " << i;
    }
  }
}

TEST(PreservedRegistry, RejectsUnnamedRegion) {
  mm::PreservedRegionRegistry reg;
  EXPECT_THROW(reg.put(make_region("", 1, {})), InvariantViolation);
}

}  // namespace
}  // namespace rh::test
