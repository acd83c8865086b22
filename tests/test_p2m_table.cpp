#include <gtest/gtest.h>

#include <string>

#include "mm/p2m_table.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(P2mTable, AddRemoveRoundTrip) {
  mm::P2mTable t(10);
  EXPECT_EQ(t.pfn_count(), 10);
  EXPECT_EQ(t.populated(), 0);
  t.add(3, 1000);
  EXPECT_EQ(t.mfn_of(3), 1000);
  EXPECT_FALSE(t.is_hole(3));
  EXPECT_EQ(t.populated(), 1);
  EXPECT_EQ(t.remove(3), 1000);
  EXPECT_TRUE(t.is_hole(3));
  EXPECT_EQ(t.populated(), 0);
}

TEST(P2mTable, RejectsDoubleMapAndBadValues) {
  mm::P2mTable t(10);
  t.add(0, 5);
  EXPECT_THROW(t.add(0, 6), InvariantViolation);
  EXPECT_THROW(t.add(2, -1), InvariantViolation);
  EXPECT_THROW(t.remove(1), InvariantViolation);  // hole
  EXPECT_THROW((void)t.mfn_of(10), InvariantViolation);
  EXPECT_THROW((void)t.mfn_of(-1), InvariantViolation);
}

TEST(P2mTable, SizeMatchesPaperTwoMiBPerGiB) {
  // 1 GiB of pseudo-physical memory = 262144 pages at 8 bytes each.
  mm::P2mTable t(262144);
  EXPECT_EQ(t.size_bytes(), 2 * sim::kMiB);
}

TEST(P2mTable, MappedFramesInPfnOrder) {
  mm::P2mTable t(5);
  t.add(4, 40);
  t.add(1, 10);
  t.add(2, 20);
  EXPECT_EQ(t.mapped_frames(), (std::vector<hw::FrameNumber>{10, 20, 40}));
  EXPECT_EQ(t.first_populated_pfn(), 1);
}

TEST(P2mTable, GrowAddsHoles) {
  mm::P2mTable t(2);
  t.add(0, 7);
  t.grow(5);
  EXPECT_EQ(t.pfn_count(), 5);
  EXPECT_TRUE(t.is_hole(4));
  EXPECT_EQ(t.populated(), 1);
  EXPECT_THROW(t.grow(3), InvariantViolation);  // shrink forbidden
}

TEST(P2mTable, SerializeDeserializePreservesEverything) {
  mm::P2mTable t(8);
  t.add(0, 100);
  t.add(3, 300);
  t.add(7, 700);
  mm::ByteWriter w;
  t.serialize(w);
  const auto blob = w.take();
  mm::ByteReader r(blob);
  const auto t2 = mm::P2mTable::deserialize(r);
  EXPECT_EQ(t, t2);
  EXPECT_EQ(t2.populated(), 3);
  EXPECT_TRUE(t2.is_hole(1));
}

TEST(P2mTable, SerializesAsCanonicalRuns) {
  // 1 GiB of PFNs on two machine runs: a handful of bytes on the wire,
  // while size_bytes() keeps charging 8 B per PFN.
  mm::P2mTable t(262144);
  t.add(0, hw::FrameRun{1000, 200000});
  t.add(200000, hw::FrameRun{500000, 62144});
  EXPECT_EQ(t.run_count(), std::size_t{2});
  EXPECT_EQ(t.size_bytes(), 2 * sim::kMiB);
  mm::ByteWriter w;
  t.serialize(w);
  EXPECT_EQ(w.size(), std::size_t{8 + 8 + 2 * 24});

  // The same mapping split into more runs on the wire decodes to the same
  // canonical table.
  mm::ByteWriter split;
  split.i64(262144);
  split.u64(3);
  for (const std::int64_t v : {0, 1000, 100, 100, 1100, 199900, 200000,
                               500000, 62144}) {
    split.i64(v);
  }
  const auto blob = split.take();
  mm::ByteReader r(blob);
  const auto decoded = mm::P2mTable::deserialize(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(decoded, t);
  EXPECT_EQ(decoded.run_count(), std::size_t{2});
}

TEST(P2mTable, DeserializeRejectsMalformedRuns) {
  // Each case breaks exactly one rule: a table of 100 PFNs, with runs as
  // (first PFN, first MFN, count).
  struct Case {
    const char* what;
    std::vector<std::int64_t> runs;
  };
  const Case cases[] = {
      {"overlap", {0, 100, 10, 5, 200, 10}},
      {"PFN count", {95, 100, 10}},
      {"bad MFN", {0, -5, 10}},
      {"empty run", {0, 100, 0}},
  };
  for (const auto& c : cases) {
    mm::ByteWriter w;
    w.i64(100);
    w.u64(c.runs.size() / 3);
    for (const auto v : c.runs) w.i64(v);
    const auto blob = w.take();
    mm::ByteReader r(blob);
    try {
      (void)mm::P2mTable::deserialize(r);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find(c.what), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

TEST(P2mTable, EmptyTableIsValid) {
  mm::P2mTable t;
  EXPECT_EQ(t.pfn_count(), 0);
  EXPECT_EQ(t.first_populated_pfn(), -1);
  EXPECT_TRUE(t.mapped_frames().empty());
}

}  // namespace
}  // namespace rh::test
