#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "guest/page_cache.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

/// In-memory backing that can be wiped to model a hardware reset.
class FakeBacking final : public guest::GuestMemoryBacking {
 public:
  void mem_write(mm::Pfn pfn, hw::ContentToken token) override {
    store_[pfn] = token;
  }
  [[nodiscard]] hw::ContentToken mem_read(mm::Pfn pfn) const override {
    const auto it = store_.find(pfn);
    return it == store_.end() ? hw::kScrubbed : it->second;
  }
  void wipe() { store_.clear(); }

 private:
  std::unordered_map<mm::Pfn, hw::ContentToken> store_;
};

/// FakeBacking that records where the cache writes, in order.
class RecordingBacking final : public guest::GuestMemoryBacking {
 public:
  void mem_write(mm::Pfn pfn, hw::ContentToken token) override {
    writes.push_back(pfn);
    mem_.mem_write(pfn, token);
  }
  [[nodiscard]] hw::ContentToken mem_read(mm::Pfn pfn) const override {
    return mem_.mem_read(pfn);
  }
  void scrub(mm::Pfn pfn) { mem_.mem_write(pfn, hw::kScrubbed); }

  std::vector<mm::Pfn> writes;

 private:
  FakeBacking mem_;
};

TEST(PageCache, SlotOrderRecycledFirstThenFreshAscendingThenLru) {
  RecordingBacking mem;
  // Four 2-page slots at pfns 100, 102, 104, 106.
  guest::PageCache cache(mem, 100, 4, 2);
  cache.insert({1, 0});  // fresh slot 0
  cache.insert({1, 1});  // fresh slot 1
  cache.clear();         // recycles MRU to LRU: {1,1}'s slot, then {1,0}'s
  cache.insert({2, 0});  // recycled slot 0 (last freed)
  cache.insert({2, 1});  // recycled slot 1
  cache.insert({2, 2});  // fresh slot 2
  cache.insert({2, 3});  // fresh slot 3
  cache.insert({2, 4});  // full: evicts LRU {2,0} from slot 0
  mem.scrub(102);
  EXPECT_FALSE(cache.lookup({2, 1}));  // stale: slot 1 recycled
  cache.insert({2, 5});                // slot 1
  mem.scrub(104);
  mem.scrub(106);
  EXPECT_FALSE(cache.lookup({2, 2}));  // slot 2 recycled
  EXPECT_FALSE(cache.lookup({2, 3}));  // slot 3 recycled
  cache.insert({2, 6});                // slot 3 (last freed)
  cache.insert({2, 7});                // slot 2
  EXPECT_EQ(mem.writes, (std::vector<mm::Pfn>{100, 102, 100, 102, 104, 106, 100,
                                                102, 106, 104}));
  EXPECT_EQ(cache.cached_blocks(), 4);
  EXPECT_EQ(cache.stale_hits(), 3U);
}

TEST(PageCache, MissThenHit) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 8, 16);
  EXPECT_FALSE(cache.lookup({1, 0}));
  cache.insert({1, 0});
  EXPECT_TRUE(cache.lookup({1, 0}));
  EXPECT_EQ(cache.hits(), std::uint64_t{1});
  EXPECT_EQ(cache.misses(), std::uint64_t{1});
  EXPECT_EQ(cache.cached_blocks(), 1);
}

TEST(PageCache, LruEvictionOrder) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 3, 16);
  cache.insert({1, 0});
  cache.insert({1, 1});
  cache.insert({1, 2});
  // Touch block 0 so block 1 becomes LRU.
  EXPECT_TRUE(cache.lookup({1, 0}));
  cache.insert({1, 3});  // evicts {1,1}
  EXPECT_TRUE(cache.lookup({1, 0}));
  EXPECT_FALSE(cache.lookup({1, 1}));
  EXPECT_TRUE(cache.lookup({1, 2}));
  EXPECT_TRUE(cache.lookup({1, 3}));
  EXPECT_EQ(cache.cached_blocks(), 3);
}

TEST(PageCache, WipedBackingTurnsHitsIntoStaleMisses) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 8, 16);
  cache.insert({1, 0});
  cache.insert({1, 1});
  mem.wipe();  // the "hardware reset"
  EXPECT_FALSE(cache.lookup({1, 0}));
  EXPECT_FALSE(cache.lookup({1, 1}));
  EXPECT_EQ(cache.stale_hits(), std::uint64_t{2});
  EXPECT_EQ(cache.cached_blocks(), 0);
  // Reinsertion works and hits again.
  cache.insert({1, 0});
  EXPECT_TRUE(cache.lookup({1, 0}));
}

TEST(PageCache, IntactBackingKeepsHitsAfterNothingHappened) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 64, 16);
  for (std::int64_t b = 0; b < 64; ++b) cache.insert({1, b});
  for (std::int64_t b = 0; b < 64; ++b) EXPECT_TRUE(cache.lookup({1, b}));
  EXPECT_EQ(cache.stale_hits(), std::uint64_t{0});
}

TEST(PageCache, SlotsPlacedInDistinctRegions) {
  FakeBacking mem;
  guest::PageCache cache(mem, 100, 4, 16);
  cache.insert({1, 0});
  cache.insert({2, 0});
  // Two distinct slots got two distinct tokens at distinct PFNs >= 100.
  int populated = 0;
  for (mm::Pfn p = 100; p < 100 + 4 * 16; p += 16) {
    populated += mem.mem_read(p) != hw::kScrubbed ? 1 : 0;
  }
  EXPECT_EQ(populated, 2);
}

TEST(PageCache, ClearFreesAllSlots) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 4, 16);
  for (std::int64_t b = 0; b < 4; ++b) cache.insert({1, b});
  cache.clear();
  EXPECT_EQ(cache.cached_blocks(), 0);
  // All four slots are reusable again.
  for (std::int64_t b = 10; b < 14; ++b) cache.insert({1, b});
  EXPECT_EQ(cache.cached_blocks(), 4);
}

TEST(PageCache, DuplicateInsertIsIdempotent) {
  FakeBacking mem;
  guest::PageCache cache(mem, 0, 4, 16);
  cache.insert({1, 0});
  cache.insert({1, 0});
  EXPECT_EQ(cache.cached_blocks(), 1);
}

TEST(PageCache, RejectsBadGeometry) {
  FakeBacking mem;
  EXPECT_THROW(guest::PageCache(mem, 0, 0, 16), InvariantViolation);
  EXPECT_THROW(guest::PageCache(mem, 0, 4, 0), InvariantViolation);
}

}  // namespace
}  // namespace rh::test
