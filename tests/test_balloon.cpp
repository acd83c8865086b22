#include <gtest/gtest.h>

#include "mm/balloon.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

struct BalloonRig {
  mm::FrameAllocator alloc{1000};
  mm::P2mTable p2m{100};
  mm::BalloonDriver balloon{1, alloc, p2m};

  BalloonRig() {
    const auto frames = expand_runs(alloc.allocate(1, 100));
    for (mm::Pfn p = 0; p < 100; ++p) p2m.add(p, frames[static_cast<std::size_t>(p)]);
  }
};

TEST(Balloon, InflateReturnsFramesToVmm) {
  BalloonRig rig;
  EXPECT_EQ(rig.balloon.inflate(30), 30);
  EXPECT_EQ(rig.p2m.populated(), 70);
  EXPECT_EQ(rig.balloon.ballooned_pages(), 30);
  EXPECT_EQ(rig.alloc.owned_frames(1), 70);
  EXPECT_EQ(rig.alloc.free_frames(), 930);
  // Highest PFNs were released first.
  EXPECT_TRUE(rig.p2m.is_hole(99));
  EXPECT_FALSE(rig.p2m.is_hole(0));
}

TEST(Balloon, DeflateRepopulatesHoles) {
  BalloonRig rig;
  rig.balloon.inflate(30);
  EXPECT_EQ(rig.balloon.deflate(10), 10);
  EXPECT_EQ(rig.p2m.populated(), 80);
  EXPECT_EQ(rig.alloc.owned_frames(1), 80);
  EXPECT_EQ(rig.balloon.ballooned_pages(), 20);
}

TEST(Balloon, InflateBeyondPopulatedIsBounded) {
  BalloonRig rig;
  EXPECT_EQ(rig.balloon.inflate(1000), 100);
  EXPECT_EQ(rig.p2m.populated(), 0);
  EXPECT_EQ(rig.alloc.owned_frames(1), 0);
}

TEST(Balloon, DeflateBeyondHolesIsBounded) {
  BalloonRig rig;
  rig.balloon.inflate(10);
  EXPECT_EQ(rig.balloon.deflate(50), 10);
  EXPECT_EQ(rig.balloon.ballooned_pages(), 0);
}

TEST(Balloon, DeflateIsPartialSuccessSafeWhenVmmIsOut) {
  mm::FrameAllocator alloc(100);
  mm::P2mTable p2m(100);
  mm::BalloonDriver balloon(1, alloc, p2m);
  const auto frames = expand_runs(alloc.allocate(1, 100));
  for (mm::Pfn p = 0; p < 100; ++p) p2m.add(p, frames[static_cast<std::size_t>(p)]);
  balloon.inflate(50);
  alloc.allocate(2, 45);  // another domain takes most of the freed memory
  // Only 5 frames remain: deflate gives back what it can get, never
  // throws, and never leaves the P2M half-updated.
  EXPECT_EQ(balloon.deflate(10), 5);
  EXPECT_EQ(p2m.populated(), 55);
  // That used up the last free frame: deflate is now a clean no-op.
  EXPECT_EQ(alloc.free_frames(), 0);
  EXPECT_EQ(balloon.deflate(10), 0);
  EXPECT_EQ(p2m.populated(), 55);
}

TEST(Balloon, RoundTripRestoresFullPopulation) {
  BalloonRig rig;
  rig.balloon.inflate(40);
  rig.balloon.deflate(40);
  EXPECT_EQ(rig.p2m.populated(), 100);
  for (mm::Pfn p = 0; p < 100; ++p) EXPECT_FALSE(rig.p2m.is_hole(p));
}

}  // namespace
}  // namespace rh::test
