#include <gtest/gtest.h>

#include <string>

#include "mm/frame_allocator.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(FrameAllocator, AllocateAssignsOwnership) {
  mm::FrameAllocator a(100);
  const auto frames = a.allocate(1, 10);
  EXPECT_EQ(frames.size(), std::size_t{10});
  EXPECT_EQ(a.free_frames(), 90);
  EXPECT_EQ(a.owned_frames(1), 10);
  for (const auto f : frames) EXPECT_EQ(a.owner_of(f), 1);
}

TEST(FrameAllocator, NoDoubleAllocation) {
  mm::FrameAllocator a(100);
  const auto f1 = a.allocate(1, 50);
  const auto f2 = a.allocate(2, 50);
  std::vector<bool> seen(100, false);
  for (const auto f : f1) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(f)]);
    seen[static_cast<std::size_t>(f)] = true;
  }
  for (const auto f : f2) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(f)]);
    seen[static_cast<std::size_t>(f)] = true;
  }
}

TEST(FrameAllocator, ExhaustionThrowsWithoutSideEffects) {
  mm::FrameAllocator a(100);
  a.allocate(1, 90);
  EXPECT_THROW(a.allocate(2, 20), mm::OutOfMachineMemory);
  EXPECT_EQ(a.free_frames(), 10);
  EXPECT_EQ(a.owned_frames(2), 0);
}

TEST(FrameAllocator, ReleaseReturnsToPool) {
  mm::FrameAllocator a(100);
  const auto frames = a.allocate(1, 10);
  a.release(frames[0]);
  EXPECT_EQ(a.free_frames(), 91);
  EXPECT_EQ(a.owner_of(frames[0]), kNoDomain);
  EXPECT_THROW(a.release(frames[0]), InvariantViolation);  // double free
}

TEST(FrameAllocator, ReleaseAllFreesEverything) {
  mm::FrameAllocator a(100);
  a.allocate(1, 30);
  a.allocate(2, 20);
  EXPECT_EQ(a.release_all(1), 30);
  EXPECT_EQ(a.free_frames(), 80);
  EXPECT_EQ(a.owned_frames(1), 0);
  EXPECT_EQ(a.owned_frames(2), 20);
  EXPECT_EQ(a.release_all(1), 0);  // idempotent
}

TEST(FrameAllocator, ClaimTakesExactFrames) {
  mm::FrameAllocator a(100);
  const std::vector<hw::FrameNumber> wanted{5, 17, 42};
  a.claim(7, wanted);
  for (const auto f : wanted) EXPECT_EQ(a.owner_of(f), 7);
  EXPECT_EQ(a.free_frames(), 97);
  // Claiming an owned frame fails atomically (nothing is taken), and the
  // message names the frame.
  try {
    a.claim(8, std::vector<hw::FrameNumber>{1, 17});
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("frame 17 not free"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(a.owner_of(1), kNoDomain);
  EXPECT_EQ(a.owned_frames(8), 0);
  EXPECT_TRUE(a.accounting_ok());
}

TEST(FrameAllocator, ReusesReleasedFramesAfterWrap) {
  mm::FrameAllocator a(10);
  const auto first = a.allocate(1, 10);
  a.release_all(1);
  const auto second = a.allocate(2, 10);  // cursor wraps
  EXPECT_EQ(second.size(), std::size_t{10});
  EXPECT_EQ(a.free_frames(), 0);
}

TEST(FrameAllocator, FramesOwnedByAscending) {
  mm::FrameAllocator a(50);
  a.allocate(1, 5);
  a.allocate(2, 5);
  a.allocate(1, 5);
  const auto mine = a.frames_owned_by(1);
  EXPECT_EQ(mine.size(), std::size_t{10});
  for (std::size_t i = 1; i < mine.size(); ++i) EXPECT_LT(mine[i - 1], mine[i]);
}

TEST(FrameAllocator, FrameConservationInvariant) {
  mm::FrameAllocator a(1000);
  a.allocate(1, 100);
  a.allocate(2, 200);
  a.claim(3, std::vector<hw::FrameNumber>{900, 901});
  EXPECT_TRUE(a.accounting_ok());
  a.release_all(2);
  EXPECT_TRUE(a.accounting_ok());
  // The resume path: a reload re-reserves frozen frames for the VMM, which
  // releases them one by one as the resumed domain claims them.
  const std::vector<hw::FrameNumber> frozen{950, 951, 952};
  a.claim(kVmmOwner, frozen);
  EXPECT_EQ(a.owned_frames(kVmmOwner), 3);
  EXPECT_TRUE(a.accounting_ok());
  for (const auto f : frozen) a.release(f);
  EXPECT_EQ(a.owned_frames(kVmmOwner), 0);
  EXPECT_TRUE(a.accounting_ok());
  a.claim(4, frozen);
  EXPECT_TRUE(a.accounting_ok());
  EXPECT_EQ(a.free_frames() + a.owned_frames(kVmmOwner) + a.owned_frames(1) +
                a.owned_frames(2) + a.owned_frames(3) + a.owned_frames(4),
            a.total_frames());
}

TEST(FrameAllocator, RejectsInvalidOwners) {
  mm::FrameAllocator a(10);
  EXPECT_THROW(a.allocate(kNoDomain, 1), InvariantViolation);
  EXPECT_THROW(a.claim(kVmmOwner - 1, std::vector<hw::FrameNumber>{0}),
               InvariantViolation);
  EXPECT_EQ(a.free_frames(), 10);
  EXPECT_EQ(a.owned_frames(kVmmOwner - 1), 0);
  EXPECT_TRUE(a.accounting_ok());
}

}  // namespace
}  // namespace rh::test
