#include <gtest/gtest.h>

#include <string>

#include "mm/frame_allocator.hpp"
#include "simcore/check.hpp"
#include "test_util.hpp"

namespace rh::mm {

/// Reaches into the allocator's books to corrupt them on purpose.
struct FrameAllocatorTestAccess {
  static void add_phantom_count(FrameAllocator& a, DomainId owner) {
    ++a.count_of(owner);
  }
};

}  // namespace rh::mm

namespace rh::test {
namespace {

TEST(FrameAllocator, AllocateAssignsOwnership) {
  mm::FrameAllocator a(100);
  const auto frames = expand_runs(a.allocate(1, 10));
  EXPECT_EQ(frames.size(), std::size_t{10});
  EXPECT_EQ(a.free_frames(), 90);
  EXPECT_EQ(a.owned_frames(1), 10);
  for (const auto f : frames) EXPECT_EQ(a.owner_of(f), 1);
}

TEST(FrameAllocator, NoDoubleAllocation) {
  mm::FrameAllocator a(100);
  const auto f1 = expand_runs(a.allocate(1, 50));
  const auto f2 = expand_runs(a.allocate(2, 50));
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
  const auto frames = expand_runs(a.allocate(1, 10));
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
  const std::vector<hw::FrameRun> wanted{{5, 1}, {17, 1}, {42, 1}};
  a.claim(7, wanted);
  for (const auto f : expand_runs(wanted)) EXPECT_EQ(a.owner_of(f), 7);
  EXPECT_EQ(a.free_frames(), 97);
  // Claiming an owned frame fails atomically (nothing is taken), and the
  // message names the frame.
  try {
    a.claim(8, std::vector<hw::FrameRun>{{1, 1}, {17, 1}});
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
  const auto first = expand_runs(a.allocate(1, 10));
  a.release_all(1);
  const auto second = expand_runs(a.allocate(2, 10));  // cursor wraps
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
  a.claim(3, std::vector<hw::FrameRun>{{900, 2}});
  EXPECT_TRUE(a.accounting_ok());
  a.release_all(2);
  EXPECT_TRUE(a.accounting_ok());
  // The resume path: a reload re-reserves frozen frames for the VMM, which
  // releases them one by one as the resumed domain claims them.
  const std::vector<hw::FrameRun> frozen{{950, 3}};
  a.claim(kVmmOwner, frozen);
  EXPECT_EQ(a.owned_frames(kVmmOwner), 3);
  EXPECT_TRUE(a.accounting_ok());
  for (const auto f : expand_runs(frozen)) a.release(f);
  EXPECT_EQ(a.owned_frames(kVmmOwner), 0);
  EXPECT_TRUE(a.accounting_ok());
  a.claim(4, frozen);
  EXPECT_TRUE(a.accounting_ok());
  EXPECT_EQ(a.free_frames() + a.owned_frames(kVmmOwner) + a.owned_frames(1) +
                a.owned_frames(2) + a.owned_frames(3) + a.owned_frames(4),
            a.total_frames());
}

TEST(FrameAllocator, ClaimRejectsRepeatedFrames) {
  // A preserved P2M that maps two PFNs to one MFN would claim that frame
  // twice on resume; the books must not count it twice.
  mm::FrameAllocator a(16);
  try {
    a.claim(5, std::vector<hw::FrameRun>{{3, 1}, {3, 1}});
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("frame 3 "), std::string::npos)
        << e.what();
  }
  // Overlapping runs name the first frame they share.
  EXPECT_THROW(a.claim(5, std::vector<hw::FrameRun>{{2, 3}, {4, 2}}),
               InvariantViolation);
  try {
    a.claim(5, std::vector<hw::FrameRun>{{2, 3}, {4, 2}});
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("frame 4 "), std::string::npos)
        << e.what();
  }
  // Nothing was claimed.
  EXPECT_EQ(a.free_frames(), 16);
  EXPECT_EQ(a.owned_frames(5), 0);
  EXPECT_EQ(a.owner_of(3), kNoDomain);
  EXPECT_TRUE(a.accounting_ok());
}

TEST(FrameAllocator, ReleaseAllRejectsInvalidOwner) {
  // kNoDomain marks free frames; "releasing" them would count every free
  // frame as freed a second time.
  mm::FrameAllocator a(16);
  a.allocate(2, 4);
  EXPECT_THROW(a.release_all(kNoDomain), InvariantViolation);
  EXPECT_THROW(a.release_all(kVmmOwner - 1), InvariantViolation);
  EXPECT_EQ(a.free_frames(), 12);
  EXPECT_EQ(a.owned_frames(2), 4);
  EXPECT_TRUE(a.accounting_ok());
}

TEST(FrameAllocator, AccountingCatchesPhantomOwnerCount) {
  // A count with no frames behind it: the free count and every frame's
  // owner still agree, only the per-owner table is wrong.
  mm::FrameAllocator a(64);
  a.allocate(1, 10);
  a.allocate(kVmmOwner, 5);
  ASSERT_TRUE(a.accounting_ok());
  mm::FrameAllocatorTestAccess::add_phantom_count(a, 3);
  EXPECT_FALSE(a.accounting_ok());
}

TEST(FrameAllocator, RejectsInvalidOwners) {
  mm::FrameAllocator a(10);
  EXPECT_THROW(a.allocate(kNoDomain, 1), InvariantViolation);
  EXPECT_THROW(a.claim(kVmmOwner - 1, std::vector<hw::FrameRun>{{0, 1}}),
               InvariantViolation);
  EXPECT_EQ(a.free_frames(), 10);
  EXPECT_EQ(a.owned_frames(kVmmOwner - 1), 0);
  EXPECT_TRUE(a.accounting_ok());
}

}  // namespace
}  // namespace rh::test
