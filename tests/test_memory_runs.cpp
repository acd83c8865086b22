// Memory stored as runs against per-frame reference models.
//
// FrameAllocator, P2mTable and MachineMemory keep their state as runs or
// sparse maps. Each test here drives one of them with random operations
// side by side with a dense model that keeps one entry per frame -- the
// per-frame semantics the run forms must reproduce exactly -- and
// compares every result and every frame after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/frame_allocator.hpp"
#include "mm/p2m_table.hpp"
#include "simcore/check.hpp"
#include "simcore/random.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

// ---------------------------------------------------------------------
// FrameAllocator
// ---------------------------------------------------------------------

/// One owner per frame, with the allocator's documented semantics.
class DenseAllocator {
 public:
  explicit DenseAllocator(std::int64_t frames)
      : owner_(static_cast<std::size_t>(frames), kNoDomain), free_(frames) {}

  /// Next fit from the cursor, wrapping at most once; nullopt when fewer
  /// than `count` frames are free.
  std::optional<std::vector<hw::FrameNumber>> allocate(DomainId owner,
                                                       std::int64_t count) {
    if (count > free_) return std::nullopt;
    std::vector<hw::FrameNumber> out;
    const auto total = static_cast<std::int64_t>(owner_.size());
    for (std::int64_t scanned = 0;
         static_cast<std::int64_t>(out.size()) < count && scanned <= total;
         ++scanned, ++cursor_) {
      if (cursor_ >= total) cursor_ = 0;
      if (at(cursor_) == kNoDomain) {
        at(cursor_) = owner;
        out.push_back(cursor_);
      }
    }
    free_ -= count;
    return out;
  }

  /// False (nothing claimed) unless every frame is free and named once.
  bool claim(DomainId owner, const std::vector<hw::FrameNumber>& frames) {
    std::vector<hw::FrameNumber> sorted = frames;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return false;
    }
    for (const auto f : frames) {
      if (at(f) != kNoDomain) return false;
    }
    for (const auto f : frames) at(f) = owner;
    free_ -= static_cast<std::int64_t>(frames.size());
    return true;
  }

  bool release(hw::FrameNumber mfn) {
    if (at(mfn) == kNoDomain) return false;
    at(mfn) = kNoDomain;
    ++free_;
    return true;
  }

  std::int64_t release_owned(DomainId owner, hw::FrameRun run) {
    std::int64_t freed = 0;
    for (hw::FrameNumber f = run.first; f < run.end(); ++f) {
      if (at(f) == owner) {
        at(f) = kNoDomain;
        ++freed;
      }
    }
    free_ += freed;
    return freed;
  }

  std::int64_t release_all(DomainId owner) {
    return release_owned(owner, {0, static_cast<std::int64_t>(owner_.size())});
  }

  [[nodiscard]] bool holds(DomainId owner, hw::FrameRun run) const {
    for (hw::FrameNumber f = run.first; f < run.end(); ++f) {
      if (owner_[static_cast<std::size_t>(f)] != owner) return false;
    }
    return true;
  }

  [[nodiscard]] std::int64_t owned(DomainId owner) const {
    return std::count(owner_.begin(), owner_.end(), owner);
  }
  [[nodiscard]] DomainId owner_of(hw::FrameNumber mfn) const {
    return owner_[static_cast<std::size_t>(mfn)];
  }
  [[nodiscard]] std::int64_t free_frames() const { return free_; }

 private:
  DomainId& at(hw::FrameNumber mfn) { return owner_[static_cast<std::size_t>(mfn)]; }

  std::vector<DomainId> owner_;
  std::int64_t free_;
  std::int64_t cursor_ = 0;
};

/// Splits `frames` into runs of consecutive ascending frames.
std::vector<hw::FrameRun> to_runs(const std::vector<hw::FrameNumber>& frames) {
  std::vector<hw::FrameRun> out;
  for (const auto f : frames) {
    if (!out.empty() && out.back().end() == f) {
      ++out.back().count;
    } else {
      out.push_back({f, 1});
    }
  }
  return out;
}

class AllocatorRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorRuns, MatchesDenseModel) {
  constexpr std::int64_t kFrames = 512;
  constexpr DomainId kOwners[] = {kVmmOwner, 0, 1, 2, 3, 4};
  sim::Rng rng(GetParam());
  mm::FrameAllocator runs(kFrames);
  DenseAllocator dense(kFrames);
  const auto any_owner = [&] { return kOwners[rng.index(std::size(kOwners))]; };
  const auto any_frame = [&] { return rng.uniform_int(0, kFrames - 1); };

  for (int step = 0; step < 1500; ++step) {
    const std::int64_t op = rng.uniform_int(0, 5);
    const DomainId owner = any_owner();
    SCOPED_TRACE("step " + std::to_string(step) + " op " + std::to_string(op));
    if (op == 0 || op == 1) {
      const std::int64_t count = rng.uniform_int(0, 48);
      const auto want = dense.allocate(owner, count);
      if (want) {
        ASSERT_EQ(expand_runs(runs.allocate(owner, count)), *want);
      } else {
        ASSERT_THROW(runs.allocate(owner, count), mm::OutOfMachineMemory);
      }
    } else if (op == 2) {
      // A few runs, free or busy, sometimes overlapping one another.
      std::vector<hw::FrameNumber> frames;
      const std::int64_t pieces = rng.uniform_int(1, 3);
      for (std::int64_t p = 0; p < pieces; ++p) {
        const hw::FrameNumber first = any_frame();
        const std::int64_t len =
            std::min<std::int64_t>(rng.uniform_int(1, 6), kFrames - first);
        for (std::int64_t i = 0; i < len; ++i) frames.push_back(first + i);
      }
      if (dense.claim(owner, frames)) {
        runs.claim(owner, to_runs(frames));
      } else {
        ASSERT_THROW(runs.claim(owner, to_runs(frames)), InvariantViolation);
      }
    } else if (op == 3) {
      const hw::FrameNumber mfn = any_frame();
      if (dense.release(mfn)) {
        runs.release(mfn);
      } else {
        ASSERT_THROW(runs.release(mfn), InvariantViolation);
      }
    } else if (op == 4) {
      const hw::FrameNumber first = any_frame();
      const hw::FrameRun run{first, rng.uniform_int(0, kFrames - first)};
      ASSERT_EQ(runs.holds(owner, run), dense.holds(owner, run));
      ASSERT_EQ(runs.release_owned(owner, run), dense.release_owned(owner, run));
    } else {
      ASSERT_EQ(runs.release_all(owner), dense.release_all(owner));
    }
    for (hw::FrameNumber mfn = 0; mfn < kFrames; ++mfn) {
      ASSERT_EQ(runs.owner_of(mfn), dense.owner_of(mfn)) << "frame " << mfn;
    }
    ASSERT_EQ(runs.free_frames(), dense.free_frames());
    for (const DomainId o : kOwners) ASSERT_EQ(runs.owned_frames(o), dense.owned(o));
    ASSERT_TRUE(runs.accounting_ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorRuns,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// ---------------------------------------------------------------------
// P2mTable
// ---------------------------------------------------------------------

class P2mRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(P2mRuns, MatchesDenseModel) {
  sim::Rng rng(GetParam());
  mm::P2mTable runs(256);
  std::vector<hw::FrameNumber> dense(256, mm::kNoFrame);
  const auto pfns = [&] { return static_cast<mm::Pfn>(dense.size()); };
  const auto any_pfn = [&] { return rng.uniform_int(0, pfns() - 1); };

  for (int step = 0; step < 1500; ++step) {
    const std::int64_t op = rng.uniform_int(0, 5);
    SCOPED_TRACE("step " + std::to_string(step) + " op " + std::to_string(op));
    if (op == 0) {
      // One page, often continuing a neighbour's MFN so runs coalesce.
      const mm::Pfn pfn = any_pfn();
      hw::FrameNumber mfn = rng.uniform_int(0, 4000);
      if (pfn > 0 && dense[static_cast<std::size_t>(pfn - 1)] != mm::kNoFrame &&
          rng.chance(0.5)) {
        mfn = dense[static_cast<std::size_t>(pfn - 1)] + 1;
      }
      if (dense[static_cast<std::size_t>(pfn)] == mm::kNoFrame) {
        runs.add(pfn, mfn);
        dense[static_cast<std::size_t>(pfn)] = mfn;
      } else {
        ASSERT_THROW(runs.add(pfn, mfn), InvariantViolation);
      }
    } else if (op == 1) {
      // A range of holes onto two frame runs, split at a random point.
      const auto holes = runs.holes(rng.uniform_int(0, 40));
      std::int64_t count = 0;
      for (const auto& h : holes) count += h.count;
      const std::int64_t cut = rng.uniform_int(0, count);
      const hw::FrameNumber base = rng.uniform_int(0, 4000);
      std::vector<hw::FrameRun> frames;
      if (cut > 0) frames.push_back({base, cut});
      if (count > cut) frames.push_back({base + cut + 7, count - cut});
      runs.add(holes, frames);
      const auto mfns = expand_runs(frames);
      std::size_t i = 0;
      for (const auto& h : holes) {
        for (mm::Pfn p = h.first; p < h.end(); ++p) {
          ASSERT_EQ(dense[static_cast<std::size_t>(p)], mm::kNoFrame);
          dense[static_cast<std::size_t>(p)] = mfns[i++];
        }
      }
    } else if (op == 2) {
      const mm::Pfn pfn = any_pfn();
      if (dense[static_cast<std::size_t>(pfn)] != mm::kNoFrame) {
        ASSERT_EQ(runs.remove(pfn), dense[static_cast<std::size_t>(pfn)]);
        dense[static_cast<std::size_t>(pfn)] = mm::kNoFrame;
      } else {
        ASSERT_THROW(runs.remove(pfn), InvariantViolation);
      }
    } else if (op == 3) {
      const mm::Pfn first = any_pfn();
      const mm::PfnRange range{first, rng.uniform_int(0, std::min<std::int64_t>(
                                                             12, pfns() - first))};
      std::vector<hw::FrameNumber> want;
      for (mm::Pfn p = range.first; p < range.end(); ++p) {
        want.push_back(dense[static_cast<std::size_t>(p)]);
      }
      if (std::find(want.begin(), want.end(), mm::kNoFrame) == want.end()) {
        ASSERT_EQ(expand_runs(runs.remove(range)), want);
        for (mm::Pfn p = range.first; p < range.end(); ++p) {
          dense[static_cast<std::size_t>(p)] = mm::kNoFrame;
        }
      } else {
        ASSERT_THROW(runs.remove(range), InvariantViolation);
      }
    } else if (op == 4 && rng.chance(0.1)) {
      const mm::Pfn grown = pfns() + rng.uniform_int(0, 16);
      runs.grow(grown);
      dense.resize(static_cast<std::size_t>(grown), mm::kNoFrame);
    } else {
      // Lowest holes, up to a limit.
      const std::int64_t limit = rng.uniform_int(0, 64);
      std::vector<mm::Pfn> want;
      for (mm::Pfn p = 0; p < pfns() && std::ssize(want) < limit; ++p) {
        if (dense[static_cast<std::size_t>(p)] == mm::kNoFrame) want.push_back(p);
      }
      std::vector<mm::Pfn> got;
      for (const auto& h : runs.holes(limit)) {
        for (mm::Pfn p = h.first; p < h.end(); ++p) got.push_back(p);
      }
      ASSERT_EQ(got, want);
    }

    // Every PFN, the per-frame view, the populated count and ranges, the
    // first populated PFN, and a serialise round trip.
    ASSERT_EQ(runs.pfn_count(), pfns());
    std::vector<hw::FrameNumber> mapped;
    std::vector<mm::Pfn> populated;
    for (mm::Pfn p = 0; p < pfns(); ++p) {
      const auto mfn = dense[static_cast<std::size_t>(p)];
      ASSERT_EQ(runs.mfn_of(p), mfn) << "pfn " << p;
      if (mfn != mm::kNoFrame) {
        mapped.push_back(mfn);
        populated.push_back(p);
      }
    }
    ASSERT_EQ(runs.mapped_frames(), mapped);
    ASSERT_EQ(expand_runs(runs.frame_runs()), mapped);
    ASSERT_EQ(runs.populated(), std::ssize(mapped));
    ASSERT_EQ(runs.first_populated_pfn(), populated.empty() ? -1 : populated[0]);
    std::vector<mm::Pfn> from_ranges;
    for (const auto& r : runs.populated_ranges()) {
      for (mm::Pfn p = r.first; p < r.end(); ++p) from_ranges.push_back(p);
    }
    ASSERT_EQ(from_ranges, populated);
    mm::ByteWriter w;
    runs.serialize(w);
    const auto blob = w.take();
    mm::ByteReader r(blob);
    ASSERT_EQ(mm::P2mTable::deserialize(r), runs);
    ASSERT_TRUE(r.exhausted());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, P2mRuns,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// ---------------------------------------------------------------------
// MachineMemory
// ---------------------------------------------------------------------

class MemoryTokens : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryTokens, MatchesDenseModel) {
  sim::Rng rng(GetParam());
  hw::MachineMemory runs(sim::kMiB);  // 256 frames
  std::vector<hw::ContentToken> dense(256, hw::kScrubbed);
  const auto any_frame = [&] { return rng.uniform_int(0, 255); };

  for (int step = 0; step < 2000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    SCOPED_TRACE("step " + std::to_string(step) + " op " + std::to_string(op));
    if (op <= 4) {
      const hw::FrameNumber mfn = any_frame();
      const hw::ContentToken token =
          rng.chance(0.2) ? hw::kScrubbed
                          : static_cast<hw::ContentToken>(rng.uniform_int(1, 5));
      runs.write(mfn, token);
      dense[static_cast<std::size_t>(mfn)] = token;
    } else if (op == 5) {
      const hw::FrameNumber mfn = any_frame();
      runs.scrub(mfn);
      dense[static_cast<std::size_t>(mfn)] = hw::kScrubbed;
    } else if (op <= 7) {
      const hw::FrameNumber first = any_frame();
      const hw::FrameRun run{first, rng.uniform_int(0, 256 - first)};
      runs.scrub(run);
      for (hw::FrameNumber f = run.first; f < run.end(); ++f) {
        dense[static_cast<std::size_t>(f)] = hw::kScrubbed;
      }
    } else if (op == 8 && rng.chance(0.1)) {
      runs.power_cycle();
      std::fill(dense.begin(), dense.end(), hw::kScrubbed);
    } else {
      // The tokens of a run, in ascending MFN order.
      const hw::FrameNumber first = any_frame();
      const hw::FrameRun run{first, rng.uniform_int(0, 256 - first)};
      std::vector<std::pair<hw::FrameNumber, hw::ContentToken>> want;
      for (hw::FrameNumber f = run.first; f < run.end(); ++f) {
        const auto token = dense[static_cast<std::size_t>(f)];
        if (token != hw::kScrubbed) want.emplace_back(f, token);
      }
      std::vector<std::pair<hw::FrameNumber, hw::ContentToken>> got;
      runs.for_each_token(run, [&got](hw::FrameNumber f, hw::ContentToken t) {
        got.emplace_back(f, t);
      });
      ASSERT_EQ(got, want);
    }
    for (hw::FrameNumber f = 0; f < 256; ++f) {
      ASSERT_EQ(runs.read(f), dense[static_cast<std::size_t>(f)]) << "frame " << f;
    }
    ASSERT_EQ(runs.populated_frames(),
              std::ssize(dense) - std::count(dense.begin(), dense.end(),
                                             hw::kScrubbed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryTokens,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(MemoryTokens, RunScrubChecksItsRange) {
  hw::MachineMemory m(sim::kMiB);
  EXPECT_THROW(m.scrub(hw::FrameRun{-1, 2}), InvariantViolation);
  EXPECT_THROW(m.scrub(hw::FrameRun{250, 7}), InvariantViolation);
  EXPECT_THROW(m.scrub(hw::FrameRun{3, -1}), InvariantViolation);
  m.scrub(hw::FrameRun{250, 6});  // ends exactly at the last frame
}

}  // namespace
}  // namespace rh::test
