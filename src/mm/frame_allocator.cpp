#include "mm/frame_allocator.hpp"

#include <algorithm>
#include <string>

#include "simcore/check.hpp"

namespace rh::mm {

namespace {

/// Owners a frame can be given to: the VMM itself or a domain.
bool valid_owner(DomainId owner) {
  return owner >= kVmmOwner && owner != kNoDomain;
}

/// Index of `owner`'s slot in the per-owner count table. Computed in 64
/// bits so that any DomainId maps without overflow; owners below
/// kVmmOwner map past every slot.
std::size_t slot_of(DomainId owner) {
  return static_cast<std::size_t>(std::int64_t{owner} - kVmmOwner);
}

}  // namespace

FrameAllocator::FrameAllocator(std::int64_t frame_count)
    : total_(frame_count), free_(frame_count) {
  ensure(frame_count > 0, "FrameAllocator: no frames");
  owners_.assign(0, frame_count, kNoDomain);
}

std::int64_t& FrameAllocator::count_of(DomainId owner) {
  const std::size_t slot = slot_of(owner);
  if (slot >= owned_counts_.size()) owned_counts_.resize(slot + 1, 0);
  return owned_counts_[slot];
}

FrameAllocator::OwnerRuns::Iterator FrameAllocator::first_overlap(
    hw::FrameRun run) const {
  return run.count > 0 ? owners_.from(run.first) : owners_.end();
}

std::vector<hw::FrameRun> FrameAllocator::pieces_of(DomainId owner,
                                                    hw::FrameRun run) const {
  std::vector<hw::FrameRun> out;
  for (auto it = first_overlap(run); it != owners_.end() && it->first < run.end();
       ++it) {
    if (it->value != owner) continue;
    const std::int64_t first = std::max(it->first, run.first);
    out.push_back({first, std::min(it->end(), run.end()) - first});
  }
  return out;
}

std::vector<hw::FrameRun> FrameAllocator::allocate(DomainId owner,
                                                   std::int64_t count) {
  ensure(valid_owner(owner), "FrameAllocator::allocate: invalid owner");
  ensure(count >= 0, "FrameAllocator::allocate: negative count");
  if (count > free_) {
    throw OutOfMachineMemory("FrameAllocator: requested " + std::to_string(count) +
                             " frames, only " + std::to_string(free_) + " free");
  }
  std::vector<hw::FrameRun> out;
  if (count == 0) return out;
  // Next-fit scan from the cursor to the top, then wrap once to scan the
  // frames below the cursor.
  if (cursor_ >= total_) cursor_ = 0;
  std::int64_t need = count;
  const auto scan = [&](std::int64_t lo, std::int64_t hi) {
    for (auto it = owners_.from(lo);
         need > 0 && it != owners_.end() && it->first < hi; ++it) {
      if (it->value != kNoDomain) continue;
      const std::int64_t first = std::max(it->first, lo);
      const std::int64_t take = std::min(need, std::min(it->end(), hi) - first);
      out.push_back({first, take});
      need -= take;
    }
  };
  scan(cursor_, total_);
  scan(0, cursor_);
  ensure(need == 0, "FrameAllocator: free count inconsistent with owner map");
  for (const auto& run : out) owners_.assign(run.first, run.count, owner);
  cursor_ = out.back().end();
  free_ -= count;
  count_of(owner) += count;
  return out;
}

void FrameAllocator::claim(DomainId owner, std::span<const hw::FrameRun> frames) {
  ensure(valid_owner(owner), "FrameAllocator::claim: invalid owner");
  std::int64_t total = 0;
  for (const auto& run : frames) {
    check_run(run);
    for (auto it = first_overlap(run);
         it != owners_.end() && it->first < run.end(); ++it) {
      const hw::FrameNumber mfn = std::max(it->first, run.first);
      ensure(it->value == kNoDomain, [mfn] {
        return "FrameAllocator::claim: frame " + std::to_string(mfn) + " not free";
      });
    }
    total += run.count;
  }
  // Every frame is free; now make sure none is named twice, or the counts
  // would charge one frame twice.
  std::vector<hw::FrameRun> sorted;
  for (const auto& run : frames) {
    if (run.count > 0) sorted.push_back(run);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const hw::FrameRun& a, const hw::FrameRun& b) {
              return a.first < b.first;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const hw::FrameNumber mfn = sorted[i].first;
    ensure(mfn >= sorted[i - 1].end(), [mfn] {
      return "FrameAllocator::claim: frame " + std::to_string(mfn) +
             " named twice";
    });
  }
  for (const auto& run : frames) owners_.assign(run.first, run.count, owner);
  free_ -= total;
  count_of(owner) += total;
}

void FrameAllocator::release(hw::FrameNumber mfn) {
  check_mfn(mfn);
  const DomainId owner = owners_.find(mfn)->value;
  ensure(owner != kNoDomain, "FrameAllocator::release: frame already free");
  --owned_counts_[slot_of(owner)];
  owners_.assign(mfn, 1, kNoDomain);
  ++free_;
}

std::int64_t FrameAllocator::release_owned(DomainId owner, hw::FrameRun run) {
  ensure(valid_owner(owner), "FrameAllocator::release_owned: invalid owner");
  check_run(run);
  std::int64_t freed = 0;
  for (const auto& piece : pieces_of(owner, run)) {
    owners_.assign(piece.first, piece.count, kNoDomain);
    freed += piece.count;
  }
  free_ += freed;
  count_of(owner) -= freed;
  return freed;
}

std::int64_t FrameAllocator::release_all(DomainId owner) {
  ensure(valid_owner(owner), "FrameAllocator::release_all: invalid owner");
  return release_owned(owner, {0, total_});
}

bool FrameAllocator::holds(DomainId owner, hw::FrameRun run) const {
  check_run(run);
  for (auto it = first_overlap(run);
       it != owners_.end() && it->first < run.end(); ++it) {
    if (it->value != owner) return false;
  }
  return true;
}

std::int64_t FrameAllocator::owned_frames(DomainId owner) const {
  const std::size_t slot = slot_of(owner);
  return slot < owned_counts_.size() ? owned_counts_[slot] : 0;
}

std::vector<hw::FrameNumber> FrameAllocator::frames_owned_by(DomainId owner) const {
  std::vector<hw::FrameNumber> out;
  for (const auto& run : owners_) {
    if (run.value != owner) continue;
    for (hw::FrameNumber mfn = run.first; mfn < run.end(); ++mfn) out.push_back(mfn);
  }
  return out;
}

bool FrameAllocator::accounting_ok() const {
  std::int64_t next = 0;  // the runs must tile [0, total_) in order
  std::int64_t seen_free = 0;
  std::vector<std::int64_t> seen(owned_counts_.size(), 0);
  for (const auto& run : owners_) {
    if (run.first != next || run.count <= 0) return false;
    next = run.end();
    if (run.value == kNoDomain) {
      seen_free += run.count;
    } else {
      const std::size_t slot = slot_of(run.value);
      if (slot >= seen.size()) return false;  // an owner with no count
      seen[slot] += run.count;
    }
  }
  // Equal tables also rule out phantom owners: a cached non-zero count
  // with no frames behind it.
  return next == total_ && seen_free == free_ && seen == owned_counts_;
}

}  // namespace rh::mm
