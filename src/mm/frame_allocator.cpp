#include "mm/frame_allocator.hpp"

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
  owner_.assign(static_cast<std::size_t>(frame_count), kNoDomain);
}

std::int64_t& FrameAllocator::count_of(DomainId owner) {
  const std::size_t slot = slot_of(owner);
  if (slot >= owned_counts_.size()) owned_counts_.resize(slot + 1, 0);
  return owned_counts_[slot];
}

std::vector<hw::FrameNumber> FrameAllocator::allocate(DomainId owner,
                                                      std::int64_t count) {
  ensure(valid_owner(owner), "FrameAllocator::allocate: invalid owner");
  ensure(count >= 0, "FrameAllocator::allocate: negative count");
  if (count > free_) {
    throw OutOfMachineMemory("FrameAllocator: requested " + std::to_string(count) +
                             " frames, only " + std::to_string(free_) + " free");
  }
  std::vector<hw::FrameNumber> out(static_cast<std::size_t>(count));
  std::size_t got = 0;
  // Next-fit scan from the cursor; wraps at most once.
  for (std::int64_t scanned = 0; got < out.size() && scanned <= total_;
       ++scanned, ++cursor_) {
    if (cursor_ >= total_) cursor_ = 0;
    DomainId& slot = owner_[static_cast<std::size_t>(cursor_)];
    if (slot == kNoDomain) {
      slot = owner;
      out[got++] = cursor_;
    }
  }
  ensure(got == out.size(),
         "FrameAllocator: free count inconsistent with owner map");
  free_ -= count;
  count_of(owner) += count;
  return out;
}

std::vector<hw::FrameNumber> FrameAllocator::allocate_contiguous(
    DomainId owner, std::int64_t count) {
  ensure(valid_owner(owner), "FrameAllocator::allocate_contiguous: invalid owner");
  ensure(count >= 0, "FrameAllocator::allocate_contiguous: negative count");
  if (count == 0) return {};
  if (count > free_) {
    throw OutOfMachineMemory(
        "FrameAllocator: requested " + std::to_string(count) +
        " contiguous frames, only " + std::to_string(free_) + " free");
  }
  // First-fit over ascending MFN runs.
  std::int64_t run_start = -1;
  std::int64_t run_len = 0;
  for (std::int64_t mfn = 0; mfn < total_; ++mfn) {
    if (owner_[static_cast<std::size_t>(mfn)] == kNoDomain) {
      if (run_len == 0) run_start = mfn;
      if (++run_len == count) {
        std::vector<hw::FrameNumber> out;
        out.reserve(static_cast<std::size_t>(count));
        for (std::int64_t f = run_start; f < run_start + count; ++f) {
          owner_[static_cast<std::size_t>(f)] = owner;
          out.push_back(f);
        }
        free_ -= count;
        count_of(owner) += count;
        return out;
      }
    } else {
      run_len = 0;
    }
  }
  throw OutOfMachineMemory(
      "FrameAllocator: no contiguous run of " + std::to_string(count) +
      " frames (" + std::to_string(free_) + " free, largest run " +
      std::to_string(largest_free_run()) + "): machine memory is fragmented");
}

void FrameAllocator::claim(DomainId owner, std::span<const hw::FrameNumber> frames) {
  ensure(valid_owner(owner), "FrameAllocator::claim: invalid owner");
  for (const auto mfn : frames) {
    check_mfn(mfn);
    ensure(owner_[static_cast<std::size_t>(mfn)] == kNoDomain, [mfn] {
      return "FrameAllocator::claim: frame " + std::to_string(mfn) + " not free";
    });
  }
  for (const auto mfn : frames) owner_[static_cast<std::size_t>(mfn)] = owner;
  free_ -= static_cast<std::int64_t>(frames.size());
  count_of(owner) += static_cast<std::int64_t>(frames.size());
}

void FrameAllocator::release(hw::FrameNumber mfn) {
  check_mfn(mfn);
  DomainId& owner = owner_[static_cast<std::size_t>(mfn)];
  ensure(owner != kNoDomain, "FrameAllocator::release: frame already free");
  --owned_counts_[slot_of(owner)];
  owner = kNoDomain;
  ++free_;
}

std::int64_t FrameAllocator::release_all(DomainId owner) {
  std::int64_t freed = 0;
  for (DomainId& o : owner_) {
    if (o == owner) {
      o = kNoDomain;
      ++freed;
    }
  }
  free_ += freed;
  const std::size_t slot = slot_of(owner);
  if (slot < owned_counts_.size()) owned_counts_[slot] = 0;
  return freed;
}

std::int64_t FrameAllocator::owned_frames(DomainId owner) const {
  const std::size_t slot = slot_of(owner);
  return slot < owned_counts_.size() ? owned_counts_[slot] : 0;
}

std::vector<hw::FrameNumber> FrameAllocator::frames_owned_by(DomainId owner) const {
  std::vector<hw::FrameNumber> out;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == owner) out.push_back(static_cast<hw::FrameNumber>(i));
  }
  return out;
}

std::int64_t FrameAllocator::largest_free_run() const {
  std::int64_t best = 0;
  std::int64_t run = 0;
  for (std::size_t i = 0; i < owner_.size(); ++i) {
    if (owner_[i] == kNoDomain) {
      if (++run > best) best = run;
    } else {
      run = 0;
    }
  }
  return best;
}

double FrameAllocator::fragmentation() const {
  if (free_ == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_run()) /
                   static_cast<double>(free_);
}

hw::FrameNumber FrameAllocator::lowest_free_from(hw::FrameNumber hint) const {
  for (std::int64_t mfn = hint < 0 ? 0 : hint; mfn < total_; ++mfn) {
    if (owner_[static_cast<std::size_t>(mfn)] == kNoDomain) return mfn;
  }
  return -1;
}

bool FrameAllocator::accounting_ok() const {
  // Count runs of equal owners: frames of one owner are mostly contiguous,
  // so the table is touched once per run rather than once per frame.
  std::int64_t seen_free = 0;
  std::vector<std::int64_t> seen(owned_counts_.size(), 0);
  for (std::size_t i = 0; i < owner_.size();) {
    const DomainId owner = owner_[i];
    std::size_t end = i + 1;
    while (end < owner_.size() && owner_[end] == owner) ++end;
    const auto run = static_cast<std::int64_t>(end - i);
    if (owner == kNoDomain) {
      seen_free += run;
    } else {
      const std::size_t slot = slot_of(owner);
      if (slot >= seen.size()) return false;  // an owner with no count
      seen[slot] += run;
    }
    i = end;
  }
  // Equal tables also rule out phantom owners: a cached non-zero count
  // with no frames behind it.
  return seen_free == free_ && seen == owned_counts_;
}

}  // namespace rh::mm
