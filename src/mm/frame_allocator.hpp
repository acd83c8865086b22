// Machine-frame allocator: tracks ownership of every machine page frame.
//
// The VMM allocates machine frames to domains at creation, frees them at
// destruction, and -- after a quick reload -- *re-claims* the exact frames
// recorded in each suspended domain's P2M table, so the new VMM instance
// never hands a frozen frame to anyone else and never scrubs it.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/domain_id.hpp"
#include "simcore/check.hpp"
#include "simcore/types.hpp"

namespace rh::mm {

/// Thrown when an allocation cannot be satisfied.
class OutOfMachineMemory : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FrameAllocator {
 public:
  explicit FrameAllocator(std::int64_t frame_count);

  /// Allocates `count` free frames to `owner`; throws OutOfMachineMemory if
  /// fewer than `count` frames are free.
  std::vector<hw::FrameNumber> allocate(DomainId owner, std::int64_t count);

  /// Allocates `count` *contiguous* free frames (one ascending MFN run) to
  /// `owner`. Throws OutOfMachineMemory when no run is long enough -- the
  /// message distinguishes genuine exhaustion from fragmentation, since a
  /// preserved-region metadata placement can fail with plenty of scattered
  /// free frames (DESIGN.md §9).
  std::vector<hw::FrameNumber> allocate_contiguous(DomainId owner,
                                                   std::int64_t count);

  /// Claims the exact given frames for `owner`. Every frame must currently
  /// be free; throws InvariantViolation naming the first busy frame
  /// otherwise, with nothing claimed. Used after quick reload to re-attach
  /// preserved memory images.
  void claim(DomainId owner, std::span<const hw::FrameNumber> frames);

  /// Returns one frame to the free pool. It must be owned.
  void release(hw::FrameNumber mfn);

  /// Frees every frame owned by `owner`; returns how many were freed.
  std::int64_t release_all(DomainId owner);

  [[nodiscard]] DomainId owner_of(hw::FrameNumber mfn) const {
    check_mfn(mfn);
    return owner_[static_cast<std::size_t>(mfn)];
  }
  [[nodiscard]] std::int64_t total_frames() const { return total_; }
  [[nodiscard]] std::int64_t free_frames() const { return free_; }
  [[nodiscard]] std::int64_t owned_frames(DomainId owner) const;

  /// All frames currently owned by `owner`, in ascending MFN order.
  [[nodiscard]] std::vector<hw::FrameNumber> frames_owned_by(DomainId owner) const;

  /// Owner of every frame, indexed by MFN (kNoDomain == free), for
  /// whole-host passes such as the boot-time scrubber to walk in place.
  [[nodiscard]] std::span<const DomainId> owners() const { return owner_; }

  /// Length of the longest run of consecutive free MFNs.
  [[nodiscard]] std::int64_t largest_free_run() const;

  /// External-fragmentation score in [0,1]: 1 - largest_free_run / free.
  /// 0 when all free memory is one run (or nothing is free).
  [[nodiscard]] double fragmentation() const;

  /// Lowest free MFN >= `hint`, or -1 when none. Lets callers walk the
  /// free pool in ascending order without rescanning from zero (the
  /// compaction pass passes the previous result + 1 as the next hint).
  [[nodiscard]] hw::FrameNumber lowest_free_from(hw::FrameNumber hint) const;

  /// Conservation check: the cached free counter and per-owner counts
  /// agree with the owner map, and every owner in the map has a count.
  /// One pass over the owner map; cheap enough to run after every reload.
  [[nodiscard]] bool accounting_ok() const;

 private:
  void check_mfn(hw::FrameNumber mfn) const {
    ensure(mfn >= 0 && mfn < total_, "FrameAllocator: MFN out of range");
  }
  /// `owner`'s count slot, growing the table to reach it. The caller has
  /// checked the owner (an id below kVmmOwner would have no slot).
  std::int64_t& count_of(DomainId owner);

  std::vector<DomainId> owner_;  // indexed by MFN; kNoDomain == free
  std::int64_t total_ = 0;
  std::int64_t free_ = 0;
  std::int64_t cursor_ = 0;  // next-fit allocation cursor
  // Frames held per owner, indexed by owner - kVmmOwner: domain ids are
  // small and dense (a VMM numbers them from 0). The kNoDomain slot
  // stays 0.
  std::vector<std::int64_t> owned_counts_;
};

}  // namespace rh::mm
