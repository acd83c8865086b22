// Machine-frame allocator: tracks ownership of every machine page frame.
//
// The VMM allocates machine frames to domains at creation, frees them at
// destruction, and -- after a quick reload -- *re-claims* the exact frames
// recorded in each suspended domain's P2M table, so the new VMM instance
// never hands a frozen frame to anyone else and never scrubs it.
//
// Ownership is stored as runs of frames with one owner (free runs carry
// kNoDomain), covering every MFN. Next-fit allocation keeps a domain's
// frames in a few long runs, so every operation here costs O(log runs)
// or O(runs), never O(frames).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/domain_id.hpp"
#include "mm/run_map.hpp"
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
  /// Owner runs by MFN; free frames are runs owned by kNoDomain.
  using OwnerRuns = RunMap<DomainId, RunShape::kConstant>;

  explicit FrameAllocator(std::int64_t frame_count);

  /// Allocates `count` free frames to `owner`; throws OutOfMachineMemory if
  /// fewer than `count` frames are free. Next fit: the scan starts at the
  /// cursor, wraps at most once, and leaves the cursor one past the last
  /// frame taken. Returns the frames as runs in allocation order.
  std::vector<hw::FrameRun> allocate(DomainId owner, std::int64_t count);

  /// Claims the exact given frames for `owner`. Every frame must currently
  /// be free and named once; throws InvariantViolation naming the first
  /// busy (or repeated) frame otherwise, with nothing claimed. Used after
  /// quick reload to re-attach preserved memory images.
  void claim(DomainId owner, std::span<const hw::FrameRun> frames);

  /// Returns one frame to the free pool. It must be owned.
  void release(hw::FrameNumber mfn);

  /// Frees the frames of `run` that `owner` holds (others are left as
  /// they are); returns how many were freed.
  std::int64_t release_owned(DomainId owner, hw::FrameRun run);

  /// Frees every frame owned by `owner`; returns how many were freed.
  std::int64_t release_all(DomainId owner);

  [[nodiscard]] DomainId owner_of(hw::FrameNumber mfn) const {
    check_mfn(mfn);
    return owners_.find(mfn)->value;
  }
  /// Whether `owner` holds every frame of `run`.
  [[nodiscard]] bool holds(DomainId owner, hw::FrameRun run) const;

  [[nodiscard]] std::int64_t total_frames() const { return total_; }
  [[nodiscard]] std::int64_t free_frames() const { return free_; }
  [[nodiscard]] std::int64_t owned_frames(DomainId owner) const;

  /// All frames currently owned by `owner`, in ascending MFN order (a
  /// per-frame view for tests).
  [[nodiscard]] std::vector<hw::FrameNumber> frames_owned_by(DomainId owner) const;

  /// The owner runs, for whole-host passes such as the boot-time scrubber.
  [[nodiscard]] const OwnerRuns& runs() const { return owners_; }
  /// Number of owner runs (free runs included).
  [[nodiscard]] std::size_t run_count() const { return owners_.size(); }

  /// Conservation check: the owner runs cover every MFN exactly once,
  /// and the cached free counter and per-owner counts agree with them,
  /// and every owner in the runs has a count. One pass over the runs;
  /// cheap enough to run after every reload.
  [[nodiscard]] bool accounting_ok() const;

 private:
  friend struct FrameAllocatorTestAccess;

  void check_mfn(hw::FrameNumber mfn) const {
    ensure(mfn >= 0 && mfn < total_, "FrameAllocator: MFN out of range");
  }
  void check_run(hw::FrameRun run) const {
    ensure(run.first >= 0 && run.count >= 0 && run.count <= total_ - run.first,
           "FrameAllocator: MFN out of range");
  }
  /// `owner`'s count slot, growing the table to reach it. The caller has
  /// checked the owner (an id below kVmmOwner would have no slot).
  std::int64_t& count_of(DomainId owner);
  /// The first owner run overlapping `run`; end() when `run` is empty.
  [[nodiscard]] OwnerRuns::Iterator first_overlap(hw::FrameRun run) const;
  /// The parts of `run` held by `owner`, ascending.
  [[nodiscard]] std::vector<hw::FrameRun> pieces_of(DomainId owner,
                                                    hw::FrameRun run) const;

  OwnerRuns owners_;  // covers [0, total_); kNoDomain == free
  std::int64_t total_ = 0;
  std::int64_t free_ = 0;
  std::int64_t cursor_ = 0;  // next-fit allocation cursor
  // Frames held per owner, indexed by owner - kVmmOwner: domain ids are
  // small and dense (a VMM numbers them from 0). The kNoDomain slot
  // stays 0.
  std::vector<std::int64_t> owned_counts_;
};

}  // namespace rh::mm
