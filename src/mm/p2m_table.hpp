// P2M mapping table: pseudo-physical frame number -> machine frame number.
//
// Each domain sees contiguous pseudo-physical memory; the VMM records which
// machine frame backs each pseudo-physical frame. The table is the key
// piece of preserved state in the warm-VM reboot: it is what allows the
// post-reload VMM to re-attach exactly the right machine frames to each
// suspended domain. As in the paper, it is charged 8 bytes per
// pseudo-physical page -- 2 MiB per GiB of domain memory -- and it stays
// correct under ballooning, where pseudo-physical memory can exceed
// populated machine memory (holes are legal).
//
// The table is stored, and serialised, as runs (first PFN, first MFN,
// count) of consecutive PFNs backed by consecutive MFNs; holes are the
// gaps between runs. A domain built by next-fit allocation is one to a
// few runs, whatever its size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/run_map.hpp"
#include "mm/serde.hpp"
#include "simcore/check.hpp"
#include "simcore/types.hpp"

namespace rh::mm {

/// Pseudo-physical frame number, consecutive from 0 within a domain.
using Pfn = std::int64_t;

inline constexpr hw::FrameNumber kNoFrame = -1;

/// `count` consecutive pseudo-physical frames starting at `first`.
struct PfnRange {
  Pfn first = 0;
  std::int64_t count = 0;

  [[nodiscard]] Pfn end() const { return first + count; }
};

class P2mTable {
 public:
  /// Mapping runs by PFN; a run's value is the MFN behind its first PFN.
  using Runs = RunMap<hw::FrameNumber, RunShape::kAffine>;

  P2mTable() = default;

  /// Creates a table spanning `pfn_count` pseudo-physical frames, all holes.
  explicit P2mTable(Pfn pfn_count);

  /// Number of pseudo-physical frames the table spans (including holes).
  [[nodiscard]] Pfn pfn_count() const { return pfn_count_; }

  /// Number of entries currently populated (machine frames mapped).
  [[nodiscard]] std::int64_t populated() const { return populated_; }

  /// Grows the pseudo-physical space (new entries are holes).
  void grow(Pfn new_pfn_count);

  /// Records that `pfn` is backed by machine frame `mfn`. The slot must be
  /// a hole.
  void add(Pfn pfn, hw::FrameNumber mfn) { add(pfn, hw::FrameRun{mfn, 1}); }

  /// Maps the `frames.count` PFNs from `first_pfn` onto `frames`, in
  /// order. Every one of those PFNs must be a hole.
  void add(Pfn first_pfn, hw::FrameRun frames);

  /// Maps the PFNs of `pfns` (ascending) onto `frames` in order: the i-th
  /// PFN gets the i-th frame. Both must hold the same number of frames.
  void add(std::span<const PfnRange> pfns, std::span<const hw::FrameRun> frames);

  /// Removes the mapping at `pfn` (e.g. the balloon driver returned the
  /// page); returns the machine frame that backed it.
  hw::FrameNumber remove(Pfn pfn);

  /// Removes the mappings of `pfns`, which must all be populated; returns
  /// the machine frames that backed them, as runs in PFN order.
  std::vector<hw::FrameRun> remove(PfnRange pfns);

  /// Machine frame backing `pfn`, or kNoFrame for a hole.
  [[nodiscard]] hw::FrameNumber mfn_of(Pfn pfn) const {
    check_pfn(pfn);
    const auto it = runs_.find(pfn);
    return it == runs_.end() ? kNoFrame : it->at(pfn);
  }

  [[nodiscard]] bool is_hole(Pfn pfn) const { return mfn_of(pfn) == kNoFrame; }

  /// All mapped machine frames in PFN order (a per-frame view for tests).
  [[nodiscard]] std::vector<hw::FrameNumber> mapped_frames() const;

  /// The machine frames behind the table, as runs in PFN order (the
  /// domain's memory image).
  [[nodiscard]] std::vector<hw::FrameRun> frame_runs() const;

  /// The populated PFNs as ascending ranges, touching ranges merged.
  [[nodiscard]] std::vector<PfnRange> populated_ranges() const;

  /// The lowest holes, as ascending ranges covering at most `limit` PFNs.
  [[nodiscard]] std::vector<PfnRange> holes(std::int64_t limit) const;

  [[nodiscard]] const Runs& runs() const { return runs_; }
  /// Number of mapping runs.
  [[nodiscard]] std::size_t run_count() const { return runs_.size(); }

  /// First populated PFN, or -1 when empty. (The VMM stamps a signature
  /// token into this frame at suspend time.)
  [[nodiscard]] Pfn first_populated_pfn() const;

  /// Table size in bytes: 8 bytes per pseudo-physical frame, as the paper
  /// reports (2 MiB per GiB).
  [[nodiscard]] sim::Bytes size_bytes() const {
    return static_cast<sim::Bytes>(pfn_count_) * 8;
  }

  /// Writes the PFN count, then the run count and each run's first PFN,
  /// first MFN and length.
  void serialize(ByteWriter& w) const;
  /// Reads what serialize() wrote. Throws InvariantViolation unless the
  /// runs are non-empty, ascending, disjoint, inside the PFN count and
  /// backed by MFNs >= 0; the result is coalesced, so equal tables compare
  /// equal however their runs were split on the wire.
  static P2mTable deserialize(ByteReader& r);

  bool operator==(const P2mTable&) const = default;

 private:
  void check_pfn(Pfn pfn) const {
    ensure(pfn >= 0 && pfn < pfn_count_, "P2mTable: PFN out of range");
  }

  Runs runs_;
  Pfn pfn_count_ = 0;
  std::int64_t populated_ = 0;
};

}  // namespace rh::mm
