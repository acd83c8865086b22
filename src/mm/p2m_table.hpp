// P2M mapping table: pseudo-physical frame number -> machine frame number.
//
// Each domain sees contiguous pseudo-physical memory; the VMM records which
// machine frame backs each pseudo-physical frame. The table is the key
// piece of preserved state in the warm-VM reboot: it is what allows the
// post-reload VMM to re-attach exactly the right machine frames to each
// suspended domain. As in the paper, it costs 8 bytes per pseudo-physical
// page -- 2 MiB per GiB of domain memory -- and it stays correct under
// ballooning, where pseudo-physical memory can exceed populated machine
// memory (holes are legal).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/serde.hpp"
#include "simcore/check.hpp"
#include "simcore/types.hpp"

namespace rh::mm {

/// Pseudo-physical frame number, consecutive from 0 within a domain.
using Pfn = std::int64_t;

inline constexpr hw::FrameNumber kNoFrame = -1;

class P2mTable {
 public:
  P2mTable() = default;

  /// Creates a table spanning `pfn_count` pseudo-physical frames, all holes.
  explicit P2mTable(Pfn pfn_count);

  /// Number of pseudo-physical frames the table spans (including holes).
  [[nodiscard]] Pfn pfn_count() const { return static_cast<Pfn>(map_.size()); }

  /// Number of entries currently populated (machine frames mapped).
  [[nodiscard]] std::int64_t populated() const { return populated_; }

  /// Grows the pseudo-physical space (new entries are holes).
  void grow(Pfn new_pfn_count);

  /// Records that `pfn` is backed by machine frame `mfn`. The slot must be
  /// a hole. Inline: domain construction calls it once per frame.
  void add(Pfn pfn, hw::FrameNumber mfn) {
    check_pfn(pfn);
    ensure(mfn >= 0, "P2mTable::add: invalid MFN");
    auto& slot = map_[static_cast<std::size_t>(pfn)];
    ensure(slot == kNoFrame, "P2mTable::add: PFN already mapped");
    slot = mfn;
    ++populated_;
  }

  /// Removes the mapping at `pfn` (e.g. the balloon driver returned the
  /// page); returns the machine frame that backed it.
  hw::FrameNumber remove(Pfn pfn);

  /// Machine frame backing `pfn`, or kNoFrame for a hole.
  [[nodiscard]] hw::FrameNumber mfn_of(Pfn pfn) const {
    check_pfn(pfn);
    return map_[static_cast<std::size_t>(pfn)];
  }

  [[nodiscard]] bool is_hole(Pfn pfn) const { return mfn_of(pfn) == kNoFrame; }

  /// All mapped machine frames in PFN order (the domain's memory image).
  [[nodiscard]] std::vector<hw::FrameNumber> mapped_frames() const;

  /// The table itself, indexed by PFN (kNoFrame for a hole), for passes
  /// that check every mapping in place.
  [[nodiscard]] std::span<const hw::FrameNumber> entries() const { return map_; }

  /// First populated PFN, or -1 when empty. (The VMM stamps a signature
  /// token into this frame at suspend time.)
  [[nodiscard]] Pfn first_populated_pfn() const;

  /// Table size in bytes: 8 bytes per pseudo-physical frame, as the paper
  /// reports (2 MiB per GiB).
  [[nodiscard]] sim::Bytes size_bytes() const {
    return static_cast<sim::Bytes>(map_.size()) * 8;
  }

  void serialize(ByteWriter& w) const;
  static P2mTable deserialize(ByteReader& r);

  bool operator==(const P2mTable&) const = default;

 private:
  void check_pfn(Pfn pfn) const {
    ensure(pfn >= 0 && pfn < pfn_count(), "P2mTable: PFN out of range");
  }

  std::vector<hw::FrameNumber> map_;
  std::int64_t populated_ = 0;
};

}  // namespace rh::mm
