// Registry of memory regions preserved across a quick reload.
//
// This models the contract between the outgoing and incoming VMM
// instances: the outgoing VMM records (a) metadata payloads -- serialised
// P2M tables, execution state, domain configuration -- and (b) the set of
// *frozen* machine frames holding suspended domains' memory images. The
// incoming VMM, when booted via quick reload, re-reserves everything
// recorded here before it scrubs free memory.
//
// The registry's contents live in RAM: a power cycle (hardware reset)
// destroys them, a quick reload does not. The Host enforces that tie-in.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/domain_id.hpp"
#include "simcore/types.hpp"

namespace rh::mm {

/// One preserved region: a metadata payload plus the frozen frames it
/// governs (empty for pure-metadata regions).
struct PreservedRegion {
  std::string name;
  std::vector<std::byte> payload;
  /// The frozen machine frames, as runs in PFN order.
  std::vector<hw::FrameRun> frozen_frames;
  /// Metadata bytes the region is charged for, stamped by the writer; 0
  /// charges the payload's own size (see charged_size()).
  sim::Bytes charged_bytes = 0;
  /// payload_checksum(payload), stamped by the registry at put() time. A
  /// reader that recomputes a different value is looking at a record that
  /// rotted (or was tampered with) after it was preserved.
  std::uint64_t checksum = 0;

  /// Number of frozen frames (the sum of the run lengths).
  [[nodiscard]] std::int64_t frozen_frame_count() const;

  /// The metadata bytes the region costs. Its metadata frames, the
  /// preserved-frame budget and every metadata time are computed from
  /// this, never from payload.size(): a domain record stores its P2M as
  /// runs but is charged what it takes with the P2M written one 8-byte
  /// entry per PFN (the paper's 2 MiB per GiB), which its writer stamps
  /// in charged_bytes. A region with no stamp charges its payload size.
  [[nodiscard]] sim::Bytes charged_size() const {
    return charged_bytes > 0 ? charged_bytes
                             : static_cast<sim::Bytes>(payload.size());
  }
};

/// The checksum PreservedRegionRegistry stamps: FNV-1a steps over the
/// payload's 64-bit little-endian words, then over its tail bytes one at
/// a time. Any single changed byte changes the result.
[[nodiscard]] std::uint64_t payload_checksum(const std::vector<std::byte>& payload);

/// Thrown when a put()/replace() would push the registry past its
/// configured preserved-frame budget (DESIGN.md §9). The region is NOT
/// recorded; the caller decides how to degrade.
class PreservedBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class PreservedRegionRegistry {
 public:
  /// Inserts a region by name, stamping its checksum. Throws
  /// InvariantViolation if a region with that name already exists --
  /// silently overwriting would leak the old region's frozen frames,
  /// which stay claimed in the allocator with nobody left to release
  /// them. Use replace() to overwrite deliberately.
  void put(PreservedRegion region);

  /// Replaces an *existing* region by name (checksum restamped, insertion
  /// order kept). Throws InvariantViolation if the name is absent. The
  /// caller owns the frame-accounting consequences of dropping the old
  /// record.
  void replace(PreservedRegion region);

  [[nodiscard]] bool contains(const std::string& name) const {
    return regions_.find(name) != regions_.end();
  }

  /// Looks up a region; nullptr if absent.
  [[nodiscard]] const PreservedRegion* find(const std::string& name) const;

  /// Whether the region's payload still matches its stamped checksum.
  /// Precondition: the region exists.
  [[nodiscard]] bool intact(const std::string& name) const;

  /// Flips one payload byte *without* restamping the checksum -- bit-rot
  /// in RAM, as injected by fault::FaultKind::kCorruptPreservedImage.
  /// Precondition: the region exists and has a non-empty payload.
  void corrupt_payload(const std::string& name);

  /// Removes a region; returns true if it existed.
  bool erase(const std::string& name);

  /// All region names, in insertion order. Invalidated by put() and
  /// erase(); copy it to mutate the registry while walking the names.
  [[nodiscard]] const std::vector<std::string>& names() const { return order_; }

  [[nodiscard]] bool empty() const { return regions_.empty(); }
  [[nodiscard]] std::size_t size() const { return regions_.size(); }

  /// Total metadata bytes charged (charged_size(), not frozen frames).
  [[nodiscard]] sim::Bytes payload_bytes() const;

  /// Machine frames one region costs: its frozen frames plus the metadata
  /// frames the incoming VMM must allocate for the payload
  /// (ceil(charged_size() / kPageSize)) -- the same arithmetic
  /// Vmm::reserve_preserved_regions uses at reload.
  [[nodiscard]] static std::int64_t frames_of(const PreservedRegion& region);

  /// Sum of frames_of over every recorded region: what a quick reload
  /// will have to find before it can scrub.
  [[nodiscard]] std::int64_t reserved_frames() const;

  /// Caps reserved_frames(): a put()/replace() that would exceed the
  /// budget throws PreservedBudgetExceeded instead of recording. 0 (the
  /// default) means unlimited. The budget is a property of the preserved-
  /// memory contract, not of its contents, so clear() keeps it.
  void set_frame_budget(std::int64_t frames);
  [[nodiscard]] std::int64_t frame_budget() const { return frame_budget_; }

  /// Destroys every region (models power loss); keeps the budget.
  void clear();

 private:
  void check_budget(const PreservedRegion& incoming,
                    std::int64_t replaced_frames) const;

  std::vector<std::string> order_;
  std::unordered_map<std::string, PreservedRegion> regions_;
  std::int64_t frame_budget_ = 0;  // 0 == unlimited
};

}  // namespace rh::mm
