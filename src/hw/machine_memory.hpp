// Frame-granular model of the machine's physical RAM.
//
// Each 4 KiB machine frame carries a 64-bit *content token*: an opaque
// stand-in for the frame's real contents. A token of zero means "scrubbed"
// (the frame holds no meaningful data). Content tokens are how the
// simulation *proves* the paper's central property: a warm-VM reboot must
// leave the tokens of every frozen frame intact, while a hardware reset
// (power cycle) destroys all of them.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/check.hpp"
#include "simcore/types.hpp"

namespace rh::hw {

/// Machine frame number, numbered consecutively from 0 (as in Xen).
using FrameNumber = std::int64_t;

/// Opaque stand-in for a frame's contents; 0 == scrubbed/empty.
using ContentToken = std::uint64_t;

inline constexpr ContentToken kScrubbed = 0;

/// The machine's physical memory as an array of frame content tokens.
class MachineMemory {
 public:
  /// Creates memory of the given size (rounded down to whole frames).
  /// All frames start scrubbed.
  explicit MachineMemory(sim::Bytes total_size);

  [[nodiscard]] sim::Bytes size() const { return frame_count_ * sim::kPageSize; }
  [[nodiscard]] std::int64_t frame_count() const { return frame_count_; }

  // Inline: scrubbing, domain construction and image copies call these
  // once per frame.
  [[nodiscard]] ContentToken read(FrameNumber mfn) const {
    check_mfn(mfn);
    return frames_[static_cast<std::size_t>(mfn)];
  }

  void write(FrameNumber mfn, ContentToken content) {
    check_mfn(mfn);
    auto& slot = frames_[static_cast<std::size_t>(mfn)];
    if (slot == kScrubbed && content != kScrubbed) ++populated_;
    if (slot != kScrubbed && content == kScrubbed) --populated_;
    slot = content;
  }

  /// Destroys the frame's contents.
  void scrub(FrameNumber mfn) { write(mfn, kScrubbed); }

  /// Models loss of power / hardware reset: every frame's contents are
  /// destroyed. (Real DRAM decays when the machine resets; the BIOS memory
  /// check then overwrites it.)
  void power_cycle();

  /// Number of generations (power cycles) this memory has been through.
  [[nodiscard]] std::uint64_t power_cycles() const { return power_cycles_; }

  /// Count of frames whose content is not scrubbed (diagnostics).
  [[nodiscard]] std::int64_t populated_frames() const { return populated_; }

 private:
  void check_mfn(FrameNumber mfn) const {
    ensure(mfn >= 0 && mfn < frame_count_, "MachineMemory: MFN out of range");
  }

  std::vector<ContentToken> frames_;
  std::int64_t frame_count_ = 0;
  std::int64_t populated_ = 0;
  std::uint64_t power_cycles_ = 0;
};

}  // namespace rh::hw
