// Frame-granular model of the machine's physical RAM.
//
// Each 4 KiB machine frame carries a 64-bit *content token*: an opaque
// stand-in for the frame's real contents. A token of zero means "scrubbed"
// (the frame holds no meaningful data). Content tokens are how the
// simulation *proves* the paper's central property: a warm-VM reboot must
// leave the tokens of every frozen frame intact, while a hardware reset
// (power cycle) destroys all of them.
//
// Almost every frame is scrubbed: domain construction scrubs what it
// hands out, and only page-cache slots and suspend signatures carry
// tokens. So the memory stores an ordered map of the frames that are not
// scrubbed, and a frame absent from it reads as kScrubbed. Scrubbing a
// run erases a key range, so its cost follows the tokens it destroys,
// not the frames it covers.
#pragma once

#include <cstdint>
#include <map>

#include "simcore/check.hpp"
#include "simcore/types.hpp"

namespace rh::hw {

/// Machine frame number, numbered consecutively from 0 (as in Xen).
using FrameNumber = std::int64_t;

/// Opaque stand-in for a frame's contents; 0 == scrubbed/empty.
using ContentToken = std::uint64_t;

inline constexpr ContentToken kScrubbed = 0;

/// `count` consecutive machine frames starting at `first`.
struct FrameRun {
  FrameNumber first = 0;
  std::int64_t count = 0;

  [[nodiscard]] FrameNumber end() const { return first + count; }
};

/// The machine's physical memory: the content tokens of its frames.
class MachineMemory {
 public:
  /// Creates memory of the given size (rounded down to whole frames).
  /// All frames start scrubbed.
  explicit MachineMemory(sim::Bytes total_size);

  [[nodiscard]] sim::Bytes size() const { return frame_count_ * sim::kPageSize; }
  [[nodiscard]] std::int64_t frame_count() const { return frame_count_; }

  [[nodiscard]] ContentToken read(FrameNumber mfn) const {
    check_mfn(mfn);
    const auto it = tokens_.find(mfn);
    return it == tokens_.end() ? kScrubbed : it->second;
  }

  /// Writing kScrubbed erases the frame's token.
  void write(FrameNumber mfn, ContentToken content);

  /// Destroys the frame's contents.
  void scrub(FrameNumber mfn) { write(mfn, kScrubbed); }

  /// Destroys the contents of every frame in `run`.
  void scrub(FrameRun run);

  /// Calls fn(mfn, token) for every frame in `run` that is not scrubbed,
  /// in ascending MFN order.
  template <typename Fn>
  void for_each_token(FrameRun run, Fn&& fn) const {
    check_run(run);
    for (auto it = tokens_.lower_bound(run.first);
         it != tokens_.end() && it->first < run.end(); ++it) {
      fn(it->first, it->second);
    }
  }

  /// Models loss of power / hardware reset: every frame's contents are
  /// destroyed. (Real DRAM decays when the machine resets; the BIOS memory
  /// check then overwrites it.)
  void power_cycle();

  /// Number of generations (power cycles) this memory has been through.
  [[nodiscard]] std::uint64_t power_cycles() const { return power_cycles_; }

  /// Count of frames whose content is not scrubbed (diagnostics).
  [[nodiscard]] std::int64_t populated_frames() const {
    return static_cast<std::int64_t>(tokens_.size());
  }

 private:
  void check_mfn(FrameNumber mfn) const {
    ensure(mfn >= 0 && mfn < frame_count_, "MachineMemory: MFN out of range");
  }
  void check_run(FrameRun run) const {
    ensure(run.first >= 0 && run.count >= 0 &&
               run.count <= frame_count_ - run.first,
           "MachineMemory: frame run out of range");
  }

  std::map<FrameNumber, ContentToken> tokens_;  // non-scrubbed frames only
  std::int64_t frame_count_ = 0;
  std::uint64_t power_cycles_ = 0;
};

}  // namespace rh::hw
