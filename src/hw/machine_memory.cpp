#include "hw/machine_memory.hpp"

#include "simcore/check.hpp"

namespace rh::hw {

MachineMemory::MachineMemory(sim::Bytes total_size) {
  ensure(total_size >= sim::kPageSize, "MachineMemory: size below one frame");
  frame_count_ = total_size / sim::kPageSize;
}

void MachineMemory::write(FrameNumber mfn, ContentToken content) {
  check_mfn(mfn);
  if (content == kScrubbed) {
    tokens_.erase(mfn);
  } else {
    tokens_.insert_or_assign(mfn, content);
  }
}

void MachineMemory::scrub(FrameRun run) {
  check_run(run);
  tokens_.erase(tokens_.lower_bound(run.first), tokens_.lower_bound(run.end()));
}

void MachineMemory::power_cycle() {
  tokens_.clear();
  ++power_cycles_;
}

}  // namespace rh::hw
