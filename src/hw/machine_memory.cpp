#include "hw/machine_memory.hpp"

#include <algorithm>

#include "simcore/check.hpp"

namespace rh::hw {

MachineMemory::MachineMemory(sim::Bytes total_size) {
  ensure(total_size >= sim::kPageSize, "MachineMemory: size below one frame");
  frame_count_ = total_size / sim::kPageSize;
  frames_.assign(static_cast<std::size_t>(frame_count_), kScrubbed);
}

void MachineMemory::power_cycle() {
  std::fill(frames_.begin(), frames_.end(), kScrubbed);
  populated_ = 0;
  ++power_cycles_;
}

}  // namespace rh::hw
