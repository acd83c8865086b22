// Order-dependent 64-bit hash combining for run digests.
#pragma once

#include <cstdint>

namespace rh::sim {

/// Folds `v` into the running digest `h` (boost's hash_combine step,
/// widened to 64 bits). Order matters, so two digests agree only when
/// their values were mixed in the same order.
inline void hash_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

}  // namespace rh::sim
