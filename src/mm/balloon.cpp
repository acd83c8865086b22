#include "mm/balloon.hpp"

#include <algorithm>

namespace rh::mm {

std::int64_t BalloonDriver::inflate(std::int64_t frames) {
  // Highest populated PFNs first: trim the top run until the request is
  // met or nothing is populated.
  std::int64_t released = 0;
  while (released < frames && !p2m_.runs().empty()) {
    const auto& top = *std::prev(p2m_.runs().end());
    const std::int64_t take = std::min(frames - released, top.count);
    for (const auto& run : p2m_.remove(PfnRange{top.end() - take, take})) {
      ensure(allocator_.release_owned(domain_, run) == run.count,
             "BalloonDriver::inflate: a ballooned page is not the domain's");
    }
    released += take;
  }
  return released;
}

std::int64_t BalloonDriver::deflate(std::int64_t frames) {
  // Clamp to what the allocator can actually give before touching the
  // P2M table, then collect exactly that many target holes: the single
  // allocate() below can no longer fail, so the table is updated for
  // every allocated frame or not at all (the documented partial-success
  // guarantee -- no half-updated P2M, no OutOfMachineMemory escaping).
  const std::int64_t want = std::min(frames, allocator_.free_frames());
  const auto holes = p2m_.holes(want);
  std::int64_t count = 0;
  for (const auto& range : holes) count += range.count;
  p2m_.add(holes, allocator_.allocate(domain_, count));
  return count;
}

}  // namespace rh::mm
