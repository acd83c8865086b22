#include "guest/page_cache.hpp"

#include "simcore/check.hpp"

namespace rh::guest {

PageCache::PageCache(GuestMemoryBacking& backing, mm::Pfn region_start_pfn,
                     std::int64_t capacity_blocks, std::int64_t pages_per_block)
    : backing_(backing),
      region_start_(region_start_pfn),
      capacity_(capacity_blocks),
      pages_per_block_(pages_per_block) {
  ensure(capacity_blocks > 0, "PageCache: capacity must be positive");
  ensure(pages_per_block > 0, "PageCache: pages_per_block must be positive");
}

bool PageCache::lookup(const FileBlock& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  // Verify the backing frame still holds what we cached. If machine memory
  // was scrubbed (hardware reset) or reassigned, this is a miss.
  const Entry& e = *it->second;
  if (backing_.mem_read(slot_pfn(e.slot)) != e.token) {
    ++stale_;
    ++misses_;
    recycled_slots_.push_back(e.slot);
    lru_.erase(it->second);
    map_.erase(it);
    return false;
  }
  ++hits_;
  // Move to MRU position.
  lru_.splice(lru_.begin(), lru_, it->second);
  return true;
}

void PageCache::insert(const FileBlock& key) {
  if (map_.count(key) > 0) return;  // raced in by a concurrent read
  std::int64_t slot = 0;
  if (!recycled_slots_.empty()) {
    slot = recycled_slots_.back();
    recycled_slots_.pop_back();
  } else if (next_fresh_slot_ < capacity_) {
    slot = next_fresh_slot_++;
  } else {
    // Evict LRU.
    const Entry victim = lru_.back();
    map_.erase(victim.key);
    lru_.pop_back();
    slot = victim.slot;
  }
  Entry e{key, slot, next_token()};
  backing_.mem_write(slot_pfn(slot), e.token);
  lru_.push_front(e);
  map_[key] = lru_.begin();
}

void PageCache::clear() {
  for (const auto& e : lru_) recycled_slots_.push_back(e.slot);
  lru_.clear();
  map_.clear();
}

}  // namespace rh::guest
