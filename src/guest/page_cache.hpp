// Guest page cache (file cache) backed by real simulated machine frames.
//
// The cache does not merely remember *that* a block is cached -- it
// remembers *where* (which guest pseudo-physical frame) and *what* (the
// content token written there). A lookup succeeds only if the backing
// frame still holds the expected token. This is what makes the paper's
// headline result emergent rather than scripted: a warm-VM reboot leaves
// the frames intact, so every lookup still hits; a cold reboot scrubs
// them, so the first access to every file misses (Fig. 8).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>

#include "hw/machine_memory.hpp"
#include "mm/p2m_table.hpp"
#include "simcore/types.hpp"

namespace rh::guest {

/// Identifies one cache block of one file.
struct FileBlock {
  std::int64_t file_id = 0;
  std::int64_t block = 0;

  bool operator==(const FileBlock&) const = default;
};

struct FileBlockHash {
  std::size_t operator()(const FileBlock& b) const {
    return std::hash<std::int64_t>{}(b.file_id * 1000003 + b.block);
  }
};

/// Read/write access to the guest's pseudo-physical memory; implemented by
/// GuestOs (which resolves the current VMM instance and domain id).
class GuestMemoryBacking {
 public:
  virtual ~GuestMemoryBacking() = default;
  virtual void mem_write(mm::Pfn pfn, hw::ContentToken token) = 0;
  [[nodiscard]] virtual hw::ContentToken mem_read(mm::Pfn pfn) const = 0;
};

/// LRU page cache over a fixed region of guest memory.
class PageCache {
 public:
  /// `region_start_pfn` .. start + capacity_blocks*pages_per_block is the
  /// guest memory region dedicated to the cache.
  PageCache(GuestMemoryBacking& backing, mm::Pfn region_start_pfn,
            std::int64_t capacity_blocks, std::int64_t pages_per_block);

  /// True if the block is cached *and* the backing frame still holds the
  /// expected content (i.e. the cached data survived whatever happened to
  /// machine memory in the meantime). A stale entry counts as a miss and
  /// is evicted.
  bool lookup(const FileBlock& key);

  /// Inserts a block (after a miss was served from disk), evicting the
  /// least-recently-used entry if full.
  void insert(const FileBlock& key);

  /// Drops every entry (e.g. on OS reboot the cache starts cold).
  void clear();

  [[nodiscard]] std::int64_t capacity_blocks() const { return capacity_; }
  [[nodiscard]] std::int64_t cached_blocks() const {
    return static_cast<std::int64_t>(map_.size());
  }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t stale_hits() const { return stale_; }

 private:
  struct Entry {
    FileBlock key;
    std::int64_t slot = 0;
    hw::ContentToken token = hw::kScrubbed;
  };
  using LruList = std::list<Entry>;

  [[nodiscard]] mm::Pfn slot_pfn(std::int64_t slot) const {
    return region_start_ + slot * pages_per_block_;
  }
  hw::ContentToken next_token() { return ++token_counter_ << 8 | 0x5a; }

  GuestMemoryBacking& backing_;
  mm::Pfn region_start_;
  std::int64_t capacity_;
  std::int64_t pages_per_block_;
  LruList lru_;  // front = most recent
  std::unordered_map<FileBlock, LruList::iterator, FileBlockHash> map_;
  // Free slots: recycled ones are reused first (last freed first), then
  // the never-used slots [next_fresh_slot_, capacity_) in ascending order.
  std::vector<std::int64_t> recycled_slots_;
  std::int64_t next_fresh_slot_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t token_counter_ = 0;
};

}  // namespace rh::guest
