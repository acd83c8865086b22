// Xen-style (disk-backed) domain save/restore -- the paper's baseline.
//
// "xm save" suspends a domain and writes its whole memory image to a file;
// "xm restore" reads it back and rebuilds the domain. These are the slow,
// memory-size-proportional operations the on-memory mechanism replaces.
// The ImageStore models save files: it lives on disk, so it survives
// power cycles (unlike the preserved-region registry).
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hw/machine_memory.hpp"
#include "mm/p2m_table.hpp"
#include "simcore/types.hpp"
#include "vmm/domain.hpp"

namespace rh::vmm {

/// A domain memory image saved to disk.
struct SavedImage {
  std::string domain_name;
  sim::Bytes memory_size = 0;
  mm::Pfn pfn_count = 0;
  ExecState exec;
  EventChannelTable event_channels;
  /// The populated PFNs, as ascending ranges.
  std::vector<mm::PfnRange> populated;
  /// The populated pages that are not scrubbed: (pfn, content token) in
  /// PFN order. Every other populated page holds kScrubbed.
  std::vector<std::pair<mm::Pfn, hw::ContentToken>> tokens;

  [[nodiscard]] sim::Bytes image_bytes() const { return memory_size; }
  /// Number of populated pages.
  [[nodiscard]] std::int64_t populated_pages() const;
};

/// The disk's collection of save files, keyed by domain name.
class ImageStore {
 public:
  void put(SavedImage image);
  [[nodiscard]] const SavedImage* find(const std::string& name) const;
  bool erase(const std::string& name);
  [[nodiscard]] std::size_t size() const { return images_.size(); }
  [[nodiscard]] bool empty() const { return images_.empty(); }

 private:
  std::unordered_map<std::string, SavedImage> images_;
};

}  // namespace rh::vmm
