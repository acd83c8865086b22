#include "vmm/vmm_heap.hpp"

#include "simcore/check.hpp"

namespace rh::vmm {

VmmHeap::VmmHeap(sim::Bytes capacity) : capacity_(capacity) {
  ensure(capacity > 0, "VmmHeap: capacity must be positive");
}

void VmmHeap::allocate(const std::string& tag, sim::Bytes size) {
  ensure(size >= 0, "VmmHeap::allocate: negative size");
  if (size > available()) {
    throw VmmHeapExhausted("VMM heap exhausted: need " + std::to_string(size) +
                           " bytes, " + std::to_string(available()) +
                           " available (leaked: " + std::to_string(leaked_) + ")");
  }
  used_ += size;
  tags_[tag] += size;
}

void VmmHeap::free(const std::string& tag, sim::Bytes size) {
  ensure(size >= 0, "VmmHeap::free: negative size");
  const auto it = tags_.find(tag);
  ensure(it != tags_.end() && it->second >= size, [&] {
    return "VmmHeap::free: freeing more than allocated under tag '" + tag +
           "'";
  });
  it->second -= size;
  if (it->second == 0) tags_.erase(it);
  used_ -= size;
}

void VmmHeap::leak(sim::Bytes size) {
  ensure(size >= 0, "VmmHeap::leak: negative size");
  // A leak can at most consume what is currently available; beyond that
  // the allocator has already failed.
  if (size > available()) size = available();
  leaked_ += size;
}

sim::Bytes VmmHeap::allocated_under(const std::string& tag) const {
  const auto it = tags_.find(tag);
  return it == tags_.end() ? 0 : it->second;
}

}  // namespace rh::vmm
