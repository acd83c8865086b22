#include "mm/preserved_registry.hpp"

#include <algorithm>

#include "mm/serde.hpp"
#include "simcore/check.hpp"

namespace rh::mm {

std::uint64_t payload_checksum(const std::vector<std::byte>& payload) {
  // FNV-1a over 64-bit little-endian words, then the tail bytes one at a
  // time. Each step (xor an input, multiply by the odd prime) is a
  // bijection of the state, so changing any one byte changes the sum.
  constexpr std::uint64_t kPrime = 1099511628211ULL;  // FNV prime
  std::uint64_t h = 1469598103934665603ULL;           // FNV offset basis
  const std::byte* p = payload.data();
  const std::byte* const words_end = p + payload.size() / 8 * 8;
  for (; p != words_end; p += 8) {
    h ^= load_le64(p);
    h *= kPrime;
  }
  for (const std::byte* const end = payload.data() + payload.size(); p != end;
       ++p) {
    h ^= static_cast<std::uint64_t>(*p);
    h *= kPrime;
  }
  return h;
}

std::int64_t PreservedRegion::frozen_frame_count() const {
  std::int64_t total = 0;
  for (const auto& run : frozen_frames) total += run.count;
  return total;
}

void PreservedRegionRegistry::put(PreservedRegion region) {
  ensure(!region.name.empty(), "PreservedRegionRegistry: region needs a name");
  ensure(regions_.find(region.name) == regions_.end(), [&] {
    return "PreservedRegionRegistry::put: duplicate region '" + region.name +
           "' (use replace() to overwrite deliberately)";
  });
  check_budget(region, /*replaced_frames=*/0);
  region.checksum = payload_checksum(region.payload);
  order_.push_back(region.name);
  regions_[region.name] = std::move(region);
}

void PreservedRegionRegistry::replace(PreservedRegion region) {
  ensure(!region.name.empty(), "PreservedRegionRegistry: region needs a name");
  const auto it = regions_.find(region.name);
  ensure(it != regions_.end(), [&] {
    return "PreservedRegionRegistry::replace: no region '" + region.name + "'";
  });
  check_budget(region, frames_of(it->second));
  region.checksum = payload_checksum(region.payload);
  it->second = std::move(region);
}

bool PreservedRegionRegistry::intact(const std::string& name) const {
  const auto it = regions_.find(name);
  ensure(it != regions_.end(), "PreservedRegionRegistry::intact: no such region");
  return payload_checksum(it->second.payload) == it->second.checksum;
}

void PreservedRegionRegistry::corrupt_payload(const std::string& name) {
  const auto it = regions_.find(name);
  ensure(it != regions_.end(),
         "PreservedRegionRegistry::corrupt_payload: no such region");
  auto& payload = it->second.payload;
  ensure(!payload.empty(), "PreservedRegionRegistry::corrupt_payload: empty payload");
  payload[payload.size() / 2] ^= std::byte{0x01};
}

const PreservedRegion* PreservedRegionRegistry::find(const std::string& name) const {
  const auto it = regions_.find(name);
  return it == regions_.end() ? nullptr : &it->second;
}

bool PreservedRegionRegistry::erase(const std::string& name) {
  const auto it = regions_.find(name);
  if (it == regions_.end()) return false;
  regions_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), name), order_.end());
  return true;
}

sim::Bytes PreservedRegionRegistry::payload_bytes() const {
  sim::Bytes total = 0;
  for (const auto& [name, r] : regions_) total += r.charged_size();
  return total;
}

std::int64_t PreservedRegionRegistry::frames_of(const PreservedRegion& region) {
  const auto payload_frames =
      (region.charged_size() + sim::kPageSize - 1) / sim::kPageSize;
  return region.frozen_frame_count() + payload_frames;
}

std::int64_t PreservedRegionRegistry::reserved_frames() const {
  std::int64_t total = 0;
  for (const auto& [name, r] : regions_) total += frames_of(r);
  return total;
}

void PreservedRegionRegistry::set_frame_budget(std::int64_t frames) {
  ensure(frames >= 0, "PreservedRegionRegistry: negative frame budget");
  frame_budget_ = frames;
}

void PreservedRegionRegistry::check_budget(const PreservedRegion& incoming,
                                           std::int64_t replaced_frames) const {
  if (frame_budget_ == 0) return;
  const std::int64_t after =
      reserved_frames() - replaced_frames + frames_of(incoming);
  if (after > frame_budget_) {
    throw PreservedBudgetExceeded(
        "PreservedRegionRegistry: region '" + incoming.name + "' needs " +
        std::to_string(frames_of(incoming)) + " frames; registry would hold " +
        std::to_string(after) + " of a " + std::to_string(frame_budget_) +
        "-frame budget");
  }
}

void PreservedRegionRegistry::clear() {
  regions_.clear();
  order_.clear();
  // frame_budget_ survives: it models the contract, not the contents.
}

}  // namespace rh::mm
