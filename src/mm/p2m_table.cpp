#include "mm/p2m_table.hpp"

#include "simcore/check.hpp"

namespace rh::mm {

P2mTable::P2mTable(Pfn pfn_count) {
  ensure(pfn_count >= 0, "P2mTable: negative size");
  map_.assign(static_cast<std::size_t>(pfn_count), kNoFrame);
}

void P2mTable::grow(Pfn new_pfn_count) {
  ensure(new_pfn_count >= pfn_count(), "P2mTable::grow: cannot shrink");
  map_.resize(static_cast<std::size_t>(new_pfn_count), kNoFrame);
}

hw::FrameNumber P2mTable::remove(Pfn pfn) {
  check_pfn(pfn);
  const hw::FrameNumber mfn = map_[static_cast<std::size_t>(pfn)];
  ensure(mfn != kNoFrame, "P2mTable::remove: PFN is a hole");
  map_[static_cast<std::size_t>(pfn)] = kNoFrame;
  --populated_;
  return mfn;
}

std::vector<hw::FrameNumber> P2mTable::mapped_frames() const {
  std::vector<hw::FrameNumber> out;
  out.reserve(static_cast<std::size_t>(populated_));
  for (const auto mfn : map_) {
    if (mfn != kNoFrame) out.push_back(mfn);
  }
  return out;
}

Pfn P2mTable::first_populated_pfn() const {
  for (std::size_t i = 0; i < map_.size(); ++i) {
    if (map_[i] != kNoFrame) return static_cast<Pfn>(i);
  }
  return -1;
}

void P2mTable::serialize(ByteWriter& w) const {
  w.i64_vector(map_);
}

P2mTable P2mTable::deserialize(ByteReader& r) {
  P2mTable t;
  t.map_ = r.i64_vector();
  // One branch-free pass validates and counts: an entry is a hole
  // (kNoFrame) or a machine frame (>= 0); anything below kNoFrame is bad.
  bool bad = false;
  for (const auto mfn : t.map_) {
    bad |= mfn < kNoFrame;
    t.populated_ += mfn != kNoFrame;
  }
  ensure(!bad, "P2mTable::deserialize: bad MFN");
  return t;
}

}  // namespace rh::mm
