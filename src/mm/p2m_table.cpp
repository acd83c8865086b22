#include "mm/p2m_table.hpp"

#include <algorithm>
#include <limits>

#include "simcore/check.hpp"

namespace rh::mm {

P2mTable::P2mTable(Pfn pfn_count) : pfn_count_(pfn_count) {
  ensure(pfn_count >= 0, "P2mTable: negative size");
}

void P2mTable::grow(Pfn new_pfn_count) {
  ensure(new_pfn_count >= pfn_count_, "P2mTable::grow: cannot shrink");
  pfn_count_ = new_pfn_count;
}

void P2mTable::add(Pfn first_pfn, hw::FrameRun frames) {
  ensure(frames.count >= 0 && first_pfn >= 0 &&
             frames.count <= pfn_count_ - first_pfn,
         "P2mTable: PFN out of range");
  ensure(frames.first >= 0, "P2mTable::add: invalid MFN");
  if (frames.count == 0) return;
  const auto it = runs_.from(first_pfn);
  ensure(it == runs_.end() || it->first >= first_pfn + frames.count,
         "P2mTable::add: PFN already mapped");
  runs_.assign(first_pfn, frames.count, frames.first);
  populated_ += frames.count;
}

void P2mTable::add(std::span<const PfnRange> pfns,
                   std::span<const hw::FrameRun> frames) {
  std::size_t f = 0;
  std::int64_t used = 0;  // frames of frames[f] already mapped
  for (const auto& range : pfns) {
    Pfn pfn = range.first;
    while (pfn < range.end()) {
      ensure(f < frames.size(), "P2mTable::add: fewer frames than PFNs");
      const std::int64_t take =
          std::min(range.end() - pfn, frames[f].count - used);
      add(pfn, hw::FrameRun{frames[f].first + used, take});
      pfn += take;
      used += take;
      if (used == frames[f].count) {
        ++f;
        used = 0;
      }
    }
  }
  ensure(f == frames.size() && used == 0,
         "P2mTable::add: more frames than PFNs");
}

hw::FrameNumber P2mTable::remove(Pfn pfn) {
  const hw::FrameNumber mfn = mfn_of(pfn);
  ensure(mfn != kNoFrame, "P2mTable::remove: PFN is a hole");
  runs_.erase(pfn, 1);
  --populated_;
  return mfn;
}

std::vector<hw::FrameRun> P2mTable::remove(PfnRange pfns) {
  ensure(pfns.count >= 0 && pfns.first >= 0 &&
             pfns.count <= pfn_count_ - pfns.first,
         "P2mTable: PFN out of range");
  std::vector<hw::FrameRun> out;
  if (pfns.count == 0) return out;
  Pfn next = pfns.first;
  for (auto it = runs_.from(pfns.first);
       it != runs_.end() && it->first < pfns.end(); ++it) {
    ensure(it->first <= next, "P2mTable::remove: PFN is a hole");
    const Pfn last = std::min(it->end(), pfns.end());
    out.push_back({it->at(next), last - next});
    next = last;
  }
  ensure(next == pfns.end(), "P2mTable::remove: PFN is a hole");
  runs_.erase(pfns.first, pfns.count);
  populated_ -= pfns.count;
  return out;
}

std::vector<hw::FrameNumber> P2mTable::mapped_frames() const {
  std::vector<hw::FrameNumber> out;
  out.reserve(static_cast<std::size_t>(populated_));
  for (const auto& run : runs_) {
    for (std::int64_t i = 0; i < run.count; ++i) out.push_back(run.value + i);
  }
  return out;
}

std::vector<hw::FrameRun> P2mTable::frame_runs() const {
  std::vector<hw::FrameRun> out;
  out.reserve(runs_.size());
  for (const auto& run : runs_) out.push_back({run.value, run.count});
  return out;
}

std::vector<PfnRange> P2mTable::populated_ranges() const {
  std::vector<PfnRange> out;
  for (const auto& run : runs_) {
    if (!out.empty() && out.back().end() == run.first) {
      out.back().count += run.count;
    } else {
      out.push_back({run.first, run.count});
    }
  }
  return out;
}

std::vector<PfnRange> P2mTable::holes(std::int64_t limit) const {
  std::vector<PfnRange> out;
  Pfn at = 0;
  auto it = runs_.begin();
  while (limit > 0 && at < pfn_count_) {
    const Pfn hole_end = it == runs_.end() ? pfn_count_ : it->first;
    if (hole_end > at) {
      const std::int64_t take = std::min(limit, hole_end - at);
      out.push_back({at, take});
      limit -= take;
    }
    if (it == runs_.end()) break;
    at = it->end();
    ++it;
  }
  return out;
}

Pfn P2mTable::first_populated_pfn() const {
  return runs_.empty() ? -1 : runs_.begin()->first;
}

void P2mTable::serialize(ByteWriter& w) const {
  w.i64(pfn_count_);
  w.u64(runs_.size());
  for (const auto& run : runs_) {
    w.i64(run.first);
    w.i64(run.value);
    w.i64(run.count);
  }
}

P2mTable P2mTable::deserialize(ByteReader& r) {
  P2mTable t;
  t.pfn_count_ = r.i64();
  ensure(t.pfn_count_ >= 0, "P2mTable::deserialize: negative PFN count");
  const std::uint64_t runs = r.count(3 * 8);
  Pfn next = 0;  // runs must ascend without overlapping
  for (std::uint64_t i = 0; i < runs; ++i) {
    const Pfn first = r.i64();
    const hw::FrameNumber mfn = r.i64();
    const std::int64_t count = r.i64();
    ensure(count > 0, "P2mTable::deserialize: empty run");
    ensure(first >= next, "P2mTable::deserialize: runs overlap or out of order");
    ensure(count <= t.pfn_count_ - first,
           "P2mTable::deserialize: run past the PFN count");
    ensure(mfn >= 0 && mfn <= std::numeric_limits<hw::FrameNumber>::max() - count,
           "P2mTable::deserialize: bad MFN");
    t.runs_.assign(first, count, mfn);
    t.populated_ += count;
    next = first + count;
  }
  return t;
}

}  // namespace rh::mm
