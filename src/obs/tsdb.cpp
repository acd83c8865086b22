#include "obs/tsdb.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "simcore/check.hpp"
#include "simcore/hash.hpp"

namespace rh::obs {

void TimeSeriesStore::ingest(std::size_t instance, std::string_view series,
                             sim::SimTime t, double value) {
  ensure(instance < instances_.size(), "TimeSeriesStore: bad instance");
  Instance& in = instances_[instance];
  auto it = in.index.find(std::string(series));
  if (it == in.index.end()) {
    it = in.index.emplace(std::string(series), in.series.size()).first;
    Series s;
    s.name = series;
    s.ring.resize(kWindow);
    in.series.push_back(std::move(s));
  }
  Series& s = in.series[it->second];
  s.ring[s.head] = {t, value};
  s.head = (s.head + 1) % kWindow;
  s.count = std::min(s.count + 1, kWindow);
  if (std::isfinite(value) && value >= 0.0) {
    // The sketch lives in the histogram's integer Duration domain; clamp
    // instead of overflowing on huge gauges.
    constexpr double kMax = 9.0e18;
    s.sketch.add(static_cast<sim::Duration>(std::min(value, kMax)));
  }
  ++ingested_;
}

void TimeSeriesStore::mark_stale(std::size_t instance, sim::SimTime t) {
  ensure(instance < instances_.size(), "TimeSeriesStore: bad instance");
  Instance& in = instances_[instance];
  if (!in.stale) {
    in.stale = true;
    in.stale_since = t;
  }
}

void TimeSeriesStore::mark_fresh(std::size_t instance) {
  ensure(instance < instances_.size(), "TimeSeriesStore: bad instance");
  instances_[instance].stale = false;
  instances_[instance].stale_since = 0;
}

std::optional<TimeSeriesStore::Sample> TimeSeriesStore::latest(
    std::size_t instance, std::string_view series) const {
  ensure(instance < instances_.size(), "TimeSeriesStore: bad instance");
  const Instance& in = instances_[instance];
  const auto it = in.index.find(std::string(series));
  if (it == in.index.end()) return std::nullopt;
  const Series& s = in.series[it->second];
  if (s.count == 0) return std::nullopt;
  return s.ring[(s.head + kWindow - 1) % kWindow];
}

std::uint64_t TimeSeriesStore::state_digest() const {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { sim::hash_mix(h, v); };
  for (const Instance& in : instances_) {
    mix(in.stale ? 1 : 0);
    mix(static_cast<std::uint64_t>(in.stale_since));
    mix(in.series.size());
    for (const Series& s : in.series) {
      std::uint64_t name_hash = 1469598103934665603ull;  // FNV-1a
      for (const char c : s.name) {
        name_hash = (name_hash ^ static_cast<unsigned char>(c)) *
                    1099511628211ull;
      }
      mix(name_hash);
      mix(s.count);
      const std::size_t n = s.count;
      for (std::size_t i = 0; i < n; ++i) {
        const Sample& sample =
            s.ring[(s.head + kWindow - n + i) % kWindow];
        mix(static_cast<std::uint64_t>(sample.time));
        mix(std::bit_cast<std::uint64_t>(sample.value));
      }
      mix(s.sketch.count());
    }
  }
  mix(ingested_);
  return h;
}

}  // namespace rh::obs
