// Control-plane time-series store for scraped samples.
//
// The scraper ingests every parsed sample into a per-(instance, series)
// slot: a fixed-capacity ring window of (time, value) points plus a
// log-bucketed percentile sketch over the values, so the control plane
// can answer both "what is host 17's load right now" (wave ordering) and
// "what did its last N scrapes look like" (the flight recorder) without
// ever touching host-partition state. Memory is bounded by
// instances x series x window; a series that stops arriving costs
// nothing further. Staleness is per instance: a scrape timeout marks
// every series of that host stale until the next successful scrape
// refreshes them -- exactly Prometheus' staleness semantics, coarsened
// to the scrape unit we have.
//
// Everything here is plain deterministic data owned by the control
// partition; state_digest() folds it into the worker-count-invariance
// checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/histogram.hpp"
#include "simcore/types.hpp"

namespace rh::obs {

class TimeSeriesStore {
 public:
  /// Samples retained per series (the ring window).
  static constexpr std::size_t kWindow = 64;

  struct Sample {
    sim::SimTime time = 0;
    double value = 0.0;
  };

  explicit TimeSeriesStore(std::size_t instances) : instances_(instances) {}

  /// Appends one sample; creates the series on first sight. The sketch
  /// absorbs finite non-negative values (clamped into the histogram's
  /// Duration domain); the ring keeps the raw double either way.
  void ingest(std::size_t instance, std::string_view series, sim::SimTime t,
              double value);

  /// A scrape of `instance` failed: its series stop being trustworthy.
  void mark_stale(std::size_t instance, sim::SimTime t);
  /// A scrape of `instance` succeeded (called before its ingests).
  void mark_fresh(std::size_t instance);
  [[nodiscard]] bool stale(std::size_t instance) const {
    return instances_[instance].stale;
  }
  /// When the instance went stale (valid while stale() is true).
  [[nodiscard]] sim::SimTime stale_since(std::size_t instance) const {
    return instances_[instance].stale_since;
  }

  /// Latest sample of a series; nullopt for unknown series. Stale
  /// instances still answer (the last known value IS the signal the
  /// control plane acts on -- the staleness flag is the caveat).
  [[nodiscard]] std::optional<Sample> latest(std::size_t instance,
                                             std::string_view series) const;

  [[nodiscard]] std::uint64_t samples_ingested() const { return ingested_; }

  /// Oldest-to-newest iteration over one instance's series windows, in
  /// series registration order:
  /// fn(name, samples (oldest first), sketch).
  template <typename Fn>
  void for_each_series(std::size_t instance, Fn&& fn) const {
    const Instance& in = instances_[instance];
    std::vector<Sample> window;
    for (const Series& s : in.series) {
      window.clear();
      const std::size_t n = s.count;
      for (std::size_t i = 0; i < n; ++i) {
        window.push_back(s.ring[(s.head + kWindow - n + i) % kWindow]);
      }
      fn(std::string_view(s.name), window, s.sketch);
    }
  }

  /// Deterministic fold over every series' full state (names, windows,
  /// raw value bit patterns, staleness) for the digest-grid tests.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct Series {
    std::string name;
    std::vector<Sample> ring;  ///< capacity == kWindow
    std::size_t head = 0;      ///< next write position
    std::size_t count = 0;     ///< samples held (<= window)
    sim::LatencyHistogram sketch;
  };
  struct Instance {
    std::vector<Series> series;  ///< registration order
    std::unordered_map<std::string, std::size_t> index;
    bool stale = false;
    sim::SimTime stale_since = 0;
  };

  std::vector<Instance> instances_;
  std::uint64_t ingested_ = 0;
};

}  // namespace rh::obs
