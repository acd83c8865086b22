// Named metrics registry: counters, gauges, latency histograms and
// streaming summaries, mergeable across replications run on exp::run_grid
// worker threads.
//
// Registration (the name lookup) happens once per metric; after that the
// caller holds a stable reference and increments plain integers, so the
// hot path costs nothing beyond the arithmetic. merge() folds another
// registry in by name, and -- like PR 2's grid reduction -- is only
// reproducible if callers merge in a fixed order (the exp::Reducer merges
// in replication-index order), because Summary/histogram merges are
// floating-point-order sensitive.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/histogram.hpp"
#include "simcore/stats.hpp"

namespace rh::obs {

class MetricsRegistry {
 public:
  /// Monotonic event count. merge() adds.
  [[nodiscard]] std::uint64_t& counter(std::string_view name);
  /// Last-set value. merge() adds (for cross-replication totals; use a
  /// summary when the distribution matters).
  [[nodiscard]] double& gauge(std::string_view name);
  /// Latency distribution. merge() merges buckets.
  [[nodiscard]] sim::LatencyHistogram& histogram(std::string_view name);
  /// Streaming mean/variance. merge() is the Chan parallel update.
  [[nodiscard]] sim::Summary& summary(std::string_view name);

  /// Read-only lookup; returns 0 / an empty object for unknown names.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  template <typename T>
  struct Entry {
    std::string name;
    T value{};
  };

  [[nodiscard]] const std::vector<Entry<std::uint64_t>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::vector<Entry<double>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::vector<Entry<sim::LatencyHistogram>>& histograms()
      const {
    return histograms_;
  }
  [[nodiscard]] const std::vector<Entry<sim::Summary>>& summaries() const {
    return summaries_;
  }

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           summaries_.empty();
  }

  /// Folds `other` in by name; names new to this registry are appended in
  /// `other`'s registration order. Deterministic given a fixed merge order
  /// (see file comment).
  void merge(const MetricsRegistry& other);

 private:
  enum class Type : std::uint8_t { kCounter, kGauge, kHistogram, kSummary };
  struct Slot {
    Type type;
    std::size_t index;
  };

  /// Finds or creates the slot for (name, type); throws on a type clash.
  Slot& slot(std::string_view name, Type type);

  std::vector<Entry<std::uint64_t>> counters_;
  std::vector<Entry<double>> gauges_;
  std::vector<Entry<sim::LatencyHistogram>> histograms_;
  std::vector<Entry<sim::Summary>> summaries_;
  std::unordered_map<std::string, Slot> index_;
};

}  // namespace rh::obs
