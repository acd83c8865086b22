// Event-rate recording.
//
// Figures 7-9 of the paper are time series (throughput over time around a
// reboot). RateRecorder collects raw event points during a simulation and
// bins them for reporting.
#pragma once

#include <optional>
#include <vector>

#include "simcore/types.hpp"

namespace rh::sim {

/// One (time, value) sample.
struct Sample {
  SimTime time = 0;
  double value = 0.0;
};

/// Counts discrete events (e.g. completed HTTP requests) and reports rates.
class RateRecorder {
 public:
  /// Records `count` events at time t.
  void record(SimTime t, double count = 1.0);

  [[nodiscard]] double total() const { return total_; }

  /// Events per second within [from, to).
  [[nodiscard]] double rate_between(SimTime from, SimTime to) const;

  /// Rate series over [start, end) with the given bin width; each sample's
  /// time is the bin start and value is events/second within the bin.
  [[nodiscard]] std::vector<Sample> rate_series(SimTime start, SimTime end,
                                                Duration bin_width) const;

  /// Time of the first recorded event at or after `from`, if any.
  [[nodiscard]] std::optional<SimTime> first_event_at_or_after(SimTime from) const;

  /// Time of the last recorded event strictly before `before`, if any.
  [[nodiscard]] std::optional<SimTime> last_event_before(SimTime before) const;

 private:
  std::vector<Sample> events_;
  double total_ = 0.0;
};

}  // namespace rh::sim
