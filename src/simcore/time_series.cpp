#include "simcore/time_series.hpp"

#include <algorithm>

#include "simcore/check.hpp"

namespace rh::sim {

namespace {

// Comparator for binary searches over time-ordered samples.
bool sample_before(const Sample& s, SimTime t) { return s.time < t; }

}  // namespace

void RateRecorder::record(SimTime t, double count) {
  ensure(events_.empty() || events_.back().time <= t,
         "RateRecorder::record: events must be recorded in time order");
  events_.push_back({t, count});
  total_ += count;
}

double RateRecorder::rate_between(SimTime from, SimTime to) const {
  ensure(to > from, "RateRecorder::rate_between: empty window");
  const auto lo = std::lower_bound(events_.begin(), events_.end(), from, sample_before);
  const auto hi = std::lower_bound(events_.begin(), events_.end(), to, sample_before);
  double sum = 0.0;
  for (auto it = lo; it != hi; ++it) sum += it->value;
  return sum / to_seconds(to - from);
}

std::vector<Sample> RateRecorder::rate_series(SimTime start, SimTime end,
                                              Duration bin_width) const {
  ensure(bin_width > 0, "RateRecorder::rate_series: bin_width must be positive");
  std::vector<Sample> out;
  for (SimTime t = start; t < end; t += bin_width) {
    out.push_back({t, rate_between(t, t + bin_width)});
  }
  return out;
}

std::optional<SimTime> RateRecorder::first_event_at_or_after(SimTime from) const {
  const auto it = std::lower_bound(events_.begin(), events_.end(), from, sample_before);
  if (it == events_.end()) return std::nullopt;
  return it->time;
}

std::optional<SimTime> RateRecorder::last_event_before(SimTime before) const {
  const auto it = std::lower_bound(events_.begin(), events_.end(), before, sample_before);
  if (it == events_.begin()) return std::nullopt;
  return std::prev(it)->time;
}

}  // namespace rh::sim
