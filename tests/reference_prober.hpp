// The one-event-per-prober Prober, kept verbatim as the reference the
// grouped workload::Prober is checked against (tests/test_prober.cpp):
// every prober schedules its own calendar event each interval. Same
// public interface, so one scenario drives either.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"
#include "simcore/types.hpp"

namespace rh::test {

class ReferenceProber {
 public:
  struct Config {
    sim::Duration interval = 100 * sim::kMillisecond;
  };

  /// `up` is evaluated at each probe instant and must say whether the
  /// target service would answer.
  ReferenceProber(sim::Simulation& sim, Config config, std::function<bool()> up);
  ~ReferenceProber();
  ReferenceProber(const ReferenceProber&) = delete;
  ReferenceProber& operator=(const ReferenceProber&) = delete;

  void start();
  void stop();

  struct Transition {
    sim::SimTime time = 0;
    bool up = false;
  };

  /// Recorded state changes (the first probe always records one).
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  [[nodiscard]] bool currently_up() const { return last_up_; }
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_; }

  /// The first complete outage beginning at or after `from`:
  /// [went down, came back up). Empty if none completed yet.
  [[nodiscard]] std::optional<sim::Duration> outage_after(sim::SimTime from) const;

  /// When the service went down for the first outage at/after `from`.
  [[nodiscard]] std::optional<sim::SimTime> down_at_after(sim::SimTime from) const;

  /// Total down time within [from, to).
  [[nodiscard]] sim::Duration total_downtime(sim::SimTime from, sim::SimTime to) const;

 private:
  void probe();

  sim::Simulation& sim_;
  Config config_;
  std::function<bool()> up_;
  std::vector<Transition> transitions_;
  sim::EventId pending_ = sim::kInvalidEventId;
  bool running_ = false;
  bool last_up_ = false;
  bool first_probe_ = true;
  std::uint64_t probes_ = 0;
};

inline ReferenceProber::ReferenceProber(sim::Simulation& sim, Config config,
                                        std::function<bool()> up)
    : sim_(sim), config_(config), up_(std::move(up)) {
  ensure(static_cast<bool>(up_), "Prober: liveness callback required");
  ensure(config_.interval > 0, "Prober: interval must be positive");
}

inline ReferenceProber::~ReferenceProber() { stop(); }

inline void ReferenceProber::start() {
  ensure(!running_, "Prober::start: already running");
  running_ = true;
  first_probe_ = true;
  probe();
}

inline void ReferenceProber::stop() {
  running_ = false;
  if (pending_ != sim::kInvalidEventId) {
    sim_.cancel(pending_);
    pending_ = sim::kInvalidEventId;
  }
}

inline void ReferenceProber::probe() {
  pending_ = sim::kInvalidEventId;
  if (!running_) return;
  ++probes_;
  const bool up = up_();
  if (first_probe_ || up != last_up_) {
    transitions_.push_back({sim_.now(), up});
    first_probe_ = false;
  }
  last_up_ = up;
  pending_ = sim_.after(config_.interval, [this] { probe(); });
}

inline std::optional<sim::Duration> ReferenceProber::outage_after(
    sim::SimTime from) const {
  const auto down = down_at_after(from);
  if (!down) return std::nullopt;
  for (const auto& t : transitions_) {
    if (t.time > *down && t.up) return t.time - *down;
  }
  return std::nullopt;  // still down
}

inline std::optional<sim::SimTime> ReferenceProber::down_at_after(
    sim::SimTime from) const {
  for (const auto& t : transitions_) {
    if (t.time >= from && !t.up) return t.time;
  }
  return std::nullopt;
}

inline sim::Duration ReferenceProber::total_downtime(sim::SimTime from,
                                                     sim::SimTime to) const {
  ensure(to >= from, "Prober::total_downtime: bad window");
  sim::Duration down = 0;
  // Walk the transition list, tracking state over [from, to).
  bool up = true;
  sim::SimTime cursor = from;
  for (const auto& t : transitions_) {
    if (t.time <= from) {
      up = t.up;
      continue;
    }
    if (t.time >= to) break;
    if (!up) down += t.time - cursor;
    cursor = t.time;
    up = t.up;
  }
  if (!up) down += to - cursor;
  return down;
}

}  // namespace rh::test
