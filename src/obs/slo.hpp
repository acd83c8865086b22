// SLO evaluation over scrape outcomes: burn-rate admission gating and
// dark-host detection.
//
// The only availability signal a production control plane really has is
// whether targets answer their scrapes. This evaluator consumes exactly
// that: per-round (ok, miss) outcomes. Two rules come out of it:
//
//  - a *burn rate* over the trailing 8 rounds -- the observed scrape
//    error rate divided by the SLO's error budget (1 - 0.99 target).
//    Burn >= pause_burn_rate means the fleet is eating budget too fast
//    for planned maintenance to continue, so wave admission pauses until
//    the window cools down (the ReHype/Kourai motivation: react to what
//    the telemetry shows, not to an omniscient callback);
//  - a per-host *dark* flag after 3 consecutive missed scrapes -- the
//    scrape-visible proxy for "this VMM hung/crashed", which fires from
//    telemetry alone, before (or without) any watchdog notification.
//
// Pure deterministic control-partition state; state_digest() joins the
// worker-count-invariance checks.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/types.hpp"

namespace rh::obs {

struct SloConfig {
  /// Pause wave admission when burn rate reaches this multiple of the
  /// error budget.
  double pause_burn_rate = 2.0;
};

class SloEvaluator {
 public:
  SloEvaluator(std::size_t instances, SloConfig config);

  /// Records one scrape outcome for `instance` in the current round.
  /// Returns true exactly when this outcome flipped the host dark (the
  /// third consecutive miss).
  bool record(std::size_t instance, bool ok);

  /// Closes the current round's (ok, miss) bucket into the window.
  void end_round();

  /// Burn rate over the completed rounds in the window (0 when none).
  [[nodiscard]] double burn_rate() const;
  /// True when the burn rate has reached the pause threshold.
  [[nodiscard]] bool admission_paused() const {
    return completed_rounds_ > 0 && burn_rate() >= config_.pause_burn_rate;
  }

  [[nodiscard]] bool dark(std::size_t instance) const {
    return dark_[instance] != 0;
  }
  [[nodiscard]] std::size_t dark_hosts() const;
  [[nodiscard]] int consecutive_misses(std::size_t instance) const {
    return misses_[instance];
  }
  [[nodiscard]] std::uint64_t rounds_completed() const {
    return completed_rounds_;
  }

  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct Round {
    std::uint64_t ok = 0;
    std::uint64_t miss = 0;
  };

  SloConfig config_;
  std::vector<int> misses_;         ///< consecutive misses per instance
  std::vector<std::uint8_t> dark_;  ///< currently dark
  std::vector<Round> window_;       ///< ring of completed rounds
  std::size_t window_head_ = 0;
  std::size_t window_filled_ = 0;
  Round current_;
  std::uint64_t completed_rounds_ = 0;
  std::uint64_t dark_transitions_ = 0;
};

}  // namespace rh::obs
