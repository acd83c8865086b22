// Service-liveness prober: measures downtime the way the paper does.
//
// "We measured the time from when a networked service in each VM was down
// and until it was up again after the VMM was rebooted" (Sec. 5.3). The
// prober sends a probe every `interval` from the client host and records
// up/down transitions; downtime is the width of the down window.
//
// A probe is a pure read of state that only events change. Probers whose
// ticks would fire back to back share one calendar event (a Group), which
// probes them in start order and then schedules itself once: at the first
// tick at or after the earlier of the calendar's next event and the run's
// horizon (Simulation::run_horizon()), since a tick before both would read
// the answers just recorded. The skipped ticks count as sent probes. A prober
// started on the same Simulation with the same interval joins the group
// whose tick is the last event scheduled there and is due at
// now + interval: one event per prober would have fired them consecutively
// at every later tick too. So every transition and probes_sent() is the
// one a prober per event per interval records; only executed-event counts
// fall.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "simcore/simulation.hpp"
#include "simcore/types.hpp"

namespace rh::workload {

class Prober {
 public:
  struct Config {
    sim::Duration interval = 100 * sim::kMillisecond;
  };

  /// `up` is evaluated at probe instants and must say whether the target
  /// service would answer. It must be a pure read: it may not schedule or
  /// cancel events, start or stop a prober, or stop the Simulation
  /// (checked: the probe throws InvariantViolation).
  Prober(sim::Simulation& sim, Config config, std::function<bool()> up);
  ~Prober();
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

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
  struct Group;

  void probe(std::uint64_t ticks);  // one read, counted as `ticks` probes
  static void schedule(const std::shared_ptr<Group>& g, sim::Duration delay);
  static void tick(Group& g);

  /// The group this thread scheduled most recently, the only one a
  /// starting prober tries to join; a group it misses costs only the
  /// sharing, as the prober then starts its own. Beyond its Simulation
  /// and interval, which never change, a group found here is read only
  /// when it is on the caller's Simulation, which no other thread drives
  /// meanwhile.
  static thread_local std::weak_ptr<Group> last_scheduled_group_;

  sim::Simulation& sim_;
  Config config_;
  std::function<bool()> up_;
  std::vector<Transition> transitions_;
  std::shared_ptr<Group> group_;  // null while stopped; members own it
  bool running_ = false;
  bool last_up_ = false;
  bool first_probe_ = true;
  std::uint64_t probes_ = 0;
};

}  // namespace rh::workload
