// Service-liveness prober: measures downtime the way the paper does.
//
// "We measured the time from when a networked service in each VM was down
// and until it was up again after the VMM was rebooted" (Sec. 5.3). The
// prober sends a probe every `interval` from the client host and records
// up/down transitions; downtime is the width of the down window.
//
// Probers whose ticks would fire back to back share one calendar event (a
// Group), which probes them in start order and reschedules once. A prober
// started on the same Simulation with the same interval joins the group
// whose tick is the last event scheduled there and is due at
// now + interval: with nothing scheduled between their ticks, one
// event per prober would have fired them consecutively at every later
// tick too, because a probe only reads state and reschedules itself. A
// probe callback that does schedule an event splits itself and the
// members after it off into a group scheduled behind that event, where
// their own ticks would have gone. So every transition is the one a
// prober per event records; only executed-event counts fall.
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

  /// `up` is evaluated at each probe instant and must say whether the
  /// target service would answer. It may schedule events, but must not
  /// stop the Simulation while a later member of its group waits to probe
  /// at the same tick (checked).
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

  void probe();
  static void schedule(const std::shared_ptr<Group>& g);
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
  std::shared_ptr<Group> group_;  // null while stopped
  bool running_ = false;
  bool last_up_ = false;
  bool first_probe_ = true;
  std::uint64_t probes_ = 0;
};

}  // namespace rh::workload
