#include "workload/prober.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "simcore/check.hpp"

namespace rh::workload {

/// Probers ticking on one calendar event, in the order their own events
/// would have fired.
struct Prober::Group {
  Group(sim::Simulation& s, sim::Duration i) : sim(s), interval(i) {}

  sim::Simulation& sim;
  const sim::Duration interval;
  std::vector<Prober*> members;
  sim::EventId pending = sim::kInvalidEventId;
  sim::SimTime due = 0;
};

thread_local std::weak_ptr<Prober::Group> Prober::last_scheduled_group_;

namespace {

/// True while this thread runs probe callbacks.
thread_local bool tl_probing = false;

/// Runs `probe_all` and checks that its callbacks were pure reads: start()
/// and stop() refuse to run meanwhile, and afterwards `sim` must have
/// nothing scheduled or cancelled and must not have been stopped.
template <class Fn>
void probe_purely(const sim::Simulation& sim, const Fn& probe_all) {
  const sim::EventId last = sim.last_scheduled();
  const std::size_t pending = sim.pending_events();
  const bool stopped = sim.stopped();
  struct Flag {
    Flag() { tl_probing = true; }
    ~Flag() { tl_probing = false; }
  } flag;
  probe_all();
  ensure(sim.last_scheduled() == last && sim.pending_events() == pending &&
             sim.stopped() == stopped,
         "Prober: a probe callback scheduled or cancelled an event or "
         "stopped the Simulation; a probe must be a pure read");
}

}  // namespace

Prober::Prober(sim::Simulation& sim, Config config, std::function<bool()> up)
    : sim_(sim), config_(config), up_(std::move(up)) {
  ensure(static_cast<bool>(up_), "Prober: liveness callback required");
  ensure(config_.interval > 0, "Prober: interval must be positive");
}

Prober::~Prober() { stop(); }

void Prober::start() {
  ensure(!tl_probing, "Prober::start: called from a probe callback");
  ensure(!running_, "Prober::start: already running");
  running_ = true;
  first_probe_ = true;
  probe_purely(sim_, [this] { probe(1); });
  // Join the group whose tick this prober's own would directly follow:
  // due at the same instant, with nothing scheduled since.
  auto g = last_scheduled_group_.lock();
  if (g && &g->sim == &sim_ && g->interval == config_.interval &&
      g->pending == sim_.last_scheduled() &&
      g->due == sim_.now() + config_.interval) {
    g->members.push_back(this);
    group_ = std::move(g);
    return;
  }
  group_ = std::make_shared<Group>(sim_, config_.interval);
  group_->members.push_back(this);
  schedule(group_, config_.interval);
}

void Prober::stop() {
  ensure(!tl_probing, "Prober::stop: called from a probe callback");
  running_ = false;
  if (!group_) return;
  auto& members = group_->members;
  members.erase(std::find(members.begin(), members.end(), this));
  if (members.empty()) group_->sim.cancel(group_->pending);
  group_.reset();
}

void Prober::probe(std::uint64_t ticks) {
  probes_ += ticks;
  const bool up = up_();
  if (first_probe_ || up != last_up_) {
    transitions_.push_back({sim_.now(), up});
    first_probe_ = false;
  }
  last_up_ = up;
}

void Prober::schedule(const std::shared_ptr<Group>& g, sim::Duration delay) {
  g->due = g->sim.now() + delay;
  g->pending = g->sim.at(g->due, [g = g.get()] { tick(*g); });
  // Re-pointing the registry costs two atomic updates; a group that
  // reschedules itself usually finds it pointing there already.
  auto& last = last_scheduled_group_;
  if (last.owner_before(g) || g.owner_before(last)) last = g;
}

void Prober::tick(Group& g) {
  // Before the calendar's next event and the run's horizon nothing changes
  // what a probe reads: the group sleeps to the first tick at or after the
  // earlier of the two, and each member counts the ticks skipped as probes
  // that read this tick's answer. With neither bounded (run() with nothing
  // else pending) it ticks every interval, as one event per prober would.
  const sim::Simulation& sim = g.sim;
  sim::SimTime wake = sim.run_horizon();
  if (sim.pending_events() > 0) wake = std::min(wake, sim.next_event_time());
  const sim::Duration gap = wake - sim.now();
  const bool bounded = wake <= std::numeric_limits<sim::SimTime>::max() - g.interval;
  const auto ticks = static_cast<std::uint64_t>(
      bounded && gap > g.interval ? (gap - 1) / g.interval + 1 : 1);
  probe_purely(sim, [&g, ticks] {
    for (Prober* p : g.members) p->probe(ticks);
  });
  // Scheduled after the probes, which schedule nothing, so its place among
  // same-time events is the one rescheduling every interval gives.
  schedule(g.members.front()->group_,
           static_cast<sim::Duration>(ticks) * g.interval);
}

std::optional<sim::Duration> Prober::outage_after(sim::SimTime from) const {
  const auto down = down_at_after(from);
  if (!down) return std::nullopt;
  for (const auto& t : transitions_) {
    if (t.time > *down && t.up) return t.time - *down;
  }
  return std::nullopt;  // still down
}

std::optional<sim::SimTime> Prober::down_at_after(sim::SimTime from) const {
  for (const auto& t : transitions_) {
    if (t.time >= from && !t.up) return t.time;
  }
  return std::nullopt;
}

sim::Duration Prober::total_downtime(sim::SimTime from, sim::SimTime to) const {
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

}  // namespace rh::workload
