#include "workload/prober.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"

namespace rh::workload {

/// Probers ticking on one calendar event, in the order their own events
/// would have fired.
struct Prober::Group : std::enable_shared_from_this<Group> {
  Group(sim::Simulation& s, sim::Duration i) : sim(s), interval(i) {}

  sim::Simulation& sim;
  const sim::Duration interval;
  std::vector<Prober*> members;
  sim::EventId pending = sim::kInvalidEventId;
  sim::SimTime due = 0;
  std::size_t cursor = 0;  // the next member to probe while ticking
  bool ticking = false;

  /// An emptied group cancels its tick.
  void cancel_if_empty() {
    if (!members.empty()) return;
    sim.cancel(pending);
    pending = sim::kInvalidEventId;
  }
};

thread_local std::weak_ptr<Prober::Group> Prober::last_scheduled_group_;

Prober::Prober(sim::Simulation& sim, Config config, std::function<bool()> up)
    : sim_(sim), config_(config), up_(std::move(up)) {
  ensure(static_cast<bool>(up_), "Prober: liveness callback required");
  ensure(config_.interval > 0, "Prober: interval must be positive");
}

Prober::~Prober() { stop(); }

void Prober::start() {
  ensure(!running_, "Prober::start: already running");
  running_ = true;
  first_probe_ = true;
  probe();
  if (!running_) return;  // the callback stopped this prober
  // Join the group whose tick this prober's own would directly follow:
  // due at the same instant, with nothing scheduled since, not even by
  // this probe's callback.
  auto g = last_scheduled_group_.lock();
  if (g && &g->sim == &sim_ && g->interval == config_.interval &&
      !g->ticking && g->pending == sim_.last_scheduled() &&
      g->due == sim_.now() + config_.interval) {
    g->members.push_back(this);
    group_ = std::move(g);
    return;
  }
  group_ = std::make_shared<Group>(sim_, config_.interval);
  group_->members.push_back(this);
  schedule(group_);
}

void Prober::stop() {
  running_ = false;
  if (!group_) return;
  const std::shared_ptr<Group> g = std::move(group_);
  auto& members = g->members;
  const auto it = std::find(members.begin(), members.end(), this);
  // Stopped from inside the group's tick: keep the cursor on the next
  // member to probe.
  if (g->ticking && static_cast<std::size_t>(it - members.begin()) < g->cursor) {
    --g->cursor;
  }
  members.erase(it);
  g->cancel_if_empty();
}

void Prober::probe() {
  ++probes_;
  const bool up = up_();
  if (first_probe_ || up != last_up_) {
    transitions_.push_back({sim_.now(), up});
    first_probe_ = false;
  }
  last_up_ = up;
}

void Prober::schedule(const std::shared_ptr<Group>& g) {
  g->due = g->sim.now() + g->interval;
  g->pending = g->sim.at(g->due, [g = g.get()] { tick(*g); });
  // Re-pointing the registry costs two atomic updates; a group that
  // reschedules itself usually finds it pointing there already.
  auto& last = last_scheduled_group_;
  if (last.owner_before(g) || g.owner_before(last)) last = g;
}

void Prober::tick(Group& group) {
  // A callback that stops members may drop the group's last owner.
  std::shared_ptr<Group> g = group.shared_from_this();
  sim::Simulation& sim = g->sim;
  // Rescheduled first, where the first member's own tick would go unless
  // its callback schedules an event (then the split below moves it).
  schedule(g);
  g->ticking = true;
  for (g->cursor = 0; g->cursor < g->members.size();) {
    Prober* p = g->members[g->cursor++];
    const bool was_stopped = sim.stopped();
    p->probe();
    ensure(was_stopped || !sim.stopped() || g->cursor == g->members.size(),
           "Prober: a probe callback stopped the Simulation between two "
           "probers that share a tick");
    if (sim.last_scheduled() == g->pending) continue;
    // p's callback scheduled an event. p's own tick and those of the
    // members after it would have been scheduled behind that event, so
    // they move to a group scheduled now.
    std::size_t first = g->cursor;
    if (first > 0 && g->members[first - 1] == p) --first;
    if (first == g->members.size()) continue;
    auto split = std::make_shared<Group>(sim, g->interval);
    split->members.assign(g->members.begin() + static_cast<std::ptrdiff_t>(first),
                          g->members.end());
    split->cursor = g->cursor - first;
    g->members.resize(first);
    g->ticking = false;
    g->cancel_if_empty();
    for (Prober* m : split->members) m->group_ = split;
    schedule(split);
    split->ticking = true;
    g = std::move(split);
  }
  g->ticking = false;
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
