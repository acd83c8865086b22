#include "simcore/simulation.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::sim {

namespace {
thread_local std::int32_t tl_current_partition = -1;
}  // namespace

std::int32_t current_partition() noexcept { return tl_current_partition; }
void set_current_partition(std::int32_t p) noexcept { tl_current_partition = p; }

EventId Simulation::at(SimTime t, InlineCallback fn) {
  ensure(t >= now_, "Simulation::at: cannot schedule in the past");
  if (partition_id_ >= 0) check_cross_partition(t);
  return last_scheduled_ = queue_.push(t, std::move(fn));
}

EventId Simulation::after(Duration delay, InlineCallback fn) {
  ensure(delay >= 0, "Simulation::after: negative delay");
  const SimTime t = now_ + delay;
  if (partition_id_ >= 0) check_cross_partition(t);
  return last_scheduled_ = queue_.push(t, std::move(fn));
}

void Simulation::check_cross_partition(SimTime t) const {
  // Same-partition scheduling (the executing partition talking to its own
  // calendar) is always safe; so is any schedule at/above the published
  // safe-window end, which is where the engine's mailbox merge lands
  // messages. Everything else is a cross-partition race: it could inject
  // an event into a window another worker is executing right now, or
  // below times that partition already simulated past.
  if (current_partition() == partition_id_) return;
  const SimTime horizon = safe_horizon_->load(std::memory_order_relaxed);
  ensure(t >= horizon,
         "Simulation::at: cross-partition schedule below the safe horizon "
         "-- route it through ParallelSimulation::post instead");
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime deadline) {
  ensure(deadline >= now_, "Simulation::run_until: deadline in the past");
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
    step();
  }
  if (!stopped_) now_ = deadline;
}

void Simulation::run_for(Duration d) { run_until(now_ + d); }

void Simulation::run_window(SimTime end, bool inclusive) {
  ensure(end >= now_, "Simulation::run_window: window end in the past");
  while (!queue_.empty() &&
         (queue_.next_time() < end || (inclusive && queue_.next_time() == end))) {
    step();
  }
  now_ = end;
}

void Simulation::advance_to(SimTime t) {
  ensure(t >= now_, "Simulation::advance_to: target in the past");
  ensure(queue_.empty() || queue_.next_time() > t,
         "Simulation::advance_to: would skip over a pending event");
  now_ = t;
}

void Simulation::bind_partition(std::int32_t id,
                                const std::atomic<SimTime>* safe_horizon) {
  ensure(id >= 0, "Simulation::bind_partition: negative partition id");
  ensure(safe_horizon != nullptr,
         "Simulation::bind_partition: null safe horizon");
  ensure(partition_id_ < 0, "Simulation::bind_partition: already bound");
  partition_id_ = id;
  safe_horizon_ = safe_horizon;
}

}  // namespace rh::sim
