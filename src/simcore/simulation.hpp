// The discrete-event simulation driver.
#pragma once

#include <atomic>
#include <cstdint>

#include "simcore/event_queue.hpp"
#include "simcore/inline_callback.hpp"
#include "simcore/types.hpp"

namespace rh::sim {

/// Index of the partition the calling thread is currently executing a
/// window for (-1 outside partitioned execution). Set by
/// ParallelSimulation around each Simulation::run_window call; the
/// cross-partition scheduling guard in Simulation::at compares it
/// against the target calendar's partition id.
[[nodiscard]] std::int32_t current_partition() noexcept;
void set_current_partition(std::int32_t p) noexcept;

/// Owns the simulated clock and the event queue, and runs events in order.
///
/// All model components hold a reference to one Simulation and schedule
/// their work through it. Time only advances by running events; there is no
/// wall-clock coupling, so simulations are deterministic and can cover
/// weeks of simulated time in milliseconds of real time.
///
/// Partitioned (parallel) execution: under ParallelSimulation there are
/// several Simulation instances, one per partition, and now() is a *local*
/// clock -- inside a safe window [T, T + L) two partitions' now() values
/// may differ by up to the window width. Components must therefore only
/// ever read time from, and schedule onto, their own partition's
/// Simulation; cross-partition work goes through
/// ParallelSimulation::post. A bound Simulation enforces this: at()/
/// after() from a foreign partition below the engine's safe horizon throw
/// InvariantViolation instead of silently racing/reordering.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time. Under partitioned execution this is the
  /// partition-local clock (see the class comment).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (must be >= now()).
  /// Accepts any void() callable; see InlineCallback for the (non-)
  /// allocation guarantees. When this Simulation is bound to a partition,
  /// calls from a different executing partition must target t >= the
  /// engine's safe horizon (use ParallelSimulation::post instead).
  EventId at(SimTime t, InlineCallback fn);

  /// Schedules `fn` to run `delay` from now (delay must be >= 0).
  EventId after(Duration delay, InlineCallback fn);

  /// Cancels a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs events with time <= deadline, then sets now() to `deadline`
  /// (if the simulation was not stopped earlier).
  ///
  /// Sequential-driver semantics: this drives THIS calendar only. Under
  /// ParallelSimulation do not call it mid-run -- the engine drives every
  /// partition through run_window(); use ParallelSimulation::run_until,
  /// which provides the same "then advance the clock" contract across all
  /// partitions.
  void run_until(SimTime deadline);

  /// Convenience: run_until(now() + d).
  void run_for(Duration d);

  /// Executes the single earliest event. Returns false if none remain.
  bool step();

  /// Stops the current run()/run_until() after the current event returns.
  /// Not meaningful under windowed execution (run_window ignores it);
  /// stop a ParallelSimulation via its run_while predicate.
  void stop() { stopped_ = true; }

  /// True when stop() interrupted the last run.
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Time of the earliest pending event. Precondition: pending_events() > 0.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }

  /// Total events executed so far (for diagnostics and microbenchmarks).
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// The event at(), after() or an engine mailbox delivery scheduled on
  /// this calendar most recently, pending or not (kInvalidEventId before
  /// the first). A component whose own pending event is still this one
  /// knows nothing was scheduled after it.
  [[nodiscard]] EventId last_scheduled() const { return last_scheduled_; }

  // ------------------------------------------- partitioned execution
  /// Runs every event with time < `end` (or <= `end` when `inclusive`,
  /// used by the engine for the final window of a run_until), then
  /// advances now() to `end`. Ignores stop() -- windows are driven by
  /// the engine, not by model code. In the default half-open form an
  /// event exactly at `end` does NOT run: it belongs to the next window.
  void run_window(SimTime end, bool inclusive = false);

  /// Advances now() to `t` without running anything. Requires that no
  /// pending event is scheduled at or before `t`.
  void advance_to(SimTime t);

  /// Binds this calendar to partition `id` of a parallel engine whose
  /// published safe-window end lives at `safe_horizon` (engine-owned,
  /// set to SimTime minimum while quiescent so setup-time scheduling
  /// from any thread stays legal).
  void bind_partition(std::int32_t id, const std::atomic<SimTime>* safe_horizon);

  /// Partition id under a parallel engine, -1 when unbound (sequential).
  [[nodiscard]] std::int32_t partition_id() const { return partition_id_; }

 private:
  void check_cross_partition(SimTime t) const;

  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  EventId last_scheduled_ = kInvalidEventId;
  std::int32_t partition_id_ = -1;
  const std::atomic<SimTime>* safe_horizon_ = nullptr;
};

}  // namespace rh::sim
