// Conservative synchronous parallel DES engine (PDES core).
//
// The sequential Simulation runs one event queue on one thread; a
// 1000-host cluster therefore saturates exactly one core no matter how
// many replications run in parallel. This engine partitions the event
// space (one Simulation -- event queue plus local clock -- per
// partition, in the cluster one partition per host plus one for the
// control plane) and executes partitions concurrently under the classic
// conservative synchronous-window protocol:
//
//   - partitions interact only through links with positive one-way
//     latency; the minimum latency over all inter-partition links is the
//     *lookahead* L;
//   - each iteration plan() computes T = min over partitions of the
//     next event time and opens the safe window [T, T + L): every event
//     in the window can be executed without ever receiving a message
//     that would have to land inside it, because a message sent at
//     s >= T travels at least L and so arrives at s + L >= T + L;
//   - partitions execute their window events in parallel on the caller
//     plus W - 1 helper threads started for the length of each run
//     (static partition -> worker assignment, so the intra-partition
//     event order never depends on scheduling);
//   - cross-partition sends (post()) are appended to the sending
//     partition's outbox and, at the window barrier, moved into their
//     destination calendars outbox by outbox in partition order. Each
//     destination thus receives its messages in (src, seq) order, where
//     seq is the sender's program order, and its calendar pops them by
//     (time, insertion order): the delivery order is (time, src, seq)
//     per destination, independent of worker count, so 1-worker and
//     N-worker runs are bitwise identical.
//
// Determinism contract: a run's observable state is a pure function of
// (initial state, partitioning, lookahead); the worker count only moves
// wall-clock time. The `pdes` test suite pins this with digest grids.
//
// Zero lookahead is rejected loudly: with L == 0 no window can make
// progress without risking a straggler message, which is exactly the
// situation conservative PDES cannot execute in parallel.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "simcore/inline_callback.hpp"
#include "simcore/simulation.hpp"
#include "simcore/types.hpp"

namespace rh::sim {

/// Sense-reversing barrier for the window loop: short spin (the windows
/// are microseconds of work, so the partners are usually already there),
/// then a condvar park so an oversubscribed or 1-core box does not burn
/// its only core spinning. The last party to arrive runs `on_last`
/// before it releases the others, so everything `on_last` writes is
/// visible to every party once it returns; with one party `on_last`
/// simply runs inline. std::barrier has the same shape, but its crossing
/// costs several times as much in libstdc++ 12 (DESIGN.md §11).
class SpinBarrier {
 public:
  SpinBarrier(std::size_t parties, std::function<void()> on_last)
      : parties_(parties), on_last_(std::move(on_last)) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait();

 private:
  std::size_t parties_;
  std::function<void()> on_last_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

class ParallelSimulation {
 public:
  struct Config {
    /// Number of event partitions (>= 1). The cluster uses hosts + 1:
    /// partition 0 is the control plane (balancer, client fleet, rolling
    /// pass), partition 1 + h is host h.
    std::int32_t partitions = 1;
    /// Worker threads executing windows. 0 = one per hardware thread;
    /// clamped to [1, partitions]. Worker 0 is the calling thread; the
    /// rest are helper threads started and joined by each run.
    std::size_t workers = 1;
  };

  explicit ParallelSimulation(Config config);
  ParallelSimulation(const ParallelSimulation&) = delete;
  ParallelSimulation& operator=(const ParallelSimulation&) = delete;

  [[nodiscard]] std::int32_t partition_count() const {
    return static_cast<std::int32_t>(partitions_.size());
  }
  [[nodiscard]] Simulation& partition(std::int32_t p);

  /// Declares an inter-partition link with the given one-way latency;
  /// the engine's lookahead is the minimum over every declared link.
  /// Zero/negative latency is rejected: it would make the safe window
  /// empty.
  void register_link(Duration one_way_latency);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Cross-partition send: schedules `fn` on partition `dst` at
  /// (sending partition's now() + delay). Must be called from inside a
  /// partition's window execution (the sending partition is implicit),
  /// and `delay` must be >= lookahead() -- the conservative protocol's
  /// safety condition. Sends to the executing partition itself take the
  /// inline fast path (a plain local schedule, no mailbox).
  void post(std::int32_t dst, Duration delay, InlineCallback fn);

  /// Seeds partition `p` with an event at its current local time. Only
  /// valid while the engine is quiescent (between runs); this is how
  /// benches inject control actions (start the fleet, kick a rolling
  /// pass) so they execute in partition context.
  void run_on(std::int32_t p, InlineCallback fn);

  /// Runs windows until every event with time <= deadline has executed,
  /// then advances every partition clock to `deadline` (the windowed
  /// analogue of Simulation::run_until).
  void run_until(SimTime deadline);

  /// Runs windows while `keep_going()` returns true (evaluated at each
  /// window barrier by the last worker to arrive, with every partition
  /// stopped -- deterministic, because barriers happen at the same
  /// simulated times for any worker count). Stops on its own when the
  /// event space drains empty.
  void run_while(const std::function<bool()>& keep_going);

  /// True between run_until()/run_while() entry and exit.
  [[nodiscard]] bool running() const { return running_; }

  // ------------------------------------------------------------- stats
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_; }
  [[nodiscard]] std::uint64_t messages_routed() const { return messages_; }
  /// Sum of every partition's executed event count. Quiescent only.
  [[nodiscard]] std::uint64_t total_executed_events() const;

 private:
  static constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::min();
  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  /// One cross-partition message, held in its sender's outbox in the
  /// sender's program order until the next window barrier.
  struct Message {
    SimTime time = 0;
    std::int32_t dst = 0;
    InlineCallback fn;
  };

  /// Cache-line aligned so one worker's outbox appends and calendar
  /// operations never false-share with a neighbour partition's.
  struct alignas(64) Partition {
    Simulation sim;
    std::vector<Message> outbox;
  };

  void run_loop(SimTime deadline, const std::function<bool()>* keep_going);
  void participant_loop(std::size_t worker);
  /// Runs on one thread while every worker waits at the barrier (the
  /// last to arrive, or the caller before the first window): drains the
  /// outboxes in partition order into the destination calendars, then
  /// either opens the next window or raises done_.
  void plan();
  void capture_failure() noexcept;

  std::vector<std::unique_ptr<Partition>> partitions_;
  std::size_t workers_ = 1;
  Duration lookahead_ = 0;

  SpinBarrier barrier_;

  // Window-loop state. Written only by plan(), while every worker waits
  // at the barrier, and read by every worker after it is released, so
  // plain fields are race-free; horizon_ is atomic because the
  // cross-partition schedule guard reads it from inside windows.
  bool running_ = false;
  bool done_ = false;
  SimTime window_end_ = 0;
  bool window_inclusive_ = false;
  SimTime deadline_ = kNoDeadline;
  const std::function<bool()>* keep_going_ = nullptr;
  std::atomic<SimTime> horizon_{kNoHorizon};

  std::mutex failure_mu_;
  std::exception_ptr failure_;

  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace rh::sim
