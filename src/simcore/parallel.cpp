#include "simcore/parallel.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "simcore/check.hpp"

namespace rh::sim {

void SpinBarrier::arrive_and_wait() {
  if (parties_ == 1) {
    on_last_();
    return;
  }
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arriver: the acq_rel fetch_add saw every other party's writes.
    // Reset the count for the next round and run on_last_, then release
    // the generation. Both must happen before the generation store -- a
    // spinner that observes the new generation reads what on_last_ wrote
    // and may immediately re-enter arrive_and_wait for the next barrier.
    arrived_.store(0, std::memory_order_relaxed);
    on_last_();
    {
      std::lock_guard<std::mutex> lk(mu_);
      generation_.store(gen + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }
  // Short adaptive spin: windows are typically microseconds of work, so
  // the partners usually arrive within a few hundred checks. Yield early
  // and park quickly so a 1-core (or oversubscribed) box makes progress
  // instead of burning its timeslice.
  for (int spin = 0; spin < 256; ++spin) {
    if (generation_.load(std::memory_order_acquire) != gen) return;
  }
  for (int spin = 0; spin < 64; ++spin) {
    std::this_thread::yield();
    if (generation_.load(std::memory_order_acquire) != gen) return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return generation_.load(std::memory_order_acquire) != gen; });
}

namespace {
std::size_t clamp_workers(std::size_t requested, std::int32_t partitions) {
  std::size_t w = requested == 0 ? std::thread::hardware_concurrency() : requested;
  w = std::min(w, static_cast<std::size_t>(partitions));
  return std::max<std::size_t>(w, 1);
}
}  // namespace

ParallelSimulation::ParallelSimulation(Config config)
    : workers_(clamp_workers(config.workers, config.partitions)),
      barrier_(workers_, [this] { plan(); }) {
  ensure(config.partitions >= 1, "ParallelSimulation: need >= 1 partition");
  partitions_.reserve(static_cast<std::size_t>(config.partitions));
  for (std::int32_t p = 0; p < config.partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>());
    partitions_.back()->sim.bind_partition(p, &horizon_);
  }
}

Simulation& ParallelSimulation::partition(std::int32_t p) {
  ensure(p >= 0 && p < partition_count(),
         "ParallelSimulation: partition index out of range");
  return partitions_[static_cast<std::size_t>(p)]->sim;
}

void ParallelSimulation::register_link(Duration one_way_latency) {
  ensure(one_way_latency > 0,
         "ParallelSimulation: zero-lookahead link -- conservative parallel "
         "execution needs every inter-partition link latency > 0");
  ensure(!running_, "ParallelSimulation: register_link while running");
  if (lookahead_ == 0 || one_way_latency < lookahead_) {
    lookahead_ = one_way_latency;
  }
}

void ParallelSimulation::post(std::int32_t dst, Duration delay, InlineCallback fn) {
  ensure(dst >= 0 && dst < partition_count(),
         "ParallelSimulation::post: destination out of range");
  const std::int32_t src = current_partition();
  ensure(src >= 0,
         "ParallelSimulation::post: must be called from inside partition "
         "execution (use run_on to seed control events)");
  Partition& from = *partitions_[static_cast<std::size_t>(src)];
  if (dst == src) {
    // Same-partition fast path: an ordinary local schedule, no mailbox.
    from.sim.after(delay, std::move(fn));
    return;
  }
  ensure(delay >= lookahead_,
         "ParallelSimulation::post: cross-partition delay below the "
         "lookahead would deliver inside the current safe window");
  from.outbox.push_back(Message{from.sim.now() + delay, dst, std::move(fn)});
}

void ParallelSimulation::run_on(std::int32_t p, InlineCallback fn) {
  ensure(!running_, "ParallelSimulation::run_on: engine is running");
  Simulation& target = partition(p);
  target.at(target.now(), std::move(fn));
}

void ParallelSimulation::run_until(SimTime deadline) {
  run_loop(deadline, nullptr);
}

void ParallelSimulation::run_while(const std::function<bool()>& keep_going) {
  run_loop(kNoDeadline, &keep_going);
}

void ParallelSimulation::run_loop(SimTime deadline,
                                  const std::function<bool()>* keep_going) {
  ensure(!running_, "ParallelSimulation: run re-entered");
  ensure(lookahead_ > 0,
         "ParallelSimulation: no positive lookahead -- register at least "
         "one inter-partition link");
  running_ = true;
  done_ = false;
  deadline_ = deadline;
  keep_going_ = keep_going;
  failure_ = nullptr;
  plan();  // opens the first window (or raises done_ immediately)
  {
    // Helpers live for this run only; leaving the scope joins them, so
    // no thread touches the engine once run_until/run_while returns. A
    // helper that fails to start would leave the started ones waiting at
    // the barrier forever, so that failure ends the program (noexcept).
    std::vector<std::jthread> helpers;
    helpers.reserve(workers_ - 1);
    [&]() noexcept {
      for (std::size_t w = 1; w < workers_; ++w) {
        helpers.emplace_back([this, w] { participant_loop(w); });
      }
    }();
    participant_loop(0);
  }
  running_ = false;
  keep_going_ = nullptr;
  horizon_.store(kNoHorizon, std::memory_order_relaxed);
  if (failure_ != nullptr) std::rethrow_exception(failure_);
}

void ParallelSimulation::participant_loop(std::size_t worker) {
  const auto nparts = static_cast<std::size_t>(partition_count());
  // One barrier crossing per window: the last worker to arrive runs
  // plan(), so on release the next window (or done_) is published.
  while (!done_) {
    const SimTime end = window_end_;
    const bool inclusive = window_inclusive_;
    // Static partition -> worker assignment: partition p always runs on
    // worker p % W, so each partition's event order is independent of
    // thread scheduling and the 1-vs-N digest contract holds trivially.
    try {
      for (std::size_t p = worker; p < nparts; p += workers_) {
        set_current_partition(static_cast<std::int32_t>(p));
        partitions_[p]->sim.run_window(end, inclusive);
      }
    } catch (...) {
      capture_failure();
    }
    set_current_partition(-1);
    barrier_.arrive_and_wait();
  }
}

void ParallelSimulation::plan() {
  try {
    // Drain every outbox in partition order, moving each message straight
    // into its destination calendar. Per destination that inserts in
    // (src, seq) order -- sources ascending, each outbox in its sender's
    // program order -- and EventQueue pops by (time, insertion order), so
    // same-time deliveries from different sources fire in (src, seq)
    // order on every run regardless of worker count.
    for (auto& part : partitions_) {
      for (auto& m : part->outbox) {
        // The schedule is legal by construction: delivery >= send + L >=
        // previous window end = the destination's current local now().
        partitions_[static_cast<std::size_t>(m.dst)]->sim.at(m.time,
                                                             std::move(m.fn));
      }
      messages_ += part->outbox.size();
      part->outbox.clear();
    }

    if (failure_ != nullptr) {
      done_ = true;
      return;
    }
    if (keep_going_ != nullptr && !(*keep_going_)()) {
      done_ = true;
      return;
    }

    SimTime next = kNoDeadline;
    for (auto& part : partitions_) {
      if (part->sim.pending_events() == 0) continue;
      next = std::min(next, part->sim.next_event_time());
    }
    if (next == kNoDeadline || next > deadline_) {
      // Event space exhausted (or drained past the deadline): mirror
      // Simulation::run_until by advancing every clock to the deadline.
      if (keep_going_ == nullptr) {
        for (auto& part : partitions_) part->sim.advance_to(deadline_);
      }
      done_ = true;
      return;
    }
    // Safe window [next, next + L): no message sent at s >= next can
    // arrive before next + L. When the deadline falls inside that span
    // the run's *final* window covers [next, deadline] inclusively --
    // still safe, because arrivals land at >= next + L > deadline -- so
    // clocks end exactly at the deadline as run_until promises.
    if (deadline_ != kNoDeadline && deadline_ - next < lookahead_) {
      window_end_ = deadline_;
      window_inclusive_ = true;
      horizon_.store(deadline_ + 1, std::memory_order_release);
    } else {
      window_end_ = next > kNoDeadline - lookahead_ ? kNoDeadline
                                                    : next + lookahead_;
      window_inclusive_ = false;
      horizon_.store(window_end_, std::memory_order_release);
    }
    ++windows_;
  } catch (...) {
    capture_failure();
    done_ = true;
  }
}

void ParallelSimulation::capture_failure() noexcept {
  std::lock_guard<std::mutex> lk(failure_mu_);
  if (failure_ == nullptr) failure_ = std::current_exception();
}

std::uint64_t ParallelSimulation::total_executed_events() const {
  std::uint64_t total = 0;
  for (const auto& part : partitions_) total += part->sim.executed_events();
  return total;
}

}  // namespace rh::sim
