// The original binary-heap event queue, preserved as a reference
// implementation.
//
// This is the seed EventQueue verbatim (std::function callbacks, one heap
// allocation per non-trivial event, std::priority_queue storage, lazy
// cancellation through an unordered_set of tombstones). It is kept for two
// purposes only:
//
//   1. the determinism regression test cross-checks that EventQueue fires
//      events in exactly the order this queue does;
//   2. bench/sched_bench.cpp measures both queues side by side, so the
//      speedup recorded in BENCH_sched.json is reproducible on any machine
//      rather than a number frozen in a doc.
//
// Production code must use EventQueue (simcore/event_queue.hpp); nothing
// under src/ may depend on this header.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "simcore/types.hpp"

namespace rh::sim {

/// Min-heap of events keyed by (time, insertion sequence); the seed
/// scheduler. Two events scheduled for the same instant fire in the order
/// they were scheduled (FIFO). Cancellation is lazy: cancelled ids are
/// skipped at pop time.
class LegacyHeapQueue {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalid = 0;

  EventId push(SimTime t, std::function<void()> fn);
  bool cancel(EventId id);
  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] SimTime next_time() const;

  struct Popped {
    SimTime time = 0;
    EventId id = kInvalid;
    std::function<void()> fn;
  };
  Popped pop();

  void clear();

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    EventId id = kInvalid;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skip_cancelled() const;

  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  mutable std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
};

}  // namespace rh::sim
