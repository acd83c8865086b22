// Indexed 4-ary min-heap event scheduler with slab-allocated callbacks,
// O(log n) cancellation, and stable same-time FIFO ordering.
//
// This is the hot core of the whole simulator: every modelled mechanism
// (suspend/resume, quick reload, TCP retransmission, page-cache aging,
// migration rounds) is an event pushed through here.
//
//   - each event owns a slot in two parallel slabs: its callback lives in an
//     InlineCallback, so the common push/pop cycle performs ZERO heap
//     allocations, and its control word records the generation and the
//     event's current heap position. Freed slots are recycled from an index
//     stack;
//   - the heap itself holds only 24-byte (time, seq, slot) entries, four
//     children per node: half the depth of a binary heap, with a node's
//     children in 96 contiguous bytes. The queues the simulator drives stay
//     shallow -- a few dozen pending events per host, a few thousand in the
//     busiest fleet partition -- so a sift is a handful of compares;
//   - an EventId encodes (slot index, generation); cancel() validates the
//     generation and removes the entry at the slot's recorded heap position
//     (sifting the displaced last entry up or down) -- no tombstone set, no
//     scan at pop, and ids from fired or cancelled events are recognised as
//     stale (cancel returns false);
//   - determinism guarantee (unchanged from the original heap queue): two
//     events scheduled for the same instant fire in the order they were
//     scheduled. Entries compare by (time, seq) and seq is unique, so the
//     pop order is exactly ascending (time, seq). A golden-order regression
//     test pins this (tests/test_event_queue.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/inline_callback.hpp"
#include "simcore/types.hpp"

namespace rh::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Encodes (slot << 32 | generation); stale handles are detected.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`; returns a handle for cancel().
  /// The callback must be non-empty. Never allocates when `fn` fits
  /// InlineCallback's inline buffer and the slabs have free capacity.
  EventId push(SimTime t, InlineCallback fn);

  /// Cancels a pending event in O(log n). Returns true if the event was
  /// still pending; false for kInvalidEventId, already-fired, or
  /// already-cancelled handles (generation mismatch).
  bool cancel(EventId id);

  /// True if no live events remain. O(1).
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of live events. O(1) and exact.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Removes and returns the earliest live event's callback and time.
  /// Precondition: !empty().
  struct Popped {
    SimTime time = 0;
    EventId id = kInvalidEventId;
    InlineCallback fn;
  };
  Popped pop();

  /// Drops all pending events. Outstanding EventIds become stale.
  void clear();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;
  static constexpr std::size_t kArity = 4;

  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNil;  // heap index; kNil = free
  };

  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }
  static bool before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i, const Entry& e);
  void sift_down(std::size_t i, const Entry& e);
  void remove_at(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<InlineCallback> fns_;  // parallel to slots_
  // Free slots as an index stack: popping it is a contiguous access.
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace rh::sim
