#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "determinism_workload.hpp"
#include "simcore/check.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/legacy_heap_queue.hpp"

namespace rh::test {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampIsFifo) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesPendingEvent) {
  sim::EventQueue q;
  bool fired = false;
  const auto id = q.push(10, [&] { fired = true; });
  q.push(20, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), std::size_t{1});
  EXPECT_EQ(q.next_time(), 20);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  sim::EventQueue q;
  const auto id = q.push(10, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(sim::kInvalidEventId));
}

TEST(EventQueue, CancelAllLeavesEmptyQueue) {
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.push(i, [] {}));
  for (const auto id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), std::size_t{0});
}

TEST(EventQueue, PopOnEmptyThrows) {
  sim::EventQueue q;
  EXPECT_THROW(q.pop(), InvariantViolation);
  EXPECT_THROW((void)q.next_time(), InvariantViolation);
}

TEST(EventQueue, EmptyCallbackRejected) {
  sim::EventQueue q;
  EXPECT_THROW(q.push(0, std::function<void()>{}), InvariantViolation);
}

TEST(EventQueue, ClearDropsEverything) {
  sim::EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(i, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  sim::EventQueue q;
  std::vector<sim::SimTime> popped;
  q.push(5, [] {});
  q.push(1, [] {});
  popped.push_back(q.pop().time);  // 1
  q.push(3, [] {});
  q.push(2, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<sim::SimTime>{1, 2, 3, 5}));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  // The generation tag makes a fired event's id stale: cancelling it is a
  // detected no-op instead of silently poisoning queue bookkeeping.
  sim::EventQueue q;
  const auto id = q.push(10, [] {});
  bool other_fired = false;
  q.push(20, [&] { other_fired = true; });
  const auto popped = q.pop();
  EXPECT_EQ(popped.id, id);
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), std::size_t{1});
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(other_fired);
}

TEST(EventQueue, IdReuseAcrossGenerations) {
  sim::EventQueue q;
  const auto first = q.push(10, [] {});
  ASSERT_TRUE(q.cancel(first));
  // The freed slot is recycled for the next event, but with a bumped
  // generation: the new id differs and the old id cannot touch it.
  bool fired = false;
  const auto second = q.push(11, [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), std::size_t{1});
  q.pop().fn();
  EXPECT_TRUE(fired);
  // Fired handle of the reused slot is stale too.
  EXPECT_FALSE(q.cancel(second));
}

TEST(EventQueue, ClearStalesOutstandingIds) {
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.push(i, [] {}));
  q.clear();
  for (const auto id : ids) EXPECT_FALSE(q.cancel(id));
  // The queue remains fully usable after clear().
  q.push(3, [] {});
  EXPECT_EQ(q.size(), std::size_t{1});
  EXPECT_EQ(q.pop().time, 3);
}

TEST(EventQueue, MoveOnlyCallbacksSupported) {
  sim::EventQueue q;
  auto owned = std::make_unique<int>(7);
  int out = 0;
  q.push(1, [&out, owned = std::move(owned)] { out = *owned; });
  q.pop().fn();
  EXPECT_EQ(out, 7);
}

TEST(EventQueue, ManyEventsAcrossMixedHorizonsStaySorted) {
  // Enough events for a deep heap, with microsecond and week-scale
  // horizons mixed (the pattern the simulator actually produces).
  sim::EventQueue q;
  sim::Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const auto r = rng.next();
    const sim::SimTime t = (r % 4 == 0)
                               ? static_cast<sim::SimTime>(sim::kWeek + (r >> 8) % sim::kDay)
                               : static_cast<sim::SimTime>((r >> 8) % 100000);
    q.push(t, [] {});
  }
  sim::SimTime prev = -1;
  while (!q.empty()) {
    const auto t = q.pop().time;
    EXPECT_GE(t, prev);
    prev = t;
  }
}

// --- Determinism regression -------------------------------------------------
//
// The golden constant below is the event-order hash the ORIGINAL binary-heap
// EventQueue produced on the mixed workload (pushes across three horizons,
// same-time bursts, cancellations, interleaved drains). Every later
// EventQueue must reproduce the exact same firing order -- same-time FIFO
// included -- so every figure/table binary keeps emitting bit-identical
// results.
constexpr std::uint64_t kGoldenOrderHash = 0x0a2ae001a6818e75ULL;

TEST(EventQueueDeterminism, MatchesGoldenOrderHash) {
  sim::EventQueue q;
  EXPECT_EQ(determinism_workload_hash(q), kGoldenOrderHash);
}

TEST(EventQueueDeterminism, MatchesLegacyHeapQueueLive) {
  // Belt and braces: also diff against the preserved legacy implementation
  // executed right now, so a platform where the golden constant would ever
  // diverge (it must not -- the workload is integer-only) is caught as a
  // cross-implementation mismatch rather than a stale constant.
  sim::EventQueue calendar;
  sim::LegacyHeapQueue heap;
  EXPECT_EQ(determinism_workload_hash(calendar), determinism_workload_hash(heap));
}

}  // namespace
}  // namespace rh::test
