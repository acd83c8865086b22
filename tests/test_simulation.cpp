#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>

#include "simcore/check.hpp"
#include "simcore/simulation.hpp"
#include "simcore/types.hpp"

namespace rh::test {
namespace {

TEST(Simulation, TimeAdvancesWithEvents) {
  sim::Simulation s;
  sim::SimTime seen = -1;
  s.after(500, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulation, NestedSchedulingWorks) {
  sim::Simulation s;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) s.after(10, recur);
  };
  s.after(10, recur);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 50);
}

TEST(Simulation, RunUntilStopsAtDeadlineAndSetsNow) {
  sim::Simulation s;
  int fired = 0;
  s.after(10, [&] { ++fired; });
  s.after(100, [&] { ++fired; });
  s.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending_events(), std::size_t{1});
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventAtDeadlineIsIncluded) {
  sim::Simulation s;
  bool fired = false;
  s.after(50, [&] { fired = true; });
  s.run_until(50);
  EXPECT_TRUE(fired);
}

TEST(Simulation, StopInterruptsRun) {
  sim::Simulation s;
  int fired = 0;
  s.after(1, [&] {
    ++fired;
    s.stop();
  });
  s.after(2, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
  s.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelPreventsExecution) {
  sim::Simulation s;
  bool fired = false;
  const auto id = s.after(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, SchedulingInPastThrows) {
  sim::Simulation s;
  s.after(10, [] {});
  s.run();
  EXPECT_THROW(s.at(5, [] {}), InvariantViolation);
  EXPECT_THROW(s.after(-1, [] {}), InvariantViolation);
}

TEST(Simulation, ZeroDelayRunsAtCurrentTime) {
  sim::Simulation s;
  s.after(10, [&] {
    s.after(0, [&] { EXPECT_EQ(s.now(), 10); });
  });
  s.run();
  EXPECT_EQ(s.now(), 10);
}

TEST(Simulation, CountsExecutedEvents) {
  sim::Simulation s;
  for (int i = 0; i < 7; ++i) s.after(i, [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), std::uint64_t{7});
}

TEST(Simulation, RunForAdvancesRelative) {
  sim::Simulation s;
  s.after(10, [] {});
  s.run();
  s.run_for(90);
  EXPECT_EQ(s.now(), 100);
}

// min(cap, base * 2^attempt): doubling up to the cap, then the cap for
// every later attempt, however large.
TEST(CappedBackoff, DoublesFromTheBaseThenHoldsAtTheCap) {
  const sim::Duration base = 2 * sim::kSecond;
  const sim::Duration cap = 5 * sim::kMinute;
  const sim::Duration want[] = {base,      2 * base,  4 * base,  8 * base,
                                16 * base, 32 * base, 64 * base, 128 * base,
                                cap,       cap};
  for (std::uint64_t k = 0; k < std::size(want); ++k) {
    EXPECT_EQ(sim::capped_backoff(base, cap, k), want[k]) << "attempt " << k;
  }
  EXPECT_EQ(sim::capped_backoff(base, cap,
                                std::numeric_limits<std::uint64_t>::max()),
            cap);
  // A cap that is not a power-of-two multiple of the base is still met
  // exactly, and a base at the cap never grows.
  EXPECT_EQ(sim::capped_backoff(3, 10, 1), 6);
  EXPECT_EQ(sim::capped_backoff(3, 10, 2), 10);
  EXPECT_EQ(sim::capped_backoff(10, 10, 0), 10);
  EXPECT_EQ(sim::capped_backoff(10, 10, 5), 10);
}

}  // namespace
}  // namespace rh::test
