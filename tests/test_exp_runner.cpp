// Replication runner: scheduling correctness and, above all, the
// determinism contract -- merged grid output must be byte-identical no
// matter how many threads ran it or in which order the tasks finished.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

// -------------------------------------------------------------- Reducer

TEST(Reducer, MeanAndCiAcrossReplications) {
  exp::Reducer red;
  for (const double v : {10.0, 12.0, 14.0}) {
    exp::ReplicationResult r;
    r.values = {v, 100.0 * v};
    red.add(r);
  }
  EXPECT_EQ(red.replications(), std::size_t{3});
  ASSERT_EQ(red.metrics().size(), std::size_t{2});
  EXPECT_DOUBLE_EQ(red.mean(0), 12.0);
  EXPECT_DOUBLE_EQ(red.mean(1), 1200.0);
  // stddev = 2, t_{0.975, 2} = 4.303 -> 4.303 * 2 / sqrt(3).
  EXPECT_NEAR(red.ci95(0), 4.303 * 2.0 / std::sqrt(3.0), 1e-9);
}

TEST(Reducer, SingleReplicationHasZeroCi) {
  exp::Reducer red;
  exp::ReplicationResult r;
  r.values = {42.0};
  red.add(r);
  EXPECT_DOUBLE_EQ(red.mean(0), 42.0);
  EXPECT_DOUBLE_EQ(red.ci95(0), 0.0);
}

TEST(Reducer, RejectsShapeMismatch) {
  exp::Reducer red;
  exp::ReplicationResult a;
  a.values = {1.0, 2.0};
  red.add(a);
  exp::ReplicationResult b;
  b.values = {1.0};
  EXPECT_THROW(red.add(b), InvariantViolation);
}

// ------------------------------------------------- run_grid determinism

/// A deterministic body with real RNG use, plus a completion-order
/// scrambling sleep: later tasks sleep *less*, so under multiple threads
/// the completion order inverts the submission order.
exp::ReplicationBody scrambled_body(std::size_t total_tasks,
                                    bool scramble_order) {
  return [total_tasks, scramble_order](const exp::ReplicationContext& ctx) {
    if (scramble_order) {
      const std::size_t task =
          ctx.point_index * 4 + ctx.replication_index;  // 4 reps per point
      std::this_thread::sleep_for(
          std::chrono::microseconds(200 * (total_tasks - task)));
    }
    sim::Rng rng = ctx.rng;  // private copy; draws are schedule-independent
    exp::ReplicationResult out;
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform01();
    out.values = {acc, static_cast<double>(ctx.seed % 1000)};
    return out;
  };
}

/// Bitwise equality of two reduced grids: every point's means and CIs.
void expect_bitwise_equal(const exp::GridResult& a, const exp::GridResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const auto& ra = a.points[p];
    const auto& rb = b.points[p];
    ASSERT_EQ(ra.metrics().size(), rb.metrics().size());
    for (std::size_t m = 0; m < ra.metrics().size(); ++m) {
      const double va[2] = {ra.mean(m), ra.ci95(m)};
      const double vb[2] = {rb.mean(m), rb.ci95(m)};
      EXPECT_EQ(std::memcmp(va, vb, sizeof va), 0)
          << "point " << p << " metric " << m;
    }
  }
}

exp::GridSpec small_grid(std::size_t threads) {
  exp::GridSpec spec;
  spec.points = 3;
  spec.replications = 4;
  spec.root_seed = 2026;
  spec.threads = threads;
  return spec;
}

TEST(ExpRunner, OneThreadMatchesSequentialOracle) {
  const auto body = scrambled_body(12, false);
  const auto seq = exp::run_grid_sequential(small_grid(1), body);
  const auto par = exp::run_grid(small_grid(1), body);
  EXPECT_EQ(par.threads_used, std::size_t{1});
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, FourThreadsMatchSequentialOracle) {
  const auto body = scrambled_body(12, false);
  const auto seq = exp::run_grid_sequential(small_grid(1), body);
  const auto par = exp::run_grid(small_grid(4), body);
  EXPECT_EQ(par.threads_used, std::size_t{4});
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, NeverStartsMoreThreadsThanTasks) {
  const auto body = scrambled_body(12, false);
  const auto seq = exp::run_grid_sequential(small_grid(1), body);
  const auto par = exp::run_grid(small_grid(16), body);
  EXPECT_EQ(par.threads_used, std::size_t{12});
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, ScrambledCompletionOrderStillMatches) {
  // Sleeps make tasks finish in roughly *reverse* submission order; the
  // fixed-order reduction must still produce byte-identical output.
  const auto seq =
      exp::run_grid_sequential(small_grid(1), scrambled_body(12, false));
  const auto par = exp::run_grid(small_grid(4), scrambled_body(12, true));
  expect_bitwise_equal(seq, par);
}

TEST(ExpRunner, SeedsAreDistinctAcrossTheGrid) {
  std::mutex mu;
  std::set<std::uint64_t> seeds;
  exp::GridSpec spec;
  spec.points = 8;
  spec.replications = 8;
  spec.threads = 4;
  exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seeds.insert(ctx.seed);
    }
    return exp::ReplicationResult{{0.0}, {}};
  });
  EXPECT_EQ(seeds.size(), std::size_t{64});
}

TEST(ExpRunner, SubstreamsDependOnlyOnRootSeedAndIndices) {
  // Same root seed -> same per-task seeds, regardless of thread count.
  const auto collect = [](std::size_t threads) {
    std::mutex mu;
    std::vector<std::uint64_t> seeds(6, 0);
    exp::GridSpec spec;
    spec.points = 2;
    spec.replications = 3;
    spec.root_seed = 99;
    spec.threads = threads;
    exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
      std::lock_guard<std::mutex> lock(mu);
      seeds[ctx.point_index * 3 + ctx.replication_index] = ctx.seed;
      return exp::ReplicationResult{{0.0}, {}};
    });
    return seeds;
  };
  EXPECT_EQ(collect(1), collect(4));
}

TEST(ExpRunner, BodyExceptionIsRethrownLowestTaskFirst) {
  exp::GridSpec spec;
  spec.points = 2;
  spec.replications = 3;
  spec.threads = 4;
  const auto body = [](const exp::ReplicationContext& ctx) -> exp::ReplicationResult {
    const std::size_t task = ctx.point_index * 3 + ctx.replication_index;
    if (task == 1 || task == 4) {
      throw std::runtime_error("task " + std::to_string(task));
    }
    return {{0.0}, {}};
  };
  try {
    exp::run_grid(spec, body);
    FAIL() << "expected the body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 1");
  }
}

TEST(ExpRunner, WallSecondsAndThreadsAreReported) {
  const auto r = exp::run_grid(small_grid(2), scrambled_body(12, false));
  EXPECT_EQ(r.threads_used, std::size_t{2});
  EXPECT_GE(r.wall_seconds, 0.0);
  ASSERT_EQ(r.points.size(), std::size_t{3});
  EXPECT_EQ(r.point(0).replications(), std::size_t{4});
}

}  // namespace
}  // namespace rh::test
