#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "simcore/check.hpp"

namespace rh::exp {

namespace {

using Clock = std::chrono::steady_clock;

/// Derives the context of every (point, replication) task on the calling
/// thread, in lexicographic order, so each substream is a pure function
/// of (root seed, point index, replication index).
std::vector<ReplicationContext> derive_contexts(const GridSpec& spec) {
  std::vector<ReplicationContext> ctxs;
  ctxs.reserve(spec.points * spec.replications);
  sim::Rng root(spec.root_seed);
  for (std::size_t p = 0; p < spec.points; ++p) {
    sim::Rng point_rng = root.split();
    for (std::size_t r = 0; r < spec.replications; ++r) {
      ReplicationContext ctx;
      ctx.point_index = p;
      ctx.replication_index = r;
      ctx.rng = point_rng.split();
      ctx.seed = ctx.rng.next();
      ctxs.push_back(std::move(ctx));
    }
  }
  return ctxs;
}

GridResult reduce(const GridSpec& spec,
                  const std::vector<ReplicationResult>& results,
                  const std::vector<std::exception_ptr>& errors) {
  for (const auto& e : errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  GridResult out;
  out.points.resize(spec.points);
  for (std::size_t p = 0; p < spec.points; ++p) {
    for (std::size_t r = 0; r < spec.replications; ++r) {
      out.points[p].add(results[p * spec.replications + r]);
    }
  }
  return out;
}

void check_spec(const GridSpec& spec) {
  ensure(spec.points > 0, "run_grid: need at least one point");
  ensure(spec.replications > 0, "run_grid: need at least one replication");
}

/// Runs task `i` into its own slot; an exception is kept for reduce().
void run_task(const ReplicationBody& body,
              const std::vector<ReplicationContext>& ctxs, std::size_t i,
              std::vector<ReplicationResult>& results,
              std::vector<std::exception_ptr>& errors) {
  try {
    results[i] = body(ctxs[i]);
  } catch (...) {
    errors[i] = std::current_exception();
  }
}

}  // namespace

void Reducer::add(const ReplicationResult& r) {
  if (count_ == 0) {
    metrics_.resize(r.values.size());
  } else {
    ensure(r.values.size() == metrics_.size(),
           "Reducer::add: replications of one point disagree on shape");
  }
  for (std::size_t i = 0; i < r.values.size(); ++i) metrics_[i].add(r.values[i]);
  merged_metrics_.merge(r.metrics);
  ++count_;
}

double Reducer::mean(std::size_t i) const {
  ensure(i < metrics_.size(), "Reducer::mean: metric index out of range");
  return metrics_[i].mean();
}

double Reducer::ci95(std::size_t i) const {
  ensure(i < metrics_.size(), "Reducer::ci95: metric index out of range");
  return sim::ci95_half_width(metrics_[i]);
}

GridResult run_grid(const GridSpec& spec, const ReplicationBody& body) {
  check_spec(spec);
  const auto t0 = Clock::now();
  const auto ctxs = derive_contexts(spec);
  std::vector<ReplicationResult> results(ctxs.size());
  std::vector<std::exception_ptr> errors(ctxs.size());

  // At most one thread per task: another would find no task to claim.
  const std::size_t threads = std::min(
      ctxs.size(),
      spec.threads != 0
          ? spec.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  {
    // Each thread claims the next unrun task index until the grid is
    // exhausted; leaving the scope joins them all.
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < ctxs.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
          run_task(body, ctxs, i, results, errors);
        }
      });
    }
  }

  GridResult out = reduce(spec, results, errors);
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.threads_used = threads;
  return out;
}

GridResult run_grid_sequential(const GridSpec& spec,
                               const ReplicationBody& body) {
  check_spec(spec);
  const auto t0 = Clock::now();
  const auto ctxs = derive_contexts(spec);
  std::vector<ReplicationResult> results(ctxs.size());
  std::vector<std::exception_ptr> errors(ctxs.size());
  for (std::size_t i = 0; i < ctxs.size(); ++i) {
    run_task(body, ctxs, i, results, errors);
  }
  GridResult out = reduce(spec, results, errors);
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  out.threads_used = 1;
  return out;
}

}  // namespace rh::exp
