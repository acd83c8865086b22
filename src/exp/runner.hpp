// Parallel, deterministic replication runner.
//
// The paper's evaluation is a grid of independent experiment points
// (memory sizes, VM counts, reboot kinds), and each point should be
// replicated under different seeds to report a confidence interval
// instead of a single draw. This runner fans the (point x replication)
// grid out across worker threads while keeping the merged output
// *byte-identical* no matter how many threads run it:
//
//  1. Every replication gets a private RNG substream derived on the
//     calling thread, before any task runs, by walking Rng::split() in
//     (point, replication) lexicographic order from the root seed. The
//     substream therefore depends only on (root seed, point index,
//     replication index), never on scheduling.
//  2. Every task owns its simulation outright and writes its
//     ReplicationResult into a preallocated slot; tasks share nothing.
//  3. Reduction happens after the workers are joined, on the calling
//     thread, in replication-index order (Summary::merge and the registry
//     merge are order-fixed), so floating-point reassociation cannot
//     creep in.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "simcore/random.hpp"
#include "simcore/stats.hpp"

namespace rh::exp {

/// Identity and private random substream of one replication task.
struct ReplicationContext {
  std::size_t point_index = 0;
  std::size_t replication_index = 0;
  /// First draw of the substream, for components that take a plain seed
  /// (e.g. vmm::Host). Distinct across the whole grid.
  std::uint64_t seed = 0;
  /// The substream itself (already past the `seed` draw). Copy it if the
  /// replication needs several independent generators.
  sim::Rng rng;
};

/// Everything one replication reports back. `values` carries the scalar
/// metrics in the order the bench declares them.
struct ReplicationResult {
  std::vector<double> values;
  /// Named observability metrics of this replication (typically moved out
  /// of a host's Observer). Merged per point in replication-index order,
  /// like everything else, so the merged registry is thread-count
  /// independent.
  obs::MetricsRegistry metrics;
};

/// Order-fixed reduction of one grid point's replications. add() must be
/// called in replication-index order (run_grid does); the resulting
/// Summaries and merged metrics are then independent of how the
/// replications were scheduled.
class Reducer {
 public:
  /// Folds one replication in. All results of a point must agree on the
  /// number of values.
  void add(const ReplicationResult& r);

  [[nodiscard]] std::size_t replications() const { return count_; }
  [[nodiscard]] const std::vector<sim::Summary>& metrics() const {
    return metrics_;
  }
  /// Union of every replication's named metrics (counters summed,
  /// histograms/summaries merged in add() order).
  [[nodiscard]] const obs::MetricsRegistry& merged_metrics() const {
    return merged_metrics_;
  }

  /// Mean of metric `i` across replications.
  [[nodiscard]] double mean(std::size_t i) const;
  /// Half-width of the 95 % confidence interval of metric `i` (0 if < 2
  /// replications).
  [[nodiscard]] double ci95(std::size_t i) const;

 private:
  std::vector<sim::Summary> metrics_;
  obs::MetricsRegistry merged_metrics_;
  std::size_t count_ = 0;
};

/// Declares a replication grid: `points` sweep points, each replicated
/// `replications` times.
struct GridSpec {
  std::size_t points = 1;
  std::size_t replications = 1;
  std::uint64_t root_seed = 7;
  /// Worker threads; 0 = one per hardware thread (at least 1).
  std::size_t threads = 0;
};

/// One replication body: maps (point, substream) to a result. Must be
/// deterministic given the context and must not touch shared state.
using ReplicationBody =
    std::function<ReplicationResult(const ReplicationContext&)>;

/// The reduced grid: one Reducer per point, plus run telemetry.
struct GridResult {
  std::vector<Reducer> points;
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;

  [[nodiscard]] const Reducer& point(std::size_t p) const { return points[p]; }
};

/// Runs the grid on min(`threads`, task count) worker threads (`threads`
/// 0 = one per hardware thread), each claiming the next unrun task from
/// one shared counter, and reduces in fixed order after joining them;
/// `threads_used` reports the count started. The merged result is
/// byte-identical for any thread count (see file comment). An exception
/// thrown by a body is rethrown here, lowest task index first.
GridResult run_grid(const GridSpec& spec, const ReplicationBody& body);

/// Reference implementation: same contexts, same reduction, plain loop on
/// the calling thread. Baseline for runner_bench, and the oracle the
/// determinism tests compare against.
GridResult run_grid_sequential(const GridSpec& spec,
                               const ReplicationBody& body);

}  // namespace rh::exp
