// Closed-loop clients driving the cluster through its ShardedBalancer.
//
// ClusterClientFleet is the paper-scale fleet behind Fig. 9: a handful of
// connections, each one heap-allocated callback chain, so it tops out
// around thousands of sessions. SessionFleet holds a million-session
// closed loop as struct-of-arrays: per shard, a flat slice of (next_due,
// issued_at, down_since, downtime, counters) columns plus a ring of
// due-tick buckets. A session that goes idle is filed under the first
// tick at or after its next_due that has not yet run; each tick issues
// its bucket in ascending session index through the session's pinned
// balancer shard, so a tick touches only the sessions it issues, in the
// order a scan of the whole slice would find them. No per-session
// allocations, no per-session timers: one ticker event per shard drives
// the whole slice (DESIGN.md §12).
//
// Sessions are block-assigned to shards; each slice lives on its shard's
// partition of the parallel engine, so the ticks themselves are
// parallel-in-run and every mutation of a slice happens on its owning
// partition.
//
// Why two fleets: ClusterClientFleet reissues the moment a request
// completes, with no think time, and records a completion timeline
// (RateRecorder) that Fig. 9 and the cluster example plot. SessionFleet
// issues only from its batched tick and keeps no timeline. Folding one
// into the other would add a reissue-now branch and a timeline to the
// tick the 1000-host runs measure, so shared code would branch on which
// caller it serves.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/sharded_balancer.hpp"
#include "simcore/histogram.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time_series.hpp"

namespace rh::cluster {

/// Closed-loop client fleet driving the whole cluster through the
/// balancer; completions feed the Fig. 9-style throughput timeline.
/// Connection c dispatches every request with session key c, so on a
/// one-shard balancer all connections share the one round-robin cursor.
/// Start it from `sim`'s partition (engine.run_on): every reply lands
/// back on the calling partition.
class ClusterClientFleet {
 public:
  struct Config {
    int connections = 16;
  };

  ClusterClientFleet(sim::Simulation& sim, ShardedBalancer& balancer,
                     Config config);
  ClusterClientFleet(const ClusterClientFleet&) = delete;
  ClusterClientFleet& operator=(const ClusterClientFleet&) = delete;

  void start();
  void stop();

  [[nodiscard]] const sim::RateRecorder& completions() const { return completions_; }

 private:
  void issue(int connection);

  sim::Simulation& sim_;
  ShardedBalancer& balancer_;
  Config config_;
  sim::RateRecorder completions_;
  bool started_ = false;
  bool stopped_ = false;
};

class SessionFleet {
 public:
  struct Config {
    std::uint64_t sessions = 0;
    /// Closed-loop think time: session g waits think_base plus a
    /// deterministic per-session offset in [0, think_spread) between its
    /// completions (hash-staggered, zero RNG draws).
    sim::Duration think_base = 10 * sim::kSecond;
    sim::Duration think_spread = 10 * sim::kSecond;
    /// Back-off after a failed request (the session is down until a
    /// retry succeeds).
    sim::Duration retry_interval = 1 * sim::kSecond;
    /// Batched-issue period: each shard's slice issues its due sessions
    /// once per tick.
    sim::Duration tick = 250 * sim::kMillisecond;
  };

  /// Pooled results over the measurement window (begin_window .. end).
  struct Stats {
    std::uint64_t completions = 0;
    std::uint64_t failures = 0;
    std::uint64_t sessions_down_at_end = 0;
    /// Sessions with a request outstanding at window end. stats()
    /// ensure()s issues + in flight at begin == completions + failures +
    /// in flight at end.
    std::uint64_t in_flight = 0;
    sim::LatencyHistogram request_latency;
    /// Per-session total downtime inside the window (one sample per
    /// session, including the zero-downtime majority).
    sim::LatencyHistogram session_downtime;
    /// 1 - p(downtime)/window: the availability the worst 1% / 0.1% of
    /// sessions still saw.
    double availability_p99 = 1.0;
    double availability_p999 = 1.0;
    /// 1 - total_downtime / (sessions * window).
    double pooled_availability = 1.0;
    /// Pooled downtime split by cause (DESIGN.md §14): an outage is
    /// charged as unplanned when the session's shard knew of at least one
    /// crash-downed host at the moment the outage began, and as planned
    /// (wave / admin eviction) otherwise.
    sim::Duration planned_downtime = 0;
    sim::Duration unplanned_downtime = 0;
  };

  SessionFleet(ShardedBalancer& balancer, Config config);
  SessionFleet(const SessionFleet&) = delete;
  SessionFleet& operator=(const SessionFleet&) = delete;

  /// Slice s ticks on its shard's partition. Call while the engine is
  /// quiescent (seeds the tickers with run_on).
  void start(sim::ParallelSimulation& engine);
  void stop();

  /// Resets the measurement window at `now`: zeroes per-session downtime
  /// and counters; sessions currently down start the window down at
  /// `now`. Quiescent callers only (after boot/warmup).
  void begin_window(sim::SimTime now);

  /// Pooled stats for [begin_window .. window_end]. Open downtime is
  /// charged up to window_end. Quiescent callers only.
  [[nodiscard]] Stats stats(sim::SimTime window_end) const;

  [[nodiscard]] std::uint64_t session_count() const { return config_.sessions; }
  /// When session `session` is next due: its first issue time, then its
  /// last reply's time plus its think time (retry interval after a
  /// failure). Quiescent reads only.
  [[nodiscard]] sim::SimTime next_due(std::uint64_t session) const;
  /// FNV-1a over every session's outcome columns; worker-count
  /// invariant. Quiescent reads only.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// One shard's session columns, cache-line padded: a slice is touched
  /// only from its shard's partition.
  struct alignas(64) Slice {
    std::uint64_t first = 0;  ///< global index of this slice's session 0
    sim::Simulation* sim = nullptr;
    std::vector<sim::SimTime> next_due;
    std::vector<sim::SimTime> issued_at;   ///< kIdle when not in flight
    std::vector<sim::SimTime> down_since;  ///< kUp when healthy
    std::vector<sim::Duration> downtime;   ///< closed downtime this window
    /// Unplanned share of `downtime` (cause sampled at outage start).
    std::vector<sim::Duration> downtime_unplanned;
    /// 1 while the open outage began under a known crash-down host.
    std::vector<std::uint8_t> down_unplanned;
    std::vector<std::uint32_t> completions;
    std::vector<std::uint32_t> failures;
    sim::LatencyHistogram latency;
    /// Due-tick buckets: tick k runs at tick0 + k * Config::tick and
    /// issues ring[k % ring.size()]. Every idle session sits in exactly
    /// one bucket; in-flight sessions sit in none.
    std::vector<std::vector<std::uint32_t>> ring;
    std::vector<std::uint32_t> issuing;  ///< the bucket the running tick issues
    sim::SimTime tick0 = 0;
    std::uint64_t next_tick = 0;  ///< first tick that has not run yet
    std::uint64_t issued = 0;     ///< requests issued this window
    std::uint64_t in_flight_at_begin = 0;
  };
  static constexpr sim::SimTime kIdle = -1;
  static constexpr sim::SimTime kUp = -1;

  void tick(std::uint32_t shard);
  /// Files idle session i under the first tick not yet run whose time is
  /// at or after its next_due.
  void file(Slice& sl, std::uint32_t i) const;
  void issue(std::uint32_t shard, std::uint32_t i);
  void on_reply(std::uint32_t shard, std::uint32_t i, bool ok);
  [[nodiscard]] sim::Duration think_of(std::uint64_t global) const;

  ShardedBalancer& balancer_;
  Config config_;
  std::vector<Slice> slices_;
  sim::SimTime window_start_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace rh::cluster
