// The cluster's load balancer (Section 6: "a load balancer dispatches
// requests to one of these hosts"), sharded and federated so it scales to
// the datacenter-size fig9 run.
//
// The balancer partitions the session space by session-key hash across N
// shards. Each shard owns a disjoint subset of the backends (host h's VMs
// belong to shard h % N), keeps its own round-robin cursor and
// per-backend file cursors, and lives on its own partition of the
// parallel engine, so dispatch is parallel-in-run (DESIGN.md §12). With
// one shard it is the paper's single round-robin balancer; the cluster
// then places that shard on its control partition.
//
// Federation: when a shard's own backends are all evicted, crash-down or
// unreachable, the request spills over to the next shard in ring order.
// It makes one lap: its home shard, then one hop per other shard, then it
// is served or rejected. Ring order from the home shard is a pure
// function of the session key, so failover is deterministic and bitwise
// identical for any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "simcore/parallel.hpp"

namespace rh::cluster {

class ShardedBalancer {
 public:
  struct Backend {
    guest::GuestOs* os = nullptr;
    guest::ApacheService* apache = nullptr;
    std::vector<std::int64_t> files;  ///< replicated content on this backend
    std::size_t host_index = 0;       ///< owning host; decides the shard
    /// Event partition the backend's host lives on; probes and serves are
    /// RPCs to it.
    std::int32_t partition = -1;
  };

  /// Shard s lives on partition first_shard_partition + s of `engine`
  /// and reaches backends over request/reply RPCs with one-way latency
  /// `rpc_latency` (>= the engine lookahead). dispatch()/dispatch_on()
  /// must be called from inside partition execution.
  ShardedBalancer(sim::ParallelSimulation& engine, std::size_t shards,
                  std::int32_t first_shard_partition,
                  sim::Duration rpc_latency);
  ShardedBalancer(const ShardedBalancer&) = delete;
  ShardedBalancer& operator=(const ShardedBalancer&) = delete;

  /// splitmix64 finaliser: decorrelates dense session keys before the
  /// modulo so shard assignment is uniform even for keys 0..M-1.
  [[nodiscard]] static std::uint64_t hash_key(std::uint64_t key);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t backend_count() const { return backends_.size(); }
  [[nodiscard]] std::size_t home_shard(std::uint64_t key) const {
    return static_cast<std::size_t>(hash_key(key) % shards_.size());
  }

  /// Registers a backend with its owning shard (host_index % shards).
  /// Topology is fixed at setup: call only while the engine is quiescent.
  void add_backend(Backend backend);

  [[nodiscard]] std::int32_t shard_partition(std::size_t shard) const {
    return first_shard_partition_ + static_cast<std::int32_t>(shard);
  }

  /// Administratively removes (or restores) every backend on `host_index`
  /// from rotation, on every shard's membership view. Quiescent callers
  /// update the views directly; while the engine runs, the change is
  /// broadcast through the mailboxes and lands on all shards one RPC
  /// latency later (deterministically, like any other message).
  void set_host_evicted(std::size_t host_index, bool evicted);
  /// Crash-evict/readmit membership broadcast for *unplanned* downtime
  /// (DESIGN.md §14): takes a crashed host's backends out of every shard's
  /// view like an administrative eviction, but on its own flag so a crash
  /// readmit can never cancel an administrative eviction (or vice versa).
  /// Re-broadcasting the current state is a no-op shard-side, so the
  /// membership counters stay balanced.
  void set_host_crashed(std::size_t host_index, bool crashed);

  /// Dispatches one request for `key` starting at its home shard. Call
  /// from inside partition execution; `done` fires on the calling
  /// partition. A caller already on the home shard's partition (the
  /// one-shard cluster's control plane) starts there at once; any other
  /// pays one routing hop.
  void dispatch(std::uint64_t key, std::function<void(bool)> done);

  /// Fast path for callers already executing on `shard`'s partition (the
  /// batched session fleet pins sessions to shards): skips the initial
  /// routing hop; `done` fires on that same partition.
  void dispatch_on(std::size_t shard, std::function<void(bool)> done);

  /// Aggregate counters (sum over shards). Quiescent reads only.
  [[nodiscard]] std::uint64_t dispatched() const;
  [[nodiscard]] std::uint64_t rejected() const;
  /// Requests served by a shard other than their home shard (spillover).
  [[nodiscard]] std::uint64_t federated() const;
  [[nodiscard]] std::uint64_t shard_dispatched(std::size_t shard) const {
    return shards_[shard].dispatched;
  }
  [[nodiscard]] std::uint64_t shard_federated(std::size_t shard) const {
    return shards_[shard].federated;
  }
  /// Backends evicted on `shard`'s view (all views agree when quiescent).
  [[nodiscard]] std::size_t evicted_backends(std::size_t shard = 0) const;
  /// Backends crash-evicted on `shard`'s view. Quiescent reads only.
  [[nodiscard]] std::size_t crashed_backends(std::size_t shard = 0) const;
  /// Hosts this shard's view currently knows to be crash-down. Safe to
  /// read from the shard's own partition mid-run: the session fleet uses
  /// it to attribute a beginning outage as planned vs unplanned.
  [[nodiscard]] std::uint32_t shard_unplanned_down(std::size_t shard) const {
    return shards_[shard].crashed_hosts;
  }
  /// Crash-evict/readmit broadcasts applied to shard 0's view (monotone).
  [[nodiscard]] std::uint64_t crash_broadcasts() const {
    return shards_.front().crash_events;
  }

  /// FNV-1a over every shard's cursors, counters and membership views;
  /// worker-count invariant. Quiescent reads only.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// Per-shard hot state, cache-line padded: each shard is touched only
  /// from its own partition, so shards never share lines.
  struct alignas(64) Shard {
    std::vector<std::uint32_t> owned;      ///< backend indices, add order
    std::size_t rr = 0;                    ///< shard-local round-robin
    std::uint32_t in_rotation = 0;  ///< owned backends neither evicted nor crashed
    std::vector<std::uint8_t> evicted;     ///< per-backend membership view
    std::vector<std::uint8_t> crashed;     ///< per-backend crash-down view
    std::vector<std::uint32_t> next_file;  ///< shard-local file cursors
    std::uint64_t dispatched = 0;
    std::uint64_t rejected = 0;
    std::uint64_t federated = 0;
    std::uint32_t crashed_hosts = 0;  ///< hosts currently crash-down here
    std::uint64_t crash_events = 0;   ///< crash broadcasts applied (monotone)
  };
  /// One in-flight request walking the ring. Probes are one RPC at a
  /// time; the reply re-checks the shard's membership view before the
  /// serve is issued (an eviction during the probe's flight must win).
  struct Request {
    std::function<void(bool)> done;
    std::int32_t reply_partition = -1;  ///< where done() must run
    std::uint32_t home_shard = 0;
    std::uint32_t current_shard = 0;
    std::uint32_t shards_left = 0;  ///< shards left on the lap, this one too
    std::uint32_t probes_left = 0;  ///< candidates left on current shard
  };

  /// Applies `update(shard)` to every shard's membership view: directly
  /// when quiescent, otherwise posted to each shard's partition in shard
  /// order, landing one RPC latency later (deterministically, like any
  /// other message).
  template <class Update>
  void broadcast(const Update& update);
  void start_on(std::size_t shard, std::function<void(bool)> done);
  void try_shard(std::shared_ptr<Request> state);
  void probe_reply(bool up, std::uint32_t b, std::shared_ptr<Request> state);
  void serve(Shard& sh, std::uint32_t b, std::shared_ptr<Request> state);
  void next_ring_hop(std::shared_ptr<Request> state);
  [[nodiscard]] bool quiescent() const { return !engine_.running(); }
  /// Sets `view` (`sh.evicted` or `sh.crashed`) on every backend of
  /// `host_index` and keeps `sh.in_rotation` in step; true when any flag
  /// flipped.
  bool mark_host(Shard& sh, std::vector<std::uint8_t>& view,
                 std::size_t host_index, bool on) const;

  std::vector<Backend> backends_;  ///< append-only; frozen once running
  /// Per-host backend index built by add_backend, so a membership
  /// broadcast flips one host's backends without walking the fleet.
  std::vector<std::vector<std::uint32_t>> host_backends_;
  std::vector<Shard> shards_;
  sim::ParallelSimulation& engine_;
  std::int32_t first_shard_partition_;
  sim::Duration rpc_latency_;
};

}  // namespace rh::cluster
