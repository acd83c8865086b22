// Sharded control plane + batched session store + wave scheduling
// (DESIGN.md §12): hash routing, shard-local round-robin determinism,
// federated failover when a shard empties, one ring lap per request,
// per-host membership flips, SessionFleet downtime accounting, request
// conservation and due-tick placement, and the wave scheduler's
// signal-driven ordering / downtime-budget clamp.
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/sharded_balancer.hpp"
#include "simcore/check.hpp"
#include "simcore/parallel.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(ShardedBalancer, HashRoutingIsUniformAndStable) {
  // Four shards on the partitions after the control plane; routing needs
  // no backends and no run.
  sim::ParallelSimulation engine({.partitions = 5, .workers = 1});
  cluster::ShardedBalancer sb(engine, 4, /*first_shard_partition=*/1,
                              /*rpc_latency=*/200);
  std::vector<int> hits(4, 0);
  for (std::uint64_t k = 0; k < 10000; ++k) ++hits[sb.home_shard(k)];
  // Dense keys 0..M-1 must decorrelate through the splitmix64 finaliser:
  // every shard takes a fair share, not stripes of the key space.
  for (const int h : hits) EXPECT_GT(h, 2000);
  // The mapping is a pure function of (key, shard count).
  cluster::ShardedBalancer other(engine, 4, 1, 200);
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(other.home_shard(k), sb.home_shard(k));
  }
}

// Sharded cluster: hosts h belong to shard h % shards.
cluster::Cluster::Config sharded(int hosts, int shards, int vms = 1) {
  cluster::Cluster::Config c;
  c.hosts = hosts;
  c.shards = shards;
  c.vms_per_host = vms;
  c.files_per_vm = 8;
  c.file_size = 64 * sim::kKiB;
  return c;
}

std::uint64_t key_homed_to(const cluster::ShardedBalancer& sb,
                           std::size_t shard) {
  for (std::uint64_t k = 0;; ++k) {
    if (sb.home_shard(k) == shard) return k;
  }
}

TEST(ShardedBalancer, ShardLocalDispatchStaysOnOwnedBackends) {
  ClusterRig rig(sharded(2, 2, 2));  // shard 0 owns host 0's two VMs
  int served = 0;
  rig.run_on(rig.lb().shard_partition(0), [&] {
    for (int i = 0; i < 5; ++i) {
      rig.lb().dispatch_on(0, [&](bool ok) { served += ok ? 1 : 0; });
    }
  });
  rig.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 5);
  EXPECT_EQ(rig.lb().shard_dispatched(0), std::uint64_t{5});
  EXPECT_EQ(rig.lb().dispatched(), std::uint64_t{5});
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{0});
  // Shard 0 never touched host 1 (shard 1's backend).
  EXPECT_EQ(rig.served_by(0), std::uint64_t{5});
  EXPECT_EQ(rig.served_by(1), std::uint64_t{0});
}

TEST(ShardedBalancer, IdenticalRunsProduceIdenticalStateDigests) {
  auto run = [] {
    ClusterRig rig(sharded(2, 2, 2));
    (void)rig.serve({0, 1, 2, 3, 4, 5, 6});
    return rig.lb().state_digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(ShardedBalancer, EmptiedShardFailsOverDeterministically) {
  // Shard 0 owns hosts {0, 2}, shard 1 owns {1, 3}.
  ClusterRig rig(sharded(4, 2, 1));
  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_evicted(2, true);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});

  const std::uint64_t key = key_homed_to(rig.lb(), 0);
  int served = rig.serve({key, key});

  EXPECT_EQ(served, 2);
  // Both requests spilled over the ring to shard 1, which walked its own
  // round-robin: host 1 first, host 3 second.
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{2});
  EXPECT_EQ(rig.lb().shard_federated(1), std::uint64_t{2});
  EXPECT_EQ(rig.lb().shard_dispatched(1), std::uint64_t{2});
  EXPECT_EQ(rig.served_by(1), std::uint64_t{1});
  EXPECT_EQ(rig.served_by(3), std::uint64_t{1});
  EXPECT_EQ(rig.lb().rejected(), std::uint64_t{0});

  // Lifting the eviction restores home-shard service.
  rig.lb().set_host_evicted(0, false);
  rig.lb().set_host_evicted(2, false);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{0});
  served += rig.serve({key});
  EXPECT_EQ(served, 3);
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{2});  // unchanged
}

TEST(ShardedBalancer, AllBackendsEvictedRejects) {
  ClusterRig rig(sharded(2, 2, 1));
  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_evicted(1, true);
  bool called = false, ok = true;
  rig.run_on(0, [&] {
    rig.lb().dispatch(0, [&](bool served) {
      called = true;
      ok = served;
    });
  });
  rig.run_for(sim::kSecond);
  EXPECT_TRUE(called);  // the rejection comes back once the ring is walked
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.lb().rejected(), std::uint64_t{1});
  EXPECT_EQ(rig.lb().dispatched(), std::uint64_t{0});
}

// One lap: a request no shard can serve visits its home shard, hops once
// to each other shard and is rejected. Dispatched from the control
// partition that is one routing hop, S - 1 ring hops and the rejection
// reply: S + 1 engine messages on an S-shard ring.
TEST(ShardedBalancer, RejectedRequestMakesOneLapOfTheRing) {
  for (const int shards : {2, 4}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    ClusterRig rig(sharded(shards, shards, 1));  // shard s owns host s
    for (int h = 0; h < shards; ++h) {
      rig.lb().set_host_crashed(static_cast<std::size_t>(h), true);
    }
    const std::uint64_t before = rig.engine.messages_routed();
    rig.run_for(sim::kSecond);
    ASSERT_EQ(rig.engine.messages_routed(), before);  // the rig is idle
    EXPECT_EQ(rig.serve({0}), 0);
    EXPECT_EQ(rig.lb().rejected(), std::uint64_t{1});
    EXPECT_EQ(rig.engine.messages_routed() - before,
              static_cast<std::uint64_t>(shards) + 1);
  }
}

// A shard with no owned backend in rotation takes what is left of a
// request's walk in one step: its cursor advances by the candidates left,
// as the one-by-one walk's does, so once the shard refills the next
// request is served by the backend the walk would have picked.
TEST(ShardedBalancer, DryShardAdvancesTheCursorAsTheWalkDoes) {
  ClusterRig rig(sharded(6, 2, 1));  // shard 0 owns hosts {0, 2, 4}
  const std::uint64_t key = key_homed_to(rig.lb(), 0);
  rig.lb().set_host_crashed(2, true);
  rig.lb().set_host_crashed(4, true);
  // The request probes host 0 (cursor 0 -> 1). Host 0's crash lands on
  // shard 0 while the probe is in flight, so the reply finds the shard dry
  // with two candidates left (cursor 1 -> 3) and the request moves on to
  // shard 1.
  int served = 0;
  rig.run_on(0, [&] {
    rig.lb().dispatch(key, [&served](bool ok) { served += ok ? 1 : 0; });
    rig.lb().set_host_crashed(0, true);
  });
  rig.run_for(5 * sim::kSecond);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.lb().shard_federated(1), std::uint64_t{1});
  // Two more visits to the dry shard, a whole lap each (cursor 3 -> 9).
  served += rig.serve({key, key});
  EXPECT_EQ(served, 3);
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{3});
  // Refilled, shard 0 serves from cursor 9: its first backend, host 0.
  for (const std::size_t h : {0, 2, 4}) rig.lb().set_host_crashed(h, false);
  served += rig.serve({key});
  EXPECT_EQ(served, 4);
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{3});
  EXPECT_EQ(rig.served_by(0), std::uint64_t{1});
  EXPECT_EQ(rig.served_by(2), std::uint64_t{0});
  // The state the one-by-one walk leaves, cursors included (the digest a
  // build that walks every candidate prints).
  EXPECT_EQ(rig.lb().state_digest(), 0x87cafff04c01a49dull);
}

TEST(ShardedBalancer, CrashEvictionRoutesAroundThenReadmits) {
  ClusterRig rig(sharded(4, 2, 1));  // shard 0 owns hosts {0, 2}
  rig.lb().set_host_crashed(0, true);
  EXPECT_EQ(rig.lb().crashed_backends(), std::size_t{1});
  // The broadcast reaches every shard's membership view, not just the
  // owner's: spillover targets must also know the backend is dead.
  EXPECT_EQ(rig.lb().shard_unplanned_down(0), std::uint32_t{1});
  EXPECT_EQ(rig.lb().shard_unplanned_down(1), std::uint32_t{1});

  const std::uint64_t key = key_homed_to(rig.lb(), 0);
  int served = rig.serve({key});
  // The surviving home backend picks it up: no federation, no rejection.
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});
  EXPECT_EQ(rig.served_by(2), std::uint64_t{1});
  EXPECT_EQ(rig.lb().federated(), std::uint64_t{0});

  // Recovery readmits; the broadcast counter saw both membership flips
  // (and a redundant re-broadcast is not a flip).
  rig.lb().set_host_crashed(0, false);
  rig.lb().set_host_crashed(0, false);
  EXPECT_EQ(rig.lb().crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.lb().shard_unplanned_down(0), std::uint32_t{0});
  EXPECT_EQ(rig.lb().crash_broadcasts(), std::uint64_t{2});
  served += rig.serve({key});
  EXPECT_EQ(served, 2);
  EXPECT_EQ(rig.served_by(0), std::uint64_t{1});  // back in rotation
}

TEST(ShardedBalancer, CrashAndAdminEvictionAreIndependent) {
  ClusterRig rig(sharded(4, 2, 1));
  // Host 0 is both drained by the operator and crash-downed. The crash
  // recovery readmit must NOT cancel the admin drain.
  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_crashed(0, true);
  rig.lb().set_host_crashed(0, false);
  EXPECT_EQ(rig.lb().crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{1});

  const std::uint64_t key = key_homed_to(rig.lb(), 0);
  int served = rig.serve({key});
  EXPECT_EQ(served, 1);
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});  // still drained
  EXPECT_EQ(rig.served_by(2), std::uint64_t{1});

  // And the drain lifting alone restores service while a *new* crash
  // keeps the host out.
  rig.lb().set_host_evicted(0, false);
  rig.lb().set_host_crashed(0, true);
  served += rig.serve({key});
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});
  EXPECT_EQ(rig.served_by(2), std::uint64_t{2});
}

// Membership broadcasts flip a host's backends through the per-host index
// add_backend builds, so registration order must not matter: with
// backends registered for hosts 1, 0, 1, 0, crash and evict of host 0
// flip exactly host 0's two backends on every shard's view.
TEST(ShardedBalancer, HostFlagsFlipOnlyThatHostsBackendsOnEveryShard) {
  ClusterRig rig(sharded(2, 2, 2));  // shard partitions 1 and 2
  cluster::ShardedBalancer sb(rig.engine, 2, /*first_shard_partition=*/1,
                              rig.engine.lookahead());
  // b0 = host 1 vm 0, b1 = host 0 vm 0, b2 = host 1 vm 1, b3 = host 0 vm 1:
  // shard 0 owns b1 and b3, shard 1 owns b0 and b2.
  const std::pair<int, int> order[] = {{1, 0}, {0, 0}, {1, 1}, {0, 1}};
  for (const auto& [h, v] : order) {
    guest::GuestOs& os = rig.cl.guest(h, v);
    sb.add_backend({&os,
                    static_cast<guest::ApacheService*>(os.find_service("httpd")),
                    {0, 1}, static_cast<std::size_t>(h), rig.cl.partition_of(h)});
  }
  const auto served_by_vm = [&rig](int h, int v) {
    return static_cast<guest::ApacheService*>(
               rig.cl.guest(h, v).find_service("httpd"))
        ->requests_served();
  };

  enum class Flag { kCrashed, kEvicted };
  const auto set = [&sb](Flag flag, bool on) {
    switch (flag) {
      case Flag::kCrashed: sb.set_host_crashed(0, on); break;
      case Flag::kEvicted: sb.set_host_evicted(0, on); break;
    }
  };
  const auto flagged = [&sb](Flag flag, std::size_t shard) {
    switch (flag) {
      case Flag::kCrashed: return sb.crashed_backends(shard);
      case Flag::kEvicted: return sb.evicted_backends(shard);
    }
    return std::size_t{0};
  };
  for (const Flag flag : {Flag::kCrashed, Flag::kEvicted}) {
    for (const bool running : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "flag " << static_cast<int>(flag)
                   << (running ? ", broadcast while running" : ", quiescent"));
      const auto apply = [&](bool on) {
        if (running) {
          rig.run_on(0, [&set, flag, on] { set(flag, on); });
          rig.run_for(sim::kSecond);  // lands one RPC latency later
        } else {
          set(flag, on);
        }
      };
      apply(true);
      for (std::size_t s = 0; s < 2; ++s) EXPECT_EQ(flagged(flag, s), 2u);
      if (flag == Flag::kCrashed) {
        EXPECT_EQ(sb.shard_unplanned_down(0), 1u);
        EXPECT_EQ(sb.shard_unplanned_down(1), 1u);
      }
      // Two requests start on each shard. Shard 0's own backends are both
      // flagged, so its requests spill over to shard 1, whose backends
      // are both clear: host 1's two VMs take two requests each and host
      // 0 takes none.
      const std::uint64_t host0 = served_by_vm(0, 0) + served_by_vm(0, 1);
      const std::uint64_t vm10 = served_by_vm(1, 0);
      const std::uint64_t vm11 = served_by_vm(1, 1);
      int served = 0;
      for (std::size_t s = 0; s < 2; ++s) {
        rig.run_on(sb.shard_partition(s), [&sb, &served, s] {
          for (int r = 0; r < 2; ++r) {
            sb.dispatch_on(s, [&served](bool ok) { served += ok ? 1 : 0; });
          }
        });
      }
      rig.run_for(5 * sim::kSecond);
      EXPECT_EQ(served, 4);
      EXPECT_EQ(served_by_vm(0, 0) + served_by_vm(0, 1), host0);
      EXPECT_EQ(served_by_vm(1, 0), vm10 + 2);
      EXPECT_EQ(served_by_vm(1, 1), vm11 + 2);

      apply(false);
      for (std::size_t s = 0; s < 2; ++s) EXPECT_EQ(flagged(flag, s), 0u);
    }
  }
  EXPECT_EQ(sb.crash_broadcasts(), 4u);  // two flips per mode
}

// ------------------------------------------------------- session fleet

TEST(SessionFleet, ClosedLoopReachesFullAvailabilityWithoutFaults) {
  ClusterRig rig(sharded(2, 2, 2));
  cluster::SessionFleet fleet(rig.lb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.engine);
  rig.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.now());
  rig.run_for(10 * sim::kSecond);
  fleet.stop();
  const auto stats = fleet.stats(rig.now());
  EXPECT_GT(stats.completions, std::uint64_t{0});
  EXPECT_EQ(stats.failures, std::uint64_t{0});
  EXPECT_EQ(stats.sessions_down_at_end, std::uint64_t{0});
  EXPECT_DOUBLE_EQ(stats.pooled_availability, 1.0);
  EXPECT_DOUBLE_EQ(stats.availability_p99, 1.0);
  EXPECT_DOUBLE_EQ(stats.availability_p999, 1.0);
  EXPECT_EQ(fleet.session_count(), std::uint64_t{16});
}

TEST(SessionFleet, OutageChargesPerSessionDowntimeIntoPercentiles) {
  ClusterRig rig(sharded(2, 2, 2));
  cluster::SessionFleet fleet(rig.lb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.engine);
  rig.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.now());

  // Total outage: every dispatch fails, sessions go down at their issue
  // time and stay down until service returns.
  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_evicted(1, true);
  rig.run_for(5 * sim::kSecond);
  const auto mid = fleet.stats(rig.now());
  EXPECT_GT(mid.failures, std::uint64_t{0});
  EXPECT_GT(mid.sessions_down_at_end, std::uint64_t{0});
  EXPECT_LT(mid.pooled_availability, 1.0);

  rig.lb().set_host_evicted(0, false);
  rig.lb().set_host_evicted(1, false);
  rig.run_for(10 * sim::kSecond);
  fleet.stop();
  const auto stats = fleet.stats(rig.now());
  EXPECT_GT(stats.completions, std::uint64_t{0});
  EXPECT_EQ(stats.sessions_down_at_end, std::uint64_t{0});  // all recovered
  // The outage shows up both pooled and in the per-session tail.
  EXPECT_LT(stats.pooled_availability, 1.0);
  EXPECT_LT(stats.availability_p99, 1.0);
  EXPECT_GT(stats.session_downtime.percentile(0.99), 0);
}

// Issues balance replies: stats() ensure()s issued + in flight at begin ==
// completions + failures + in flight at end, across an outage, a
// recovery and a stop (after which replies are dropped, so the requests
// out at the stop stay in flight).
TEST(SessionFleet, IssuesBalanceRepliesAndRequestsInFlight) {
  ClusterRig rig(sharded(2, 2, 2));
  cluster::SessionFleet fleet(rig.lb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.engine);
  rig.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.now());

  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_evicted(1, true);
  rig.run_for(5 * sim::kSecond);
  const auto outage = fleet.stats(rig.now());
  EXPECT_GT(outage.failures, std::uint64_t{0});
  EXPECT_LE(outage.in_flight, std::uint64_t{16});

  rig.lb().set_host_evicted(0, false);
  rig.lb().set_host_evicted(1, false);
  rig.run_for(10 * sim::kSecond);
  fleet.stop();
  const auto at_stop = fleet.stats(rig.now());
  EXPECT_GT(at_stop.completions, outage.completions);
  EXPECT_GT(at_stop.in_flight, std::uint64_t{0});

  rig.run_for(5 * sim::kSecond);
  const auto later = fleet.stats(rig.now());
  EXPECT_EQ(later.in_flight, at_stop.in_flight);
  EXPECT_EQ(later.completions, at_stop.completions);
  EXPECT_EQ(later.failures, at_stop.failures);
}

// Due-tick placement. Session 0's first issue is staggered by
// hash_key(~0) % (think_base + think_spread + 1) after start, so a tick
// period derived from that offset puts it exactly on, or 1 us after, a
// tick.
sim::Duration first_due_offset(sim::Duration think_base) {
  return static_cast<sim::Duration>(
      cluster::ShardedBalancer::hash_key(~std::uint64_t{0}) %
      static_cast<std::uint64_t>(think_base + 1));
}

/// Runs every partition to `t`; returns the sessions then in flight.
std::uint64_t in_flight_at(ClusterRig& rig, const cluster::SessionFleet& fleet,
                           sim::SimTime t) {
  rig.engine.run_until(t);
  return fleet.stats(t).in_flight;
}

TEST(SessionFleet, SessionDueOnATickIssuesAtThatTick) {
  ClusterRig rig(sharded(1, 1, 1));
  const sim::Duration offset = first_due_offset(10 * sim::kSecond);
  ASSERT_GT(offset, sim::kSecond);
  cluster::SessionFleet fleet(rig.lb(), {.sessions = 1,
                                         .think_base = 10 * sim::kSecond,
                                         .think_spread = 0,
                                         .tick = offset});
  const sim::SimTime t0 = rig.now();
  fleet.start(rig.engine);
  ASSERT_EQ(fleet.next_due(0), t0 + offset);  // exactly tick 1
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + offset - 1), 0u);
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + offset), 1u);
}

TEST(SessionFleet, SessionDueJustAfterATickWaitsForTheNext) {
  ClusterRig rig(sharded(1, 1, 1));
  const sim::Duration tick = first_due_offset(10 * sim::kSecond) - 1;
  ASSERT_GT(tick, sim::kSecond);
  cluster::SessionFleet fleet(rig.lb(), {.sessions = 1,
                                         .think_base = 10 * sim::kSecond,
                                         .think_spread = 0,
                                         .tick = tick});
  const sim::SimTime t0 = rig.now();
  fleet.start(rig.engine);
  ASSERT_EQ(fleet.next_due(0), t0 + tick + 1);  // 1 us after tick 1
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + tick), 0u);
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + 2 * tick - 1), 0u);
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + 2 * tick), 1u);
}

// With zero think time a reply makes its session due at once. When the
// reply lands on a tick instant after that tick already ran, the session
// waits for the next tick.
TEST(SessionFleet, SessionDueAtATickThatAlreadyRanWaitsForTheNext) {
  // First measure the round trip D of a lone session's first request (it
  // issues at start, since its stagger is 0 with zero think time).
  const cluster::SessionFleet::Config think0{.sessions = 1,
                                             .think_base = 0,
                                             .think_spread = 0,
                                             .tick = sim::kSecond};
  sim::Duration round_trip = 0;
  {
    ClusterRig rig(sharded(1, 1, 1));
    cluster::SessionFleet fleet(rig.lb(), think0);
    const sim::SimTime t0 = rig.now();
    fleet.start(rig.engine);
    rig.engine.run_until(t0 + sim::kSecond - 1);
    ASSERT_EQ(fleet.stats(rig.now()).completions, 1u);
    round_trip = fleet.next_due(0) - t0;
  }
  ASSERT_GT(round_trip, 0);

  // Same rig with tick = D: the reply lands at tick 1's instant, after
  // tick 1 ran (it was scheduled at start, before the reply was sent).
  ClusterRig rig(sharded(1, 1, 1));
  cluster::SessionFleet::Config config = think0;
  config.tick = round_trip;
  cluster::SessionFleet fleet(rig.lb(), config);
  const sim::SimTime t0 = rig.now();
  fleet.start(rig.engine);
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + round_trip), 0u);
  ASSERT_EQ(fleet.next_due(0), t0 + round_trip);  // due now, tick 1 gone
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + 2 * round_trip - 1), 0u);
  EXPECT_EQ(in_flight_at(rig, fleet, t0 + 2 * round_trip), 1u);
}

// Sessions due in one tick issue in ascending index, whatever order their
// replies filed them in. Host 0 is down but still in rotation, so on the
// one shard's round robin the first request of a tick probes host 0's
// backend, finds it down and is served by host 2 later than the second
// request, which goes straight to host 1. With zero think time next_due is
// the completion time, so the session issued first completes last.
TEST(SessionFleet, SessionsDueInOneTickIssueInAscendingIndex) {
  ClusterRig rig(sharded(3, 1, 1));  // one shard owns all three hosts' VMs
  bool down = false;
  rig.cl.host(0).shutdown_dom0([&down] { down = true; });
  rig.run_while([&down] { return !down; });
  cluster::SessionFleet fleet(rig.lb(), {.sessions = 2,
                                         .think_base = 0,
                                         .think_spread = 0,
                                         .tick = sim::kSecond});
  const sim::SimTime t0 = rig.now();
  fleet.start(rig.engine);
  // Tick 0: both sessions are due at start, and session 0 issues first.
  rig.engine.run_until(t0 + sim::kSecond - 1);
  ASSERT_EQ(fleet.stats(rig.now()).completions, 2u);
  EXPECT_GT(fleet.next_due(0), fleet.next_due(1));
  // Tick 1: session 1's reply filed it first, but session 0 still issues
  // first (the round robin is back at host 0's backend).
  rig.engine.run_until(t0 + 2 * sim::kSecond - 1);
  ASSERT_EQ(fleet.stats(rig.now()).completions, 4u);
  EXPECT_GT(fleet.next_due(0), fleet.next_due(1));
  EXPECT_GT(fleet.next_due(1), t0 + sim::kSecond);
}

// ------------------------------------------------------ wave scheduling

TEST(ClusterWaves, OrderFollowsLoadSignalsWithIndexTieBreak) {
  ClusterRig rig(sharded(3, 3, 1));  // shard s owns host s
  // Only host 2 carries traffic, so it must be rejuvenated last; hosts 0
  // and 1 tie at zero load (and unlimited preserved headroom) and fall
  // back to index order.
  int served = 0;
  rig.run_on(rig.lb().shard_partition(2), [&] {
    for (int i = 0; i < 6; ++i) {
      rig.lb().dispatch_on(2, [&](bool ok) { served += ok ? 1 : 0; });
    }
  });
  rig.run_for(5 * sim::kSecond);
  ASSERT_EQ(served, 6);

  const auto report = rig.run_waves({.wave_size = 1});
  ASSERT_EQ(report.waves.size(), std::size_t{3});
  EXPECT_EQ(report.waves[0].hosts, (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.waves[1].hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.waves[2].hosts, (std::vector<std::size_t>{2}));
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{3});
  for (const auto& w : report.waves) EXPECT_LT(w.started, w.finished);
  EXPECT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{3});
}

TEST(ClusterWaves, OverlappingPassesAreRejected) {
  ClusterRig rig(sharded(2, 1, 1));
  bool done = false;
  rig.start_waves({.wave_size = 2}, done);
  rig.run_while([&rig] { return !rig.cl.rolling_in_progress(); });
  EXPECT_TRUE(rig.cl.rolling_in_progress());
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves({}, [](auto&) {}),
               InvariantViolation);
  rig.run_while([&done] { return !done; });
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // The concurrent wave ran both hosts together (one wave, two durations).
  EXPECT_EQ(rig.cl.last_wave_report().waves.size(), std::size_t{1});
  EXPECT_EQ(rig.cl.rejuvenation_durations().size(), std::size_t{2});
}

TEST(ClusterWaves, SignalsMirrorIntoMetricsWhenObserved) {
  cluster::Cluster::Config cfg = sharded(2, 1, 1);
  cfg.observe = true;
  ClusterRig rig(cfg);
  (void)rig.run_waves({.wave_size = 1});
  for (int h = 0; h < 2; ++h) {
    auto& metrics = rig.cl.host(h).obs().metrics();
    bool saw_load = false, saw_headroom = false;
    for (const auto& g : metrics.gauges()) {
      saw_load = saw_load || g.name == "host.load";
      saw_headroom = saw_headroom || g.name == "host.preserved_headroom";
    }
    EXPECT_TRUE(saw_load);
    EXPECT_TRUE(saw_headroom);
  }
}

}  // namespace
}  // namespace rh::test
