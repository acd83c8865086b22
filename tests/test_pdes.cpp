// Conservative parallel DES engine (DESIGN.md §11): safe-window
// computation, mailbox merge order, zero-lookahead rejection, the
// cross-partition scheduling guard, and the bitwise 1-vs-N-worker digest
// contract on the fig9 cluster topology.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/vm_migrator.hpp"
#include "simcore/check.hpp"
#include "simcore/hash.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;

TEST(PdesEngine, LookaheadIsMinRegisteredLink) {
  sim::ParallelSimulation eng({.partitions = 3, .workers = 1});
  eng.register_link(500);
  eng.register_link(300);
  eng.register_link(450);
  EXPECT_EQ(eng.lookahead(), 300);
}

TEST(PdesEngine, ZeroLookaheadRejected) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  EXPECT_THROW(eng.register_link(0), InvariantViolation);
  EXPECT_THROW(eng.register_link(-5), InvariantViolation);
  // No links registered at all: the engine cannot open any safe window.
  EXPECT_THROW(eng.run_until(10), InvariantViolation);
}

TEST(PdesEngine, CrossPartitionPostBelowLookaheadThrows) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  eng.run_on(0, [&eng] { eng.post(1, 99, [] {}); });
  EXPECT_THROW(eng.run_until(1000), InvariantViolation);
}

TEST(PdesEngine, SamePartitionPostMayUndercutLookahead) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  bool fired = false;
  eng.run_on(0, [&eng, &fired] { eng.post(0, 1, [&fired] { fired = true; }); });
  eng.run_until(1000);
  EXPECT_TRUE(fired);
}

TEST(PdesEngine, PostOutsidePartitionContextThrows) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  EXPECT_THROW(eng.post(1, 200, [] {}), InvariantViolation);
}

TEST(PdesEngine, MessageArrivesAtSendTimePlusDelay) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(300);
  sim::SimTime arrived_at = -1;
  eng.run_on(0, [&] { eng.post(1, 300, [&] { arrived_at = eng.partition(1).now(); }); });
  eng.run_until(1000);
  EXPECT_EQ(arrived_at, 300);
  EXPECT_EQ(eng.messages_routed(), 1u);
  EXPECT_EQ(eng.partition(0).now(), 1000);
  EXPECT_EQ(eng.partition(1).now(), 1000);
}

TEST(PdesEngine, RunUntilExecutesEventsExactlyAtDeadline) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  bool fired = false;
  eng.run_on(0, [&] { eng.partition(0).after(250, [&fired] { fired = true; }); });
  eng.run_until(250);
  EXPECT_TRUE(fired);
  EXPECT_EQ(eng.partition(0).now(), 250);
  EXPECT_EQ(eng.partition(1).now(), 250);
}

// Same-time cross-partition deliveries must merge in (time, dst, src,
// seq) order -- per-sender program order preserved, senders ordered by
// partition id -- for every worker count.
TEST(PdesEngine, MailboxMergeOrderIsTimeDstSrcSeq) {
  std::vector<std::vector<std::pair<int, int>>> logs;
  for (std::size_t workers : {1u, 2u, 3u}) {
    sim::ParallelSimulation eng({.partitions = 3, .workers = workers});
    eng.register_link(100);
    std::vector<std::pair<int, int>> log;
    // Seed partition 2 first: arrival order must come from the sort key,
    // not from seeding or execution order.
    eng.run_on(2, [&] {
      eng.post(0, 100, [&log] { log.emplace_back(2, 0); });
      eng.post(0, 100, [&log] { log.emplace_back(2, 1); });
    });
    eng.run_on(1, [&] {
      eng.post(0, 100, [&log] { log.emplace_back(1, 0); });
      eng.post(0, 100, [&log] { log.emplace_back(1, 1); });
    });
    eng.run_until(500);
    logs.push_back(std::move(log));
  }
  const std::vector<std::pair<int, int>> want = {{1, 0}, {1, 1}, {2, 0}, {2, 1}};
  for (const auto& log : logs) EXPECT_EQ(log, want);
}

// Messages go straight from the outboxes into the destination calendar, so
// a source that posts a later delivery before an earlier one must still
// see them fire by time, and a same-time delivery from a second source
// must fire after the first source's (ties broken by source partition).
TEST(PdesEngine, DeliveriesFireByTimeThenSourceWhateverThePostOrder) {
  using Arrival = std::pair<int, sim::SimTime>;  // (source, arrival time)
  for (std::size_t workers : {1u, 2u, 3u}) {
    sim::ParallelSimulation eng({.partitions = 3, .workers = workers});
    eng.register_link(100);
    std::vector<Arrival> log;
    const auto arrival = [&eng, &log](int src) {
      return [&eng, &log, src] {
        log.emplace_back(src, eng.partition(0).now());
      };
    };
    eng.run_on(2, [&] { eng.post(0, 100, arrival(2)); });
    eng.run_on(1, [&] {
      eng.post(0, 300, arrival(1));
      eng.post(0, 100, arrival(1));
    });
    eng.run_until(1000);
    const std::vector<Arrival> want = {{1, 100}, {2, 100}, {1, 300}};
    EXPECT_EQ(log, want) << workers << " workers";
  }
}

TEST(PdesEngine, CrossPartitionAtBelowHorizonThrowsLoudly) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  // A partition-0 event reaching directly into partition 1's calendar
  // below the published safe horizon: must fail loudly, never reorder.
  eng.run_on(0, [&eng] { eng.partition(1).at(5, [] {}); });
  EXPECT_THROW(eng.run_until(1000), InvariantViolation);
}

TEST(PdesEngine, QuiescentSchedulingIsUnrestricted) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 1});
  eng.register_link(100);
  // Setup-time scheduling from the main thread onto any partition is
  // legal: the horizon is parked at SimTime minimum while quiescent.
  bool fired = false;
  eng.partition(1).at(5, [&fired] { fired = true; });
  eng.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(PdesEngine, RunWhileStopsAtPredicateAndDrain) {
  sim::ParallelSimulation eng({.partitions = 2, .workers = 2});
  eng.register_link(100);
  int ticks = 0;
  eng.run_on(0, [&] {
    // Self-rescheduling ticker: only the predicate can stop it.
    struct Tick {
      sim::ParallelSimulation& eng;
      int& ticks;
      void operator()() {
        ++ticks;
        eng.partition(0).after(1000, Tick{eng, ticks});
      }
    };
    Tick{eng, ticks}();
  });
  eng.run_while([&ticks] { return ticks < 5; });
  EXPECT_GE(ticks, 5);
  // Drained-empty stop: no events at all ends the run instead of hanging.
  sim::ParallelSimulation idle({.partitions = 2, .workers = 1});
  idle.register_link(100);
  idle.run_while([] { return true; });
  EXPECT_EQ(idle.windows_executed(), 0u);
}

// The other throwing tests run one worker. Here the failing event runs on
// a helper thread (partition 3 belongs to worker 3 of 4): the failure must
// reach the caller, stop the run at that window's barrier, and leave the
// engine able to run on.
TEST(PdesEngine, HelperWorkerFailureIsRethrownAndTheEngineRunsOn) {
  sim::ParallelSimulation eng({.partitions = 4, .workers = 4});
  eng.register_link(100);
  bool later_ran = false;
  eng.partition(3).at(100, [] { throw std::runtime_error("helper failed"); });
  eng.partition(1).at(500, [&later_ran] { later_ran = true; });
  EXPECT_THROW(eng.run_until(1000), std::runtime_error);
  EXPECT_FALSE(later_ran);
  eng.run_until(1000);
  EXPECT_TRUE(later_ran);
  EXPECT_EQ(eng.partition(3).now(), 1000);
}

// ------------------------------------------------------ run_window units

TEST(SimulationWindow, RunWindowIsHalfOpenByDefault) {
  sim::Simulation s;
  bool inside = false, boundary = false;
  s.at(5, [&inside] { inside = true; });
  s.at(10, [&boundary] { boundary = true; });
  s.run_window(10);
  EXPECT_TRUE(inside);
  EXPECT_FALSE(boundary);
  EXPECT_EQ(s.now(), 10);
  s.run_window(10, /*inclusive=*/true);
  EXPECT_TRUE(boundary);
}

TEST(SimulationWindow, AdvanceToRefusesToSkipEvents) {
  sim::Simulation s;
  s.at(7, [] {});
  EXPECT_THROW(s.advance_to(7), InvariantViolation);
  s.run_window(8);
  s.advance_to(20);
  EXPECT_EQ(s.now(), 20);
}

// --------------------------------------------- fig9-topology digest grid

struct ClusterDigest {
  std::uint64_t h = 0;
  void mix(std::uint64_t v) { sim::hash_mix(h, v); }
};

// gtest prints a parameter's bytes into each case's name, so the values
// stay fixed when a variant is removed.
enum class Variant {
  kFaults = 1,
  kObserve,
  kSharded,
  kCrashWave,
  kCrashScale,
  kScrape
};

std::uint64_t cluster_digest(std::size_t workers, Variant variant) {
  // kSharded exercises the DESIGN.md §12 control plane: shard partitions
  // between the control plane and the hosts, a batched SessionFleet pinned
  // to the shards, and two-host waves instead of the default one-host ones.
  const int shards = variant == Variant::kSharded ||
                             variant == Variant::kCrashScale ||
                             variant == Variant::kScrape
                         ? 2
                         : 0;
  sim::ParallelSimulation engine(
      {.partitions = static_cast<std::int32_t>(4 + shards),
       .workers = workers});
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 2;
  cfg.files_per_vm = 8;
  cfg.file_size = 64 * sim::kKiB;
  cfg.engine = &engine;
  cfg.shards = shards;
  if (variant == Variant::kFaults) {
    cfg.faults = fault::FaultConfig::uniform(0.05);
  }
  if (variant == Variant::kCrashWave) {
    // Unplanned VMM failures mid-wave: every host's turn opens with a
    // crash-or-hang roll, and micro-recovery (a host-RNG draw per attempt)
    // decides the rung each ladder lands on.
    cfg.faults.vmm_crash_rate = 0.5;
    cfg.faults.vmm_hang_rate = 0.5;
  }
  if (variant == Variant::kCrashScale || variant == Variant::kScrape) {
    // Steady in-service faults under the sharded control plane: per-host
    // SteadyFaultProcess arrivals race the wave turns, the recovery
    // drivers, the crash-evict/readmit broadcasts, and the fleet's
    // unplanned-downtime attribution across every partition boundary.
    // kScrape layers the telemetry plane on top: scrape RPCs, timeouts
    // and TSDB ingestion race all of the above through the mailboxes.
    cfg.faults.vmm_crash_rate = 0.5;
    cfg.faults.vmm_hang_rate = 0.25;
  }
  cfg.observe = variant == Variant::kObserve;
  cluster::Cluster cl(engine.partition(0), cfg);

  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });

  cluster::ClusterClientFleet fleet(
      engine.partition(0), *cl.sharded_balancer(), {.connections = 8});
  std::unique_ptr<cluster::SessionFleet> sessions;
  if (variant == Variant::kSharded || variant == Variant::kCrashScale ||
      variant == Variant::kScrape) {
    sessions = std::make_unique<cluster::SessionFleet>(
        *cl.sharded_balancer(),
        cluster::SessionFleet::Config{
            .sessions = 64,
            .think_base = 1 * sim::kSecond,
            .think_spread = 1 * sim::kSecond,
            .retry_interval = 500 * sim::kMillisecond,
            .tick = 250 * sim::kMillisecond});
    sessions->start(engine);
  } else {
    engine.run_on(0, [&fleet] { fleet.start(); });
  }
  if (variant == Variant::kCrashScale || variant == Variant::kScrape) {
    cluster::Cluster::SteadyFaultsConfig sfc;
    sfc.process.check_interval = sim::kSecond;
    sfc.supervisor.micro.enabled = true;
    sfc.supervisor.micro.success_rate = 0.7;
    cl.start_steady_faults(sfc);
  }
  if (variant == Variant::kScrape) {
    cluster::Cluster::ScrapeConfig sc;
    sc.interval = 2 * sim::kSecond;
    sc.timeout = 500 * sim::kMillisecond;
    // Keep the burn-rate gate armed but out of the way: with crashes this
    // frequent a production threshold would pause the pass indefinitely,
    // and this test is about bitwise invariance, not gating policy.
    sc.slo.pause_burn_rate = 50.0;
    cl.start_scraping(sc);
  }
  engine.run_until(engine.partition(0).now() + 10 * sim::kSecond);

  bool done = false;
  if (variant == Variant::kSharded) {
    engine.run_on(0, [&cl, &done] {
      cluster::Cluster::WaveConfig wcfg;
      wcfg.wave_size = 2;
      cl.rolling_rejuvenation_waves(
          wcfg, [&done](const cluster::Cluster::WaveReport&) { done = true; });
    });
  } else if (variant == Variant::kCrashScale || variant == Variant::kScrape) {
    engine.run_on(0, [&cl, &done, variant] {
      cluster::Cluster::WaveConfig wcfg;
      wcfg.wave_size = 2;  // crash-down hosts count against this budget
      if (variant == Variant::kScrape) {
        // Production-shaped: the pass orders hosts from the scraped TSDB
        // alone, never probing host partitions for signals.
        wcfg.signals = cluster::Cluster::WaveSignalSource::kScraped;
      }
      cl.rolling_rejuvenation_waves(
          wcfg, [&done](const cluster::Cluster::WaveReport&) { done = true; });
    });
  } else if (variant == Variant::kCrashWave) {
    engine.run_on(0, [&cl, &done] {
      cluster::Cluster::WaveConfig wcfg;
      wcfg.wave_size = 2;
      wcfg.supervisor.micro.enabled = true;
      wcfg.supervisor.micro.success_rate = 0.7;
      cl.rolling_rejuvenation_waves(
          wcfg, [&done](const cluster::Cluster::WaveReport&) { done = true; });
    });
  } else {
    // kFaults and kObserve: the default pass, one warm host per wave.
    engine.run_on(0, [&cl, &done] {
      cl.rolling_rejuvenation_waves(
          {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
    });
  }
  engine.run_while([&done] { return !done; });
  engine.run_until(engine.partition(0).now() + 20 * sim::kSecond);

  ClusterDigest d;
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    d.mix(static_cast<std::uint64_t>(engine.partition(p).now()));
    d.mix(engine.partition(p).executed_events());
  }
  d.mix(static_cast<std::uint64_t>(fleet.completions().total()));
  d.mix(cl.sharded_balancer()->dispatched());
  d.mix(cl.sharded_balancer()->rejected());
  for (const auto dur : cl.rejuvenation_durations()) {
    d.mix(static_cast<std::uint64_t>(dur));
  }
  if (variant == Variant::kFaults) {
    const auto& report = cl.last_wave_report();
    for (const auto& w : report.waves) {
      for (const auto& o : w.outcomes) d.mix(o.success ? 1 : 0);
    }
    d.mix(report.retries.size());
    d.mix(report.hosts_rejuvenated);
    d.mix(report.recovered_hosts.size());
    d.mix(report.unrecovered_hosts.size());
  }
  if (variant == Variant::kCrashWave) {
    const auto& report = cl.last_wave_report();
    d.mix(report.waves.size());
    d.mix(report.degraded_hosts.size());
    d.mix(report.unrecovered_hosts.size());
    for (const auto& w : report.waves) {
      d.mix(static_cast<std::uint64_t>(w.started));
      d.mix(static_cast<std::uint64_t>(w.finished));
      for (std::size_t i = 0; i < w.outcomes.size(); ++i) {
        const auto& o = w.outcomes[i];
        d.mix(w.outcome_hosts[i]);
        d.mix(o.micro_attempts);
        d.mix(o.micro_recovered ? 1 : 0);
        d.mix(o.vmm_crashed ? 1 : 0);
        d.mix(static_cast<std::uint64_t>(o.completed));
        d.mix(static_cast<std::uint64_t>(o.total_duration()));
        d.mix(o.recoveries.size());
      }
    }
  }
  if (variant == Variant::kSharded || variant == Variant::kCrashScale ||
      variant == Variant::kScrape) {
    d.mix(cl.sharded_balancer()->state_digest());
    d.mix(sessions->state_digest());
    const auto& report = cl.last_wave_report();
    d.mix(report.waves.size());
    d.mix(report.hosts_rejuvenated);
    for (const auto& w : report.waves) {
      d.mix(static_cast<std::uint64_t>(w.started));
      d.mix(static_cast<std::uint64_t>(w.finished));
      for (const auto h : w.hosts) d.mix(h);
    }
  }
  if (variant == Variant::kCrashScale || variant == Variant::kScrape) {
    const auto& report = cl.last_wave_report();
    d.mix(report.admission_pauses);
    d.mix(report.deferred_turns);
    d.mix(report.unrecovered_hosts.size());
    d.mix(static_cast<std::uint64_t>(report.planned_downtime));
    const auto& un = cl.unplanned_report();
    d.mix(un.failures);
    d.mix(un.absorbed);
    d.mix(un.recoveries);
    d.mix(un.micro_recoveries);
    d.mix(un.unrecovered);
    d.mix(static_cast<std::uint64_t>(un.downtime));
    d.mix(cl.sharded_balancer()->crash_broadcasts());
  }
  if (variant == Variant::kScrape) {
    // The full telemetry plane: TSDB ring contents, SLO window, per-host
    // scrape outcomes, flight records, detection histogram.
    d.mix(cl.scraper()->state_digest());
  }
  for (int h = 0; h < cfg.hosts; ++h) {
    d.mix(cl.host(h).obs().spans().records().size());
    d.mix(cl.host(h).obs().events().size());
    d.mix(cl.host(h).vmm_generation());
  }
  d.mix(engine.messages_routed());
  return d.h;
}

class PdesClusterDigestGrid : public ::testing::TestWithParam<Variant> {};

TEST_P(PdesClusterDigestGrid, OneVsNWorkersBitwiseIdentical) {
  const std::uint64_t one = cluster_digest(1, GetParam());
  EXPECT_EQ(cluster_digest(2, GetParam()), one);
  EXPECT_EQ(cluster_digest(4, GetParam()), one);
}

INSTANTIATE_TEST_SUITE_P(Fig9Topology, PdesClusterDigestGrid,
                         ::testing::Values(Variant::kFaults, Variant::kObserve,
                                           Variant::kSharded,
                                           Variant::kCrashWave,
                                           Variant::kCrashScale,
                                           Variant::kScrape),
                         [](const auto& info) {
                           switch (info.param) {
                             case Variant::kFaults: return "faults";
                             case Variant::kObserve: return "observe";
                             case Variant::kSharded: return "sharded";
                             case Variant::kCrashWave: return "crashwave";
                             case Variant::kCrashScale: return "crashscale";
                             case Variant::kScrape: return "scrape";
                           }
                           return "unknown";
                         });

// A backend evicted while its reachability probe is in flight must not be
// served by the stale "up" reply: the shard re-checks its membership view
// when the reply lands (regression -- the probe reply used to dispatch
// directly, resurrecting evicted backends).
TEST(PdesCluster, EvictedMidProbeBackendIsNotServed) {
  sim::ParallelSimulation engine({.partitions = 3, .workers = 1});
  cluster::Cluster::Config cfg;
  cfg.hosts = 2;
  cfg.vms_per_host = 1;
  cfg.files_per_vm = 4;
  cfg.file_size = 64 * sim::kKiB;
  cfg.calib.link.latency = 1000;  // 1 ms: a wide in-flight window
  cfg.engine = &engine;
  cluster::Cluster cl(engine.partition(0), cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });

  bool done = false, served = false;
  auto& lb = *cl.sharded_balancer();
  engine.run_on(0, [&] {
    // The one shard shares partition 0 and its round-robin cursor starts
    // at host 0's backend, so the first probe targets host 0 (out at
    // +1ms, reply back at +2ms). Evict it while that probe is in flight:
    // the eviction is broadcast with link latency, so issued at +0.5ms it
    // lands at +1.5ms.
    lb.dispatch(0, [&](bool ok) {
      served = ok;
      done = true;
    });
    engine.partition(0).after(500, [&lb] { lb.set_host_evicted(0, true); });
  });
  engine.run_while([&done] { return !done; });

  EXPECT_TRUE(served);  // host 1 picked it up
  EXPECT_EQ(lb.dispatched(), std::uint64_t{1});
  auto served_by = [&cl](int h) {
    return static_cast<guest::ApacheService*>(
               cl.guest(h, 0).find_service("httpd"))
        ->requests_served();
  };
  EXPECT_EQ(served_by(0), std::uint64_t{0});  // never resurrected
  EXPECT_EQ(served_by(1), std::uint64_t{1});
}

// Federated failover under the engine: a shard whose every backend is
// evicted spills its traffic to the next shard on the ring, over the
// mailboxes, and the outcome is identical for 1 and 4 workers.
TEST(PdesCluster, EmptiedShardFailsOverAcrossPartitions) {
  auto run = [](std::size_t workers) {
    sim::ParallelSimulation engine({.partitions = 7, .workers = workers});
    cluster::Cluster::Config cfg;
    cfg.hosts = 4;  // shard 0 owns hosts {0, 2}, shard 1 owns {1, 3}
    cfg.shards = 2;
    cfg.vms_per_host = 1;
    cfg.files_per_vm = 4;
    cfg.file_size = 64 * sim::kKiB;
    cfg.engine = &engine;
    cluster::Cluster cl(engine.partition(0), cfg);
    bool ready = false;
    cl.start([&ready] { ready = true; });
    engine.run_while([&ready] { return !ready; });

    auto* sb = cl.sharded_balancer();
    sb->set_host_evicted(0, true);
    sb->set_host_evicted(2, true);
    std::uint64_t key = 0;
    while (sb->home_shard(key) != 0) ++key;

    int outcomes = 0, served = 0;
    engine.run_on(0, [&] {
      for (int i = 0; i < 2; ++i) {
        sb->dispatch(key, [&](bool ok) {
          served += ok ? 1 : 0;
          ++outcomes;
        });
      }
    });
    engine.run_while([&outcomes] { return outcomes < 2; });

    EXPECT_EQ(served, 2);
    EXPECT_EQ(sb->federated(), std::uint64_t{2});
    EXPECT_EQ(sb->shard_federated(1), std::uint64_t{2});
    EXPECT_EQ(sb->rejected(), std::uint64_t{0});
    return sb->state_digest();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(PdesCluster, CrossPartitionMigrationRejected) {
  sim::ParallelSimulation engine({.partitions = 3, .workers = 1});
  engine.register_link(200);
  cluster::Cluster::Config cfg;
  cfg.hosts = 2;
  cfg.vms_per_host = 1;
  cfg.files_per_vm = 2;
  cfg.engine = &engine;
  cluster::Cluster cl(engine.partition(0), cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });

  cluster::VmMigrator migrator;
  EXPECT_THROW(migrator.migrate(cl.guest(0, 0), cl.host(1),
                                [](const cluster::VmMigrator::Result&) {}),
               InvariantViolation);
}

}  // namespace
