// Cluster: analytic throughput model + DES load balancer + rolling rejuv.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/throughput_model.hpp"
#include "simcore/parallel.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(ClusterModel, TimelinesMatchFig9Shape) {
  cluster::ClusterThroughputParams p;  // defaults: paper's numbers, m=4
  cluster::ClusterThroughputModel model(p);
  using S = cluster::ClusterStrategy;
  // During the warm reboot: (m-1)p; after: m*p.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kWarm, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kWarm, 43.0), 4.0);
  // Cold: longer dip, then the (m - delta)p cache-refill shoulder.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 244.0), 4.0 - 0.69);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kCold, 250.0), 4.0);
  // Migration: permanently (m-1)p, worse while migrating.
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kLiveMigration, 100.0), 3.0 - 0.12);
  EXPECT_DOUBLE_EQ(model.throughput_at(S::kLiveMigration, 1500.0), 3.0);
}

TEST(ClusterModel, WarmLosesLeastWork) {
  cluster::ClusterThroughputModel model({});
  using S = cluster::ClusterStrategy;
  const double warm = model.lost_work(S::kWarm, 1800);
  const double cold = model.lost_work(S::kCold, 1800);
  const double mig = model.lost_work(S::kLiveMigration, 1800);
  EXPECT_LT(warm, cold);
  EXPECT_LT(cold, mig);  // the reserved host dominates over 30 min
  EXPECT_NEAR(warm, 42.0, 1.0);
}

TEST(ClusterModel, SeriesCoversAllStrategies) {
  cluster::ClusterThroughputModel model({});
  const auto series = model.series(300.0, 10.0);
  ASSERT_EQ(series.size(), std::size_t{31});
  for (const auto& pt : series) {
    EXPECT_GT(pt.warm, 0.0);
    EXPECT_GE(pt.warm, pt.cold - 1e-9);  // warm never worse than cold
  }
}

TEST(ClusterModel, Validation) {
  cluster::ClusterThroughputParams p;
  p.hosts = 1;
  EXPECT_THROW(cluster::ClusterThroughputModel{p}, InvariantViolation);
}

// ------------------------------------------------------------------ DES

cluster::Cluster::Config web_cluster(int hosts = 2, int vms = 2) {
  cluster::Cluster::Config c;
  c.hosts = hosts;
  c.vms_per_host = vms;
  c.files_per_vm = 20;
  return c;
}

/// Dispatches `n` requests (key i for the i-th) and runs 5 s; returns how
/// many were served.
int serve(ClusterRig& rig, int n) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
  std::iota(keys.begin(), keys.end(), std::uint64_t{0});
  return rig.serve(keys);
}

/// Shuts host `h`'s dom0 down (which kills its network path) and runs
/// until it is off.
void take_down(ClusterRig& rig, int h) {
  bool down = false;
  rig.cl.host(h).shutdown_dom0([&down] { down = true; });
  rig.run_while([&down] { return !down; });
}

TEST(Cluster, RequiresAnEngine) {
  sim::Simulation sim;
  EXPECT_THROW((cluster::Cluster{sim, web_cluster()}), InvariantViolation);
  // Two hosts and one shard need 1 + 0 + 2 partitions, not 4.
  sim::ParallelSimulation engine({.partitions = 4, .workers = 1});
  cluster::Cluster::Config cfg = web_cluster();
  cfg.engine = &engine;
  EXPECT_THROW((cluster::Cluster{engine.partition(0), cfg}),
               InvariantViolation);
}

TEST(Cluster, StartBringsAllBackendsUp) {
  ClusterRig rig(web_cluster());
  EXPECT_EQ(rig.lb().backend_count(), std::size_t{4});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{4});
  for (int h = 0; h < 2; ++h) {
    EXPECT_TRUE(rig.cl.host(h).up());
    for (int v = 0; v < 2; ++v) {
      EXPECT_EQ(rig.cl.guest(h, v).state(), guest::OsState::kRunning);
    }
  }
}

TEST(Cluster, BalancerSkipsUnreachableBackends) {
  ClusterRig rig(web_cluster());
  take_down(rig, 0);
  EXPECT_EQ(rig.reachable_vms(), std::size_t{2});
  EXPECT_EQ(serve(rig, 10), 10);  // host 1 carried everything
}

TEST(Cluster, DispatchFailsOnlyWhenAllDown) {
  ClusterRig rig(web_cluster(1, 1));
  take_down(rig, 0);
  bool ok = true;
  rig.run_on(0, [&] {
    rig.lb().dispatch(0, [&](bool served) { ok = served; });
  });
  rig.run_for(sim::kSecond);
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.lb().rejected(), std::uint64_t{1});
}

/// Hosts whose wave turn left VMs unrecovered (and so were evicted).
std::vector<std::size_t> evicted_hosts(
    const cluster::Cluster::WaveReport& report) {
  std::vector<std::size_t> out;
  for (const auto& w : report.waves) {
    for (std::size_t i = 0; i < w.outcomes.size(); ++i) {
      if (!w.outcomes[i].success) out.push_back(w.outcome_hosts[i]);
    }
  }
  return out;
}

/// Every ladder the pass ran: wave turns, then end-of-pass retries.
std::size_t ladder_runs(const cluster::Cluster::WaveReport& report) {
  std::size_t n = report.retries.size();
  for (const auto& w : report.waves) n += w.outcomes.size();
  return n;
}

TEST(Cluster, RollingWarmRejuvenationKeepsServiceAvailable) {
  ClusterRig rig(web_cluster());
  cluster::ClusterClientFleet fleet(rig.engine.partition(0), rig.lb(), {});
  rig.run_on(0, [&fleet] { fleet.start(); });
  rig.run_for(10 * sim::kSecond);
  const sim::SimTime t0 = rig.now();
  const auto report = rig.run_waves();
  // The last wave's barrier is the moment the pass reports.
  const sim::Duration pass = report.waves.back().finished - t0;
  rig.run_for(10 * sim::kSecond);
  fleet.stop();
  // Two hosts rejuvenated one at a time (the default wave is one host) --
  // throughout, the other host kept answering: there is never a window
  // with zero backends. The engine is deterministic, so the durations are
  // exact.
  EXPECT_EQ(report.waves.size(), std::size_t{2});
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{2});
  EXPECT_EQ(pass, sim::Duration{106259182});
  EXPECT_EQ(rig.cl.rejuvenation_durations(),
            (std::vector<sim::Duration>{53128791, 53128791}));
  EXPECT_EQ(rig.lb().rejected(), std::uint64_t{0});
  // All guests everywhere survived with state intact.
  for (int h = 0; h < 2; ++h) {
    for (int v = 0; v < 2; ++v) {
      EXPECT_TRUE(rig.cl.guest(h, v).integrity_ok());
      EXPECT_EQ(rig.cl.guest(h, v).state(), guest::OsState::kRunning);
    }
  }
}

TEST(Cluster, GuestsOfValidatesIndex) {
  ClusterRig rig(web_cluster());
  EXPECT_THROW((void)rig.cl.host(5), InvariantViolation);
  EXPECT_THROW((void)rig.cl.guest(0, 9), InvariantViolation);
  EXPECT_EQ(rig.cl.guests_of(0).size(), std::size_t{2});
}

TEST(Cluster, OverlappingRollingPassesAreRejected) {
  // A second rolling pass while one is in flight would silently drop the
  // first pass's supervisors mid-reboot; it must fail fast instead.
  ClusterRig rig(web_cluster());
  bool done = false;
  rig.start_waves({}, done);
  rig.run_while([&rig] { return !rig.cl.rolling_in_progress(); });
  EXPECT_TRUE(rig.cl.rolling_in_progress());
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves({}, [](auto&) {}),
               InvariantViolation);
  rig.run_while([&done] { return !done; });
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // Once the pass finished, a new one is welcome again.
  EXPECT_EQ(rig.run_waves().hosts_rejuvenated, std::size_t{2});
}

TEST(Cluster, SupervisedRollingPassIsCleanWithoutFaults) {
  ClusterRig rig(web_cluster());
  const auto report = rig.run_waves();
  EXPECT_TRUE(report.fully_recovered());
  ASSERT_EQ(ladder_runs(report), std::size_t{2});  // one per host, no retries
  for (const auto& w : report.waves) {
    for (const auto& pass : w.outcomes) {
      EXPECT_TRUE(pass.success);
      EXPECT_EQ(pass.resumed_vms, std::size_t{2});
    }
  }
  EXPECT_TRUE(evicted_hosts(report).empty());
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{4});
}

TEST(Cluster, SupervisedRollingEvictsFailedHostAndRetriesIt) {
  ClusterRig rig(web_cluster());
  // Host 1's boots will hang forever (until the operator intervenes).
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.start_waves(cfg, done, &report);
  // Run until host 1's ladder exhausts and it is evicted mid-pass...
  rig.run_while(
      [&] { return !done && rig.lb().evicted_backends() == 0; });
  ASSERT_FALSE(done);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  // ...the balancer keeps serving from host 0 in the meantime...
  EXPECT_EQ(serve(rig, 8), 8);
  // ...then the root cause is fixed, and the end-of-pass retry succeeds.
  rig.cl.host(1).configure_faults(fault::FaultConfig{});
  rig.run_while([&done] { return !done; });
  rig.run_for(sim::kSecond);  // the readmit broadcast lands one RPC later

  EXPECT_TRUE(report.fully_recovered());
  ASSERT_EQ(evicted_hosts(report), (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.recovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(report.unrecovered_hosts.empty());
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{4});
  for (int v = 0; v < 2; ++v) {
    EXPECT_EQ(rig.cl.guest(1, v).state(), guest::OsState::kRunning);
  }
}

TEST(Cluster, SupervisedRollingGivesUpAfterHostRetryBudget) {
  ClusterRig rig(web_cluster());
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;  // never fixed this time
  rig.cl.host(0).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  const auto report = rig.run_waves(cfg);
  EXPECT_FALSE(report.fully_recovered());
  EXPECT_EQ(evicted_hosts(report), (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(report.recovered_hosts.empty());
  // The dead host stays out of rotation; the healthy one still serves.
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{2});
  // One turn on each host + 3 recovery attempts on host 0.
  EXPECT_EQ(ladder_runs(report), std::size_t{5});
  EXPECT_EQ(report.retries.size(), std::size_t{3});
}

TEST(Cluster, LostHostIsNotCountedAsRejuvenated) {
  // Every host ends the pass in exactly one bucket: rejuvenated,
  // recovered by a retry, or unrecovered. Host 1's boots always hang, in
  // its turn and in all three retries, so it is lost.
  ClusterRig rig(web_cluster());
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  const auto report = rig.run_waves(cfg);
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_TRUE(report.recovered_hosts.empty());
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.retries.size(), std::size_t{3});
}

TEST(Cluster, EvictionExcludesBackendsFromDispatchUntilLifted) {
  ClusterRig rig(web_cluster());
  rig.lb().set_host_evicted(0, true);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  EXPECT_EQ(serve(rig, 6), 6);  // host 1 carried everything...
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});  // ...host 0 served none
  rig.lb().set_host_evicted(0, false);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{4});
}

}  // namespace
}  // namespace rh::test
