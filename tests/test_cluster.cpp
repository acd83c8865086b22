// Cluster: analytic throughput model + DES load balancer + rolling rejuv.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/throughput_model.hpp"
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

struct ClusterRig {
  static cluster::Cluster::Config config(int hosts, int vms) {
    cluster::Cluster::Config c;
    c.hosts = hosts;
    c.vms_per_host = vms;
    c.files_per_vm = 20;
    return c;
  }

  sim::Simulation sim;
  cluster::Cluster cl;

  explicit ClusterRig(int hosts = 2, int vms = 2)
      : cl(sim, config(hosts, vms)) {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    while (!ready && sim.pending_events() > 0) sim.step();
    EXPECT_TRUE(ready);
  }

  cluster::ShardedBalancer& lb() { return *cl.sharded_balancer(); }

  /// Dispatches `n` requests (key i for the i-th) and runs 5 s; returns
  /// how many were served.
  int serve(int n) {
    int served = 0;
    for (int i = 0; i < n; ++i) {
      lb().dispatch(static_cast<std::uint64_t>(i),
                    [&served](bool ok) { served += ok ? 1 : 0; });
    }
    sim.run_for(5 * sim::kSecond);
    return served;
  }

  /// Requests host `h`'s web servers have served so far.
  std::uint64_t served_by(int h) {
    std::uint64_t n = 0;
    for (auto* g : cl.guests_of(h)) {
      n += static_cast<guest::ApacheService*>(g->find_service("httpd"))
               ->requests_served();
    }
    return n;
  }

  /// VMs whose web server answers right now, on any host.
  std::size_t reachable_vms() {
    std::size_t n = 0;
    for (int h = 0; h < cl.host_count(); ++h) {
      for (auto* g : cl.guests_of(h)) {
        n += g->service_reachable(*g->find_service("httpd")) ? 1 : 0;
      }
    }
    return n;
  }
};

TEST(Cluster, StartBringsAllBackendsUp) {
  ClusterRig rig;
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
  ClusterRig rig;
  // Take host 0 down (dom0 shutdown kills its network path).
  bool down = false;
  rig.cl.host(0).shutdown_dom0([&down] { down = true; });
  while (!down) rig.sim.step();
  EXPECT_EQ(rig.reachable_vms(), std::size_t{2});
  EXPECT_EQ(rig.serve(10), 10);  // host 1 carried everything
}

TEST(Cluster, DispatchFailsOnlyWhenAllDown) {
  ClusterRig rig(1, 1);
  bool down = false;
  rig.cl.host(0).shutdown_dom0([&down] { down = true; });
  while (!down) rig.sim.step();
  bool ok = true;
  rig.lb().dispatch(0, [&](bool served) { ok = served; });
  EXPECT_FALSE(ok);
  EXPECT_EQ(rig.lb().rejected(), std::uint64_t{1});
}

/// Runs one rolling pass with `config` to completion and returns its report.
cluster::Cluster::WaveReport run_pass(ClusterRig& rig,
                                      cluster::Cluster::WaveConfig config = {}) {
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      config, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  while (!done) rig.sim.step();
  return report;
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
  ClusterRig rig;
  cluster::ClusterClientFleet fleet(rig.sim, rig.lb(), {});
  fleet.start();
  rig.sim.run_for(10 * sim::kSecond);
  const sim::SimTime t0 = rig.sim.now();
  const auto report = run_pass(rig);
  const sim::Duration pass = rig.sim.now() - t0;
  rig.sim.run_for(10 * sim::kSecond);
  fleet.stop();
  // Two hosts rejuvenated one at a time (the default wave is one host) --
  // throughout, the other host kept answering: there is never a window
  // with zero backends. The single calendar is deterministic, so the
  // durations are exact.
  EXPECT_EQ(report.waves.size(), std::size_t{2});
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{2});
  EXPECT_EQ(pass, sim::Duration{106257582});
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
  ClusterRig rig;
  EXPECT_THROW((void)rig.cl.host(5), InvariantViolation);
  EXPECT_THROW((void)rig.cl.guest(0, 9), InvariantViolation);
  EXPECT_EQ(rig.cl.guests_of(0).size(), std::size_t{2});
}

TEST(Cluster, OverlappingRollingPassesAreRejected) {
  // A second rolling pass while one is in flight would silently drop the
  // first pass's supervisors mid-reboot; it must fail fast instead.
  ClusterRig rig;
  bool done = false;
  rig.cl.rolling_rejuvenation_waves(
      {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  EXPECT_TRUE(rig.cl.rolling_in_progress());
  EXPECT_THROW(rig.cl.rolling_rejuvenation_waves({}, [](auto&) {}),
               InvariantViolation);
  while (!done) rig.sim.step();
  EXPECT_FALSE(rig.cl.rolling_in_progress());
  // Once the pass finished, a new one is welcome again.
  EXPECT_EQ(run_pass(rig).hosts_rejuvenated, std::size_t{2});
}

TEST(Cluster, SupervisedRollingPassIsCleanWithoutFaults) {
  ClusterRig rig;
  const auto report = run_pass(rig);
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
  ClusterRig rig;
  // Host 1's boots will hang forever (until the operator intervenes).
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  bool done = false;
  cluster::Cluster::WaveReport report;
  rig.cl.rolling_rejuvenation_waves(
      cfg, [&](const cluster::Cluster::WaveReport& r) {
        report = r;
        done = true;
      });
  // Step until host 1's ladder exhausts and it is evicted mid-pass...
  while (!done && rig.lb().evicted_backends() == 0) rig.sim.step();
  ASSERT_FALSE(done);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  // ...the balancer keeps serving from host 0 in the meantime...
  EXPECT_EQ(rig.serve(8), 8);
  // ...then the root cause is fixed, and the end-of-pass retry succeeds.
  rig.cl.host(1).configure_faults(fault::FaultConfig{});
  while (!done) rig.sim.step();

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
  ClusterRig rig;
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;  // never fixed this time
  rig.cl.host(0).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  cfg.max_host_retries = 1;
  const auto report = run_pass(rig, cfg);
  EXPECT_FALSE(report.fully_recovered());
  EXPECT_EQ(evicted_hosts(report), (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{0}));
  EXPECT_TRUE(report.recovered_hosts.empty());
  // The dead host stays out of rotation; the healthy one still serves.
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{2});
  // One turn on each host + 2 recovery attempts on host 0.
  EXPECT_EQ(ladder_runs(report), std::size_t{4});
  EXPECT_EQ(report.retries.size(), std::size_t{2});
}

TEST(Cluster, LostHostIsNotCountedAsRejuvenated) {
  // Every host ends the pass in exactly one bucket: rejuvenated,
  // recovered by a retry, or unrecovered. Host 1's boots always hang and
  // it gets no retry budget beyond the first attempt, so it is lost.
  ClusterRig rig;
  fault::FaultConfig faults;
  faults.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(faults);

  cluster::Cluster::WaveConfig cfg;
  cfg.kind = rejuv::RebootKind::kCold;
  cfg.supervisor.max_step_retries = 0;
  cfg.max_host_retries = 0;
  const auto report = run_pass(rig, cfg);
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_TRUE(report.recovered_hosts.empty());
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.retries.size(), std::size_t{1});
}

TEST(Cluster, EvictionExcludesBackendsFromDispatchUntilLifted) {
  ClusterRig rig;
  rig.lb().set_host_evicted(0, true);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{2});
  EXPECT_EQ(rig.serve(6), 6);  // host 1 carried everything...
  EXPECT_EQ(rig.served_by(0), std::uint64_t{0});  // ...host 0 served none
  rig.lb().set_host_evicted(0, false);
  EXPECT_EQ(rig.lb().evicted_backends(), std::size_t{0});
  EXPECT_EQ(rig.reachable_vms(), std::size_t{4});
}

}  // namespace
}  // namespace rh::test
