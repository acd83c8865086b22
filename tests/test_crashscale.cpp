// Steady faults at datacenter scale (DESIGN.md §14): per-host steady
// fault arrivals answered by reusable recovery drivers, crash-evict /
// readmit membership riding the sharded balancer, failure-reactive wave
// admission (unplanned outages count against the downtime budget), and
// the session fleet's planned-vs-unplanned downtime attribution.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "cluster/session_fleet.hpp"
#include "cluster/sharded_balancer.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

// Sharded cluster with steady VMM faults armed at `rate`.
cluster::Cluster::Config crash_cluster(int hosts, int shards, double rate) {
  cluster::Cluster::Config c;
  c.hosts = hosts;
  c.shards = shards;
  c.vms_per_host = 1;
  c.files_per_vm = 8;
  c.file_size = 64 * sim::kKiB;
  c.faults.vmm_crash_rate = rate;
  return c;
}

TEST(SteadyFaultsAtScale, CrashRecoverReadmitCycleKeepsTheFleetWhole) {
  ClusterRig rig(crash_cluster(2, 2, /*rate=*/1.0));
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  sfc.supervisor.micro.enabled = true;
  sfc.supervisor.micro.success_rate = 1.0;  // every hit recovers in place
  rig.cl.start_steady_faults(sfc);

  rig.run_for(10 * sim::kSecond);
  // Disarming stops new arrivals; in-flight ladders drain out, after
  // which every failure has a matching recovery and readmission.
  rig.cl.stop_steady_faults();
  rig.run_for(10 * sim::kSecond);
  const auto& rep = rig.cl.unplanned_report();
  // Certain hit on every check: both hosts cycled through crash ->
  // micro-recover -> readmit repeatedly.
  EXPECT_GT(rep.failures, std::uint64_t{4});
  EXPECT_EQ(rep.recoveries, rep.failures);
  EXPECT_EQ(rep.micro_recoveries, rep.recoveries);
  EXPECT_EQ(rep.unrecovered, std::uint64_t{0});
  EXPECT_GT(rep.downtime, sim::Duration{0});
  // Every eviction was matched by a readmission.
  EXPECT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{0});
  EXPECT_EQ(rig.lb().crashed_backends(), std::size_t{0});
  EXPECT_EQ(rig.lb().crash_broadcasts(), 2 * rep.recoveries);

  // And no further arrivals fire once disarmed.
  const std::uint64_t before = rep.failures;
  rig.run_for(10 * sim::kSecond);
  EXPECT_EQ(rig.cl.unplanned_report().failures, before);
}

TEST(SteadyFaultsAtScale, EveryStartedLadderIsPlacedInTheReport) {
  // Micro-recovery off: each crash takes the hardware reboot, so both
  // hosts are still down at 2 s with their ladders in flight.
  ClusterRig rig(crash_cluster(2, 2, /*rate=*/1.0));
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = 500 * sim::kMillisecond;
  rig.cl.start_steady_faults(sfc);
  rig.run_for(2 * sim::kSecond);
  const auto& rep = rig.cl.unplanned_report();
  EXPECT_EQ(rep.in_flight, std::uint64_t{2});
  EXPECT_EQ(rep.failures, std::uint64_t{2});
  EXPECT_EQ(rep.recoveries + rep.unrecovered, std::uint64_t{0});
  EXPECT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{2});

  // Disarmed and drained: every ladder reported, none left in flight.
  rig.cl.stop_steady_faults();
  rig.run_for(30 * sim::kMinute);
  EXPECT_EQ(rep.in_flight, std::uint64_t{0});
  EXPECT_GE(rep.failures, std::uint64_t{2});
  EXPECT_EQ(rep.failures, rep.recoveries + rep.unrecovered + rep.in_flight);
  EXPECT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{0});
}

TEST(SteadyFaultsAtScale, WaveAdmissionPausesUntilCrashBudgetFrees) {
  // Micro-recovery disabled: a crash takes the legacy hardware reboot, so
  // both hosts are down for minutes of sim time after the first check.
  ClusterRig rig(crash_cluster(2, 2, /*rate=*/1.0));
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = 500 * sim::kMillisecond;
  rig.cl.start_steady_faults(sfc);
  rig.run_for(2 * sim::kSecond);
  ASSERT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{2});

  // With every host crash-down, the unplanned outages exhaust the budget:
  // the wave must pause instead of admitting turns onto dead hosts.
  bool done = false;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 1;
  rig.start_waves(wcfg, done);
  rig.run_for(10 * sim::kMillisecond);
  EXPECT_FALSE(done);
  EXPECT_GE(rig.cl.last_wave_report().admission_pauses, std::size_t{1});

  // While the steady process keeps striking every 500 ms, some host is
  // crash-down essentially always, so the budget never frees: the wave
  // starves rather than admit a turn it has no downtime budget for.
  rig.run_for(10 * sim::kMinute);
  EXPECT_FALSE(done);

  // Once the fault source dries up, the last recovery's kick replans the
  // remaining order from the live outcomes and the pass completes.
  rig.cl.stop_steady_faults();
  rig.run_for(30 * sim::kMinute);
  EXPECT_TRUE(done);
  const auto& report = rig.cl.last_wave_report();
  EXPECT_EQ(report.hosts_rejuvenated + report.unrecovered_hosts.size(),
            std::size_t{2});
  EXPECT_GT(report.planned_downtime, sim::Duration{0});
  // Unplanned ladders ran alongside the planned pass the whole time.
  EXPECT_GT(rig.cl.unplanned_report().failures, std::uint64_t{0});
}

TEST(SteadyFaultsAtScale, PausedWireTapPassSendsNoProbe) {
  // Observed hosts: a wire-tap signal probe mirrors host.load into the
  // probed host's metrics, so a probe that ran leaves that gauge behind.
  cluster::Cluster::Config config = crash_cluster(2, 2, /*rate=*/1.0);
  config.observe = true;
  ClusterRig rig(config);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = 500 * sim::kMillisecond;
  rig.cl.start_steady_faults(sfc);
  rig.run_for(2 * sim::kSecond);
  ASSERT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{2});

  // The crash budget is spent before the pass starts: admission pauses
  // it at once, and no host is probed for signals it would not use.
  bool done = false;
  rig.start_waves({.wave_size = 1}, done);
  rig.run_for(sim::kSecond);
  ASSERT_EQ(rig.cl.unplanned_down_hosts(), std::size_t{2});
  EXPECT_FALSE(done);
  EXPECT_GE(rig.cl.last_wave_report().admission_pauses, std::size_t{1});
  for (int h = 0; h < 2; ++h) {
    for (const auto& g : rig.cl.host(h).obs().metrics().gauges()) {
      EXPECT_NE(g.name, "host.load") << "host " << h << " was probed";
    }
  }
}

TEST(SteadyFaultsAtScale, FaultsDuringAnOwnedLadderAreAbsorbed) {
  // One host, so the planned wave pass owns it while steady arrivals keep
  // landing: the recovery driver must absorb them instead of stacking a
  // second ladder onto the host (the PR-8 overlap guard).
  ClusterRig rig(crash_cluster(1, 1, /*rate=*/1.0));
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  sfc.supervisor.micro.enabled = true;
  sfc.supervisor.micro.success_rate = 1.0;
  rig.cl.start_steady_faults(sfc);

  bool done = false;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 1;
  rig.start_waves(wcfg, done);
  rig.run_for(5 * sim::kMinute);
  EXPECT_TRUE(done);
  rig.cl.stop_steady_faults();
  rig.run_for(10 * sim::kSecond);  // drain the last in-flight ladder
  const auto& rep = rig.cl.unplanned_report();
  EXPECT_GT(rep.absorbed, std::uint64_t{0});
  EXPECT_EQ(rep.failures, rep.recoveries + rep.unrecovered);
}

TEST(SteadyFaultsAtScale, RetryOntoAnUnplannedLadderBacksOff) {
  // Host 1's turn fails (its boots hang), so it is queued for an
  // end-of-pass retry. Before the retry lands, steady crashes strike it
  // and unplanned ladders own the host (each one waits out the boot
  // watchdog). A retry that finds the host owned must count as a failed
  // attempt and back off, not trip the host's overlap guard.
  ClusterRig rig(crash_cluster(2, 1, /*rate=*/0.0));
  fault::FaultConfig hang;
  hang.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(hang);

  bool done = false;
  cluster::Cluster::WaveReport report;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.kind = rejuv::RebootKind::kCold;
  rig.start_waves(wcfg, done, &report);
  rig.run_while(
      [&] { return !done && rig.lb().evicted_backends() == 0; });
  ASSERT_FALSE(done);

  fault::FaultConfig crash = hang;
  crash.vmm_crash_rate = 1.0;
  rig.cl.host(1).configure_faults(crash);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  rig.cl.start_steady_faults(sfc);

  // All three attempts (after 30, then 60, then 120 more minutes) land
  // inside an unplanned ladder: no recovery runs, and the host ends
  // unrecovered.
  EXPECT_NO_THROW(rig.run_for(4 * sim::kHour));
  ASSERT_TRUE(done);
  EXPECT_TRUE(report.retries.empty());
  EXPECT_TRUE(report.recovered_hosts.empty());
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  EXPECT_GT(rig.cl.unplanned_report().failures, std::uint64_t{0});
  rig.cl.stop_steady_faults();
  EXPECT_FALSE(rig.cl.rolling_in_progress());
}

// How many of the pass's waves launched `host`.
std::size_t waves_with(const cluster::Cluster::WaveReport& report,
                       std::size_t host) {
  return static_cast<std::size_t>(std::count_if(
      report.waves.begin(), report.waves.end(), [host](const auto& w) {
        return std::count(w.hosts.begin(), w.hosts.end(), host) != 0;
      }));
}

TEST(SteadyFaultsAtScale, CrashBetweenLaunchAndTurnRequeuesTheHost) {
  // A steady crash lands on host 1 after the wave picked it and before
  // its turn arrives: the launch decision and the turn are one link
  // latency apart, and the crash notice trails the crash by another. The
  // turn must be handed back and the host requeued, not run into the
  // unplanned ladder's overlap guard.
  const cluster::Cluster::Config config = crash_cluster(2, 1, /*rate=*/0.0);
  const sim::Duration latency = config.calib.link.latency;
  ClusterRig rig(config);
  fault::FaultConfig crash;
  crash.vmm_crash_rate = 1.0;
  rig.cl.host(1).configure_faults(crash);
  rig.run_for(sim::kSecond);  // every partition clock at one time
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  rig.cl.start_steady_faults(sfc);

  // The pass's signal probe is a round trip (2 latencies) and the turn
  // lands one latency after the launch. Starting the pass 1.5 latencies
  // before the first check puts the crash after the probe answered and
  // before the turn arrives, and its notice after the launch.
  rig.run_for(sfc.process.check_interval - 3 * latency / 2);
  bool done = false;
  cluster::Cluster::WaveReport report;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 2;
  rig.start_waves(wcfg, done, &report);
  rig.run_while(
      [&] { return rig.cl.last_wave_report().deferred_turns == 0; });
  ASSERT_FALSE(done);
  ASSERT_EQ(rig.cl.last_wave_report().waves.size(), std::size_t{1});
  EXPECT_EQ(rig.cl.last_wave_report().waves[0].hosts,
            (std::vector<std::size_t>{0, 1}));

  // Dry the fault source up so the unplanned ladder and the requeued
  // turn can finish.
  rig.cl.stop_steady_faults();
  rig.cl.host(1).configure_faults({});
  rig.run_while([&done] { return !done; });
  ASSERT_TRUE(done);
  EXPECT_GE(report.deferred_turns, std::size_t{1});
  // Host 1 left the first wave without an outcome and ran in a later one.
  EXPECT_EQ(report.waves[0].outcome_hosts, (std::vector<std::size_t>{0}));
  EXPECT_EQ(waves_with(report, 1), std::size_t{2});
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{2});
  EXPECT_EQ(report.hosts_rejuvenated + report.recovered_hosts.size() +
                report.unrecovered_hosts.size(),
            std::size_t{2});
  const auto& rep = rig.cl.unplanned_report();
  EXPECT_EQ(rep.failures, std::uint64_t{1});
  EXPECT_EQ(rep.recoveries, std::uint64_t{1});
}

TEST(SteadyFaultsAtScale, LadderExhaustedWhilePendingEndsTheHostUnrecovered) {
  // Micro-recovery off, so host 1's unplanned ladder is a hardware reboot
  // and cold boots, and every boot hangs: the ladder exhausts while the
  // rolling pass still has the host pending. The pass must skip the host
  // as unrecovered -- once, without launching a turn on it -- and the
  // scraper must flag it for a flight-recorder dump.
  ClusterRig rig(crash_cluster(2, 1, /*rate=*/0.0));
  rig.cl.start_scraping({});
  fault::FaultConfig doomed;
  doomed.vmm_crash_rate = 1.0;
  doomed.boot_hang_rate = 1.0;
  rig.cl.host(1).configure_faults(doomed);
  cluster::Cluster::SteadyFaultsConfig sfc;
  sfc.process.check_interval = sim::kSecond;
  rig.cl.start_steady_faults(sfc);
  rig.run_while([&] { return rig.cl.unplanned_down_hosts() == 0; });

  bool done = false;
  cluster::Cluster::WaveReport report;
  cluster::Cluster::WaveConfig wcfg;
  wcfg.wave_size = 2;
  rig.start_waves(wcfg, done, &report);
  // Disarm as soon as the first ladder gives up, before a second one
  // can start on the host.
  rig.run_while([&] { return rig.cl.unplanned_report().unrecovered == 0; });
  rig.cl.stop_steady_faults();
  rig.run_while([&done] { return !done; });
  ASSERT_TRUE(done);

  const auto& rep = rig.cl.unplanned_report();
  EXPECT_EQ(rep.failures, std::uint64_t{1});
  EXPECT_EQ(rep.unrecovered, std::uint64_t{1});
  EXPECT_EQ(report.unrecovered_hosts, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.hosts_rejuvenated, std::size_t{1});
  // Skipped while pending: no wave launched it and no retry ran on it.
  EXPECT_EQ(waves_with(report, 1), std::size_t{0});
  EXPECT_TRUE(report.retries.empty());
  const auto& flagged = rig.cl.scraper()->flight_records();
  ASSERT_EQ(flagged.size(), std::size_t{1});
  EXPECT_EQ(flagged[0].host, std::size_t{1});
}

TEST(SteadyFaultsAtScale, FleetSplitsPlannedFromUnplannedDowntime) {
  ClusterRig rig(crash_cluster(2, 2, /*rate=*/0.0));
  cluster::SessionFleet fleet(rig.lb(),
                              {.sessions = 16,
                               .think_base = 1 * sim::kSecond,
                               .think_spread = 1 * sim::kSecond,
                               .retry_interval = 500 * sim::kMillisecond,
                               .tick = 250 * sim::kMillisecond});
  fleet.start(rig.engine);
  rig.run_for(3 * sim::kSecond);
  fleet.begin_window(rig.now());

  // First outage: a planned drain (admin eviction of every backend).
  rig.lb().set_host_evicted(0, true);
  rig.lb().set_host_evicted(1, true);
  rig.run_for(4 * sim::kSecond);
  rig.lb().set_host_evicted(0, false);
  rig.lb().set_host_evicted(1, false);
  rig.run_for(6 * sim::kSecond);
  const auto planned = fleet.stats(rig.now());
  EXPECT_GT(planned.planned_downtime, sim::Duration{0});
  EXPECT_EQ(planned.unplanned_downtime, sim::Duration{0});

  // Second outage: the same shape, but the shards know their backends are
  // crash-down, so the downtime lands in the unplanned column.
  rig.lb().set_host_crashed(0, true);
  rig.lb().set_host_crashed(1, true);
  rig.run_for(4 * sim::kSecond);
  rig.lb().set_host_crashed(0, false);
  rig.lb().set_host_crashed(1, false);
  rig.run_for(6 * sim::kSecond);
  fleet.stop();
  const auto both = fleet.stats(rig.now());
  EXPECT_GT(both.unplanned_downtime, sim::Duration{0});
  EXPECT_EQ(both.planned_downtime, planned.planned_downtime);
  // The split is an attribution, not extra downtime: the columns sum to
  // what the availability accounting already charges.
  EXPECT_DOUBLE_EQ(
      static_cast<double>(both.planned_downtime + both.unplanned_downtime),
      both.session_downtime.mean() * 16.0);
}

}  // namespace
}  // namespace rh::test
