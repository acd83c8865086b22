// End-to-end warm/saved/cold reboots: downtime ordering, state outcomes,
// step records, the suspend ordering, the creation artifact and TCP
// session survival (Fig. 6 and Sec. 5.3 in miniature).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/tcp.hpp"
#include "test_util.hpp"
#include "workload/prober.hpp"

namespace rh::test {
namespace {

/// Measures the ssh downtime of guest 0 across a rejuvenation.
sim::Duration measure_downtime(HostFixture& fx, rejuv::RebootKind kind) {
  auto& g = *fx.guests[0];
  auto* ssh = g.find_service("sshd");
  workload::Prober prober(fx.sim, {}, [&] { return g.service_reachable(*ssh); });
  prober.start();
  fx.sim.run_for(2 * sim::kSecond);
  const sim::SimTime reboot_start = fx.sim.now();
  fx.rejuvenate(kind);
  fx.sim.run_for(5 * sim::kSecond);
  prober.stop();
  const auto outage = prober.outage_after(reboot_start);
  EXPECT_TRUE(outage.has_value()) << "no outage observed?";
  return outage.value_or(0);
}

TEST(RebootDrivers, WarmLeavesGuestsRunningWithoutReboot) {
  HostFixture fx(2);
  const auto boot_generation = fx.guests[0]->find_service("sshd")->generation();
  const auto report = fx.rejuvenate(rejuv::RebootKind::kWarm);
  EXPECT_TRUE(report.success);
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
    // Services were never restarted.
    EXPECT_EQ(g->find_service("sshd")->generation(), boot_generation);
  }
  // No hardware reset happened.
  EXPECT_EQ(fx.host->machine().reset_count(), std::uint64_t{0});
}

TEST(RebootDrivers, ColdRestartsEverything) {
  HostFixture fx(2);
  const auto boot_generation = fx.guests[0]->find_service("sshd")->generation();
  const auto report = fx.rejuvenate(rejuv::RebootKind::kCold);
  EXPECT_TRUE(report.success);
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_EQ(g->find_service("sshd")->generation(), boot_generation + 1);
  }
  EXPECT_EQ(fx.host->machine().reset_count(), std::uint64_t{1});
}

TEST(RebootDrivers, SavedRoundTripsThroughDisk) {
  HostFixture fx(2);
  const auto disk_written_before = fx.host->machine().disk().busy_time();
  const auto report = fx.rejuvenate(rejuv::RebootKind::kSaved);
  EXPECT_TRUE(report.success);
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    // Services survived inside the image (not restarted).
    EXPECT_EQ(g->find_service("sshd")->generation(), std::uint64_t{1});
  }
  // Save files were consumed.
  EXPECT_TRUE(fx.host->images().empty());
  // The disk did serious work (2 x 1 GiB out + back, ~13 s each way min.).
  EXPECT_GT(fx.host->machine().disk().busy_time() - disk_written_before,
            sim::from_seconds(40.0));
  EXPECT_EQ(fx.host->machine().reset_count(), std::uint64_t{1});
}

TEST(RebootDrivers, DowntimeOrderingMatchesFig6) {
  // warm << cold << saved, with the paper's rough magnitudes for n=2.
  sim::Duration warm = 0, saved = 0, cold = 0;
  {
    HostFixture fx(2);
    warm = measure_downtime(fx, rejuv::RebootKind::kWarm);
  }
  {
    HostFixture fx(2);
    cold = measure_downtime(fx, rejuv::RebootKind::kCold);
  }
  {
    HostFixture fx(2);
    saved = measure_downtime(fx, rejuv::RebootKind::kSaved);
  }
  EXPECT_LT(warm, cold);
  EXPECT_LT(cold, saved);
  // Warm downtime is ~40 s regardless of n; cold is >= 100 s with the
  // hardware reset; saved is the worst.
  EXPECT_NEAR(sim::to_seconds(warm), 40.0, 8.0);
  EXPECT_GT(sim::to_seconds(cold), 90.0);
  EXPECT_GT(sim::to_seconds(saved), sim::to_seconds(cold) + 30.0);
}

TEST(RebootDrivers, BreakdownRecordsAllSteps) {
  HostFixture fx(1);
  const auto report = fx.rejuvenate(rejuv::RebootKind::kWarm);
  const auto& steps = report.steps;
  ASSERT_EQ(steps.size(), std::size_t{5});
  EXPECT_EQ(steps[0].label, "load xexec image");
  EXPECT_EQ(steps[1].label, "dom0 shutdown");
  EXPECT_EQ(steps[2].label, "on-memory suspend");
  EXPECT_EQ(steps[3].label, "quick reload + VMM/dom0 boot");
  EXPECT_EQ(steps[4].label, "on-memory resume");
  // Steps are contiguous and ordered.
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].start, steps[i - 1].end);
  }
  // The on-memory suspend is nearly instant; the dom0 shutdown is the
  // paper's 10 s.
  EXPECT_LT(steps[2].duration(), sim::kSecond);
  EXPECT_NEAR(sim::to_seconds(steps[1].duration()), 10.0, 1.0);
}

TEST(Rejuvenation, OriginalXenOrderingSuspendsBeforeDom0Shutdown) {
  // RootHammer lets the VMM suspend the domains after dom0 has shut down,
  // so services keep answering through dom0's shutdown. Original Xen needs
  // dom0 to suspend them first. ablations [1] prints 10.4 s vs 0.4 s from
  // the command to the stop, and 41.9 s vs 51.9 s of downtime.
  struct Run {
    std::vector<std::string> steps;
    sim::Duration stop_after = 0;  ///< reboot command -> guest 0's sshd down
    sim::Duration downtime = 0;
  };
  const auto run = [](bool suspend_by_vmm_after_dom0_shutdown) {
    Calibration calib;
    calib.suspend_by_vmm_after_dom0_shutdown =
        suspend_by_vmm_after_dom0_shutdown;
    HostFixture fx(3, calib);
    auto& g = *fx.guests[0];
    auto* ssh = g.find_service("sshd");
    workload::Prober prober(fx.sim, {},
                            [&] { return g.service_reachable(*ssh); });
    prober.start();
    fx.sim.run_for(sim::kSecond);
    const sim::SimTime start = fx.sim.now();
    Run out;
    for (const auto& s : fx.rejuvenate(rejuv::RebootKind::kWarm).steps) {
      out.steps.push_back(s.label);
    }
    prober.stop();
    out.stop_after = prober.down_at_after(start).value_or(start) - start;
    out.downtime = prober.outage_after(start).value_or(0);
    return out;
  };
  const Run roothammer = run(true);
  const Run original = run(false);
  EXPECT_EQ(original.steps,
            (std::vector<std::string>{"load xexec image", "on-memory suspend",
                                      "dom0 shutdown",
                                      "quick reload + VMM/dom0 boot",
                                      "on-memory resume"}));
  EXPECT_GE(roothammer.stop_after - original.stop_after, 9 * sim::kSecond);
  EXPECT_GE(original.downtime - roothammer.downtime, 9 * sim::kSecond);
}

TEST(Rejuvenation, SimultaneousResumesTriggerTheCreationArtifact) {
  // Xen 3.0.0 degraded network throughput for ~25 s after several domains
  // were created at once: Fig. 7's warm dip. Only on-memory resumes are
  // simultaneous; disk restores and cold boots are spread out by the disk.
  const Calibration calib;
  {
    HostFixture fx(2);
    ASSERT_TRUE(fx.supervise().success);
    EXPECT_EQ(fx.host->throughput_factor(), calib.creation_artifact_nic_factor);
    fx.sim.run_for(calib.creation_artifact_duration);
    EXPECT_EQ(fx.host->throughput_factor(), 1.0);
  }
  for (const auto kind :
       {rejuv::RebootKind::kSaved, rejuv::RebootKind::kCold}) {
    HostFixture fx(2);
    rejuv::SupervisorConfig config;
    config.preferred = kind;
    ASSERT_TRUE(fx.supervise(config).success) << rejuv::to_string(kind);
    EXPECT_EQ(fx.host->throughput_factor(), 1.0) << rejuv::to_string(kind);
  }
  {
    // An in-place micro-recovery resumes the frozen VMs together too.
    HostFixture fx(2);
    rejuv::SupervisorConfig config;
    config.micro.enabled = true;
    config.micro.success_rate = 1.0;
    rejuv::Supervisor sup(*fx.host, fx.guest_ptrs(), config);
    bool done = false;
    sup.respond_to_failure(fault::FaultKind::kVmmCrash,
                           [&done](const rejuv::SupervisorReport&) {
                             done = true;
                           });
    run_until_flag(fx.sim, done);
    ASSERT_TRUE(sup.report().micro_recovered);
    EXPECT_EQ(sup.report().resumed_vms, std::size_t{2});
    EXPECT_EQ(fx.host->throughput_factor(), calib.creation_artifact_nic_factor);
  }
}

// ------------------------------------------------------------ TCP (5.3)

class TcpSessionTest : public ::testing::Test {
 protected:
  /// Builds a keepalive TCP session against guest 0's sshd.
  std::unique_ptr<net::TcpConnection> make_session(HostFixture& fx,
                                                   sim::Duration client_timeout) {
    auto& g = *fx.guests[0];
    auto* ssh = static_cast<guest::SshService*>(g.find_service("sshd"));
    const auto gen = ssh->generation();
    net::TcpConnection::Config cfg;
    cfg.client_timeout = client_timeout;
    auto conn = std::make_unique<net::TcpConnection>(
        fx.sim, cfg, [&g, ssh, gen] { return ssh->segment_outcome(g, gen); });
    conn->open();
    return conn;
  }
};

TEST_F(TcpSessionTest, SurvivesWarmRebootViaRetransmission) {
  HostFixture fx(1);
  auto conn = make_session(fx, /*client_timeout=*/0);
  fx.rejuvenate(rejuv::RebootKind::kWarm);
  fx.sim.run_for(10 * sim::kSecond);
  EXPECT_EQ(conn->state(), net::TcpState::kEstablished);
  EXPECT_GT(conn->retransmissions(), std::uint64_t{0});
  // The observed outage matches the warm downtime (~40 s).
  EXPECT_NEAR(sim::to_seconds(conn->longest_outage()), 40.0, 15.0);
}

TEST_F(TcpSessionTest, SixtySecondClientTimeoutKillsSessionDuringSavedReboot) {
  // The paper: a 60 s client-side timeout expires during the (429 s-scale)
  // saved-VM reboot but not during the warm one.
  {
    HostFixture fx(1);
    auto conn = make_session(fx, 60 * sim::kSecond);
    fx.rejuvenate(rejuv::RebootKind::kSaved);
    fx.sim.run_for(10 * sim::kSecond);
    EXPECT_EQ(conn->state(), net::TcpState::kTimedOut);
  }
  {
    HostFixture fx(1);
    auto conn = make_session(fx, 60 * sim::kSecond);
    fx.rejuvenate(rejuv::RebootKind::kWarm);
    fx.sim.run_for(10 * sim::kSecond);
    EXPECT_EQ(conn->state(), net::TcpState::kEstablished);
  }
}

TEST_F(TcpSessionTest, ColdRebootClosesSession) {
  HostFixture fx(1);
  auto conn = make_session(fx, /*client_timeout=*/0);
  fx.rejuvenate(rejuv::RebootKind::kCold);
  fx.sim.run_for(10 * sim::kSecond);
  // The server shut down cleanly (FIN) or, if the segment arrived after
  // the restart, reset the unknown session. Either way: dead.
  EXPECT_FALSE(conn->alive());
  EXPECT_TRUE(conn->state() == net::TcpState::kClosedByPeer ||
              conn->state() == net::TcpState::kReset);
}

}  // namespace
}  // namespace rh::test
