// In-place VMM micro-recovery (DESIGN.md §13): the rung above warm.
// Covers the success path (frozen VMs resume over a rebuilt VMM), the
// failure ladder (attempts exhaust -> hardware reboot + cold boots),
// per-VM snapshot corruption, hang detection latency, and the wave-level
// outcome reporting the cluster layer builds on top.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "rejuv/supervisor.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

using fault::FaultConfig;
using fault::FaultKind;
using rejuv::RecoveryAction;
using rejuv::Supervisor;
using rejuv::SupervisorConfig;
using rejuv::SupervisorReport;

SupervisorConfig micro_config(double success_rate = 1.0) {
  SupervisorConfig cfg;
  cfg.micro.enabled = true;
  cfg.micro.success_rate = success_rate;
  return cfg;
}

/// Drives one respond_to_failure() to completion; returns the report.
SupervisorReport respond(HostFixture& fx, Supervisor& sup, FaultKind kind) {
  bool done = false;
  sup.respond_to_failure(kind, [&done](const SupervisorReport&) {
    done = true;
  });
  run_until_flag(fx.sim, done, 2 * sim::kHour);
  return sup.report();
}

TEST(MicroRecovery, InPlaceRecoveryResumesEveryFrozenVm) {
  HostFixture fx(3);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  const auto report = respond(fx, sup, FaultKind::kVmmCrash);

  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.vmm_crashed);
  EXPECT_TRUE(report.micro_recovered);
  EXPECT_EQ(report.micro_attempts, std::size_t{1});
  EXPECT_EQ(report.completed, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.resumed_vms, std::size_t{3});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{0});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kMicroRecoveryAttempt),
            std::size_t{1});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kMicroRecoverySucceeded),
            std::size_t{1});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kHardwareRebootAfterCrash),
            std::size_t{0});
  EXPECT_TRUE(fx.host->up());
  EXPECT_FALSE(fx.host->recovery_in_progress());
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());  // resumed state, not a fresh boot
  }
}

TEST(MicroRecovery, ExhaustedAttemptsFallBackToHardwareReboot) {
  HostFixture fx(2);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config(/*success_rate=*/0.0));
  const auto report = respond(fx, sup, FaultKind::kVmmCrash);

  EXPECT_TRUE(report.success);  // the bottom rung still brings VMs back
  EXPECT_FALSE(report.micro_recovered);
  EXPECT_EQ(report.micro_attempts, std::size_t{2});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kMicroRecoveryFailed),
            std::size_t{2});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kHardwareRebootAfterCrash),
            std::size_t{1});
  EXPECT_EQ(report.completed, rejuv::RebootKind::kCold);
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});
  EXPECT_TRUE(fx.host->up());
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(MicroRecovery, CorruptSnapshotDegradesThatVmOnlyToColdBoot) {
  HostFixture fx(2);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  bool done = false;
  sup.respond_to_failure(FaultKind::kVmmCrash,
                         [&done](const SupervisorReport&) { done = true; });
  // The crash snapshots were cut synchronously at the failure point; rot
  // one of them in RAM before the rebuild's checksum validation runs.
  fx.host->preserved().corrupt_payload("domain/vm0");
  run_until_flag(fx.sim, done, 2 * sim::kHour);

  const auto& report = sup.report();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.micro_recovered);  // the sibling still resumed in place
  EXPECT_EQ(report.resumed_vms, std::size_t{1});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{1});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kColdBootSingleVm),
            std::size_t{1});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
  EXPECT_TRUE(fx.guests[1]->integrity_ok());
}

TEST(MicroRecovery, AllSnapshotsCorruptMeansMetadataCorruptFallback) {
  HostFixture fx(2);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  bool done = false;
  sup.respond_to_failure(FaultKind::kVmmCrash,
                         [&done](const SupervisorReport&) { done = true; });
  fx.host->preserved().corrupt_payload("domain/vm0");
  fx.host->preserved().corrupt_payload("domain/vm1");
  run_until_flag(fx.sim, done, 2 * sim::kHour);

  const auto& report = sup.report();
  EXPECT_TRUE(report.success);
  EXPECT_FALSE(report.micro_recovered);
  EXPECT_EQ(
      report.recovery_count(RecoveryAction::kMicroRecoveryMetadataCorrupt),
      std::size_t{1});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kHardwareRebootAfterCrash),
            std::size_t{1});
  EXPECT_EQ(report.completed, rejuv::RebootKind::kCold);
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});
  EXPECT_TRUE(fx.host->up());
}

TEST(MicroRecovery, HangIsActedOnOnlyAfterDetectionLatency) {
  HostFixture fx(2);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  bool done = false;
  sup.respond_to_failure(FaultKind::kVmmHang,
                         [&done](const SupervisorReport&) { done = true; });
  // A wedge does not announce itself: the instance is only torn down once
  // the external watchdog fires.
  EXPECT_TRUE(fx.host->up());
  run_until_flag(fx.sim, done, 2 * sim::kHour);
  const auto& report = sup.report();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.micro_recovered);
  EXPECT_GE(report.total_duration(), sim::kSecond);  // the detection latency
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(MicroRecovery, MicroDisabledResponseTakesTheLegacyCrashPath) {
  HostFixture fx(2);
  Supervisor sup(*fx.host, fx.guest_ptrs(), SupervisorConfig{});
  const auto report = respond(fx, sup, FaultKind::kVmmCrash);

  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.micro_attempts, std::size_t{0});
  EXPECT_FALSE(report.micro_recovered);
  EXPECT_EQ(report.recovery_count(RecoveryAction::kHardwareRebootAfterCrash),
            std::size_t{1});
  EXPECT_EQ(report.completed, rejuv::RebootKind::kCold);
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});
}

TEST(MicroRecovery, InPlaceRecoveryIsFarFasterThanHardwareReboot) {
  HostFixture micro_fx(2);
  Supervisor micro_sup(*micro_fx.host, micro_fx.guest_ptrs(), micro_config());
  const auto micro_report = respond(micro_fx, micro_sup, FaultKind::kVmmCrash);

  HostFixture cold_fx(2);
  Supervisor cold_sup(*cold_fx.host, cold_fx.guest_ptrs(), SupervisorConfig{});
  const auto cold_report = respond(cold_fx, cold_sup, FaultKind::kVmmCrash);

  ASSERT_TRUE(micro_report.micro_recovered);
  ASSERT_FALSE(cold_report.micro_recovered);
  // ReHype's claim, reproduced: in-place recovery is orders of magnitude
  // faster than a power cycle plus cold boots.
  EXPECT_LT(micro_report.total_duration() * 10,
            cold_report.total_duration());
}

TEST(MicroRecovery, RespondToFailureValidatesKindAndIsOneShot) {
  HostFixture fx(1);
  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  EXPECT_THROW(sup.respond_to_failure(FaultKind::kDiskReadError,
                                      [](const SupervisorReport&) {}),
               InvariantViolation);
  const auto report = respond(fx, sup, FaultKind::kVmmCrash);
  EXPECT_TRUE(report.success);
  EXPECT_THROW(sup.respond_to_failure(FaultKind::kVmmCrash,
                                      [](const SupervisorReport&) {}),
               InvariantViolation);
  EXPECT_THROW(sup.run([](const SupervisorReport&) {}), InvariantViolation);
}

TEST(MicroRecovery, SteadyCrashDuringServiceIsRecoveredInPlace) {
  // End-to-end: a steady-state arrival process detects the crash, a fresh
  // Supervisor owns the response, and the VMs come back with state intact.
  HostFixture fx(2);
  FaultConfig faults;
  faults.vmm_crash_rate = 1.0;
  fx.host->configure_faults(faults);
  fault::SteadyFaultProcess steady(fx.sim, fx.host->faults(), {});

  std::vector<std::unique_ptr<Supervisor>> responders;
  bool recovered = false;
  steady.start([&](FaultKind kind) {
    responders.push_back(std::make_unique<Supervisor>(
        *fx.host, fx.guest_ptrs(), micro_config()));
    responders.back()->respond_to_failure(
        kind, [&recovered](const SupervisorReport& r) {
          recovered = r.micro_recovered;
        });
  });
  fx.sim.run_until(fx.sim.now() + 10 * sim::kMinute);
  steady.stop();
  EXPECT_TRUE(recovered);
  ASSERT_EQ(responders.size(), std::size_t{1});  // paused until resumed
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(MicroRecovery, WaveReportReflectsMidWaveLadderOutcomes) {
  // Supervised waves: a VMM crash at the start of every host's turn. With
  // micro-recovery enabled the wave completes on the preferred rung; with
  // it disabled every host degrades to cold and the report says so.
  auto run_wave = [](bool micro_enabled) {
    cluster::Cluster::Config ccfg;
    ccfg.hosts = 2;
    ccfg.vms_per_host = 2;
    ccfg.faults.vmm_crash_rate = 1.0;
    ClusterRig rig(ccfg);
    cluster::Cluster::WaveConfig wcfg;
    wcfg.wave_size = 2;
    if (micro_enabled) {
      wcfg.supervisor.micro.enabled = true;
      wcfg.supervisor.micro.success_rate = 1.0;
    }
    bool done = false;
    cluster::Cluster::WaveReport report;
    rig.start_waves(wcfg, done, &report);
    const sim::SimTime deadline = rig.now() + 12 * sim::kHour;
    rig.run_while([&] { return !done && rig.now() < deadline; });
    EXPECT_TRUE(done);
    return report;
  };

  const auto with_micro = run_wave(true);
  ASSERT_EQ(with_micro.waves.size(), std::size_t{1});
  ASSERT_EQ(with_micro.waves[0].outcomes.size(), std::size_t{2});
  for (const auto& outcome : with_micro.waves[0].outcomes) {
    EXPECT_TRUE(outcome.vmm_crashed);
    EXPECT_TRUE(outcome.micro_recovered);
    EXPECT_EQ(outcome.completed, rejuv::RebootKind::kWarm);
  }
  EXPECT_TRUE(with_micro.fully_recovered());
  EXPECT_TRUE(with_micro.degraded_hosts.empty());

  const auto without_micro = run_wave(false);
  ASSERT_EQ(without_micro.waves.size(), std::size_t{1});
  EXPECT_EQ(without_micro.degraded_hosts.size(), std::size_t{2});
  for (const auto& outcome : without_micro.waves[0].outcomes) {
    EXPECT_TRUE(outcome.vmm_crashed);
    EXPECT_EQ(outcome.completed, rejuv::RebootKind::kCold);
  }
  EXPECT_TRUE(without_micro.fully_recovered());
}

TEST(MicroRecovery, TebibyteHostKeepsTokensThroughWarmAndMicro) {
  // 268,435,456 frames: a per-frame token array alone would take 2 GiB.
  // Memory kept as runs makes the host cost what its few runs cost.
  Calibration calib;
  calib.machine.ram = 1024 * sim::kGiB;
  HostFixture fx(0, calib);
  fx.add_vm("big0", 256 * sim::kGiB);
  fx.add_vm("big1", 256 * sim::kGiB);
  std::vector<guest::FileBlock> blocks;
  for (std::int64_t b = 0; b < 8; ++b) blocks.push_back({/*file_id=*/7, b});
  for (auto& g : fx.guests) {
    for (const auto& block : blocks) g->cache().insert(block);
  }
  const auto& memory = fx.host->machine().memory();
  const std::int64_t populated = memory.populated_frames();
  ASSERT_GE(populated, 2 * std::ssize(blocks));

  const auto check_host = [&](const char* after) {
    SCOPED_TRACE(after);
    for (auto& g : fx.guests) {
      EXPECT_EQ(g->state(), guest::OsState::kRunning);
      EXPECT_TRUE(g->integrity_ok());
      for (const auto& block : blocks) EXPECT_TRUE(g->cache().lookup(block));
      EXPECT_EQ(g->cache().stale_hits(), std::uint64_t{0});
    }
    EXPECT_EQ(memory.populated_frames(), populated);
    auto& vmm = fx.host->vmm();
    EXPECT_TRUE(vmm.allocator().accounting_ok());
    EXPECT_TRUE(vmm.frame_conservation_report().ok());
    EXPECT_LE(vmm.allocator().run_count(), std::size_t{8});
    for (auto& g : fx.guests) {
      EXPECT_LE(vmm.domain(g->domain_id()).p2m().run_count(), std::size_t{2});
    }
  };

  const auto warm = fx.rejuvenate(rejuv::RebootKind::kWarm);
  ASSERT_TRUE(warm.success);
  EXPECT_EQ(warm.resumed_vms, std::size_t{2});
  check_host("after the warm pass");

  Supervisor sup(*fx.host, fx.guest_ptrs(), micro_config());
  const auto micro = respond(fx, sup, FaultKind::kVmmCrash);
  ASSERT_TRUE(micro.micro_recovered);
  EXPECT_EQ(micro.resumed_vms, std::size_t{2});
  check_host("after the micro-recovery");
}

}  // namespace
}  // namespace rh::test
