// Supervisor: the recovery ladder, step retries, watchdogs, and the
// fault-injected failure modes that drive them.
#include <gtest/gtest.h>

#include "cluster/vm_migrator.hpp"
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

TEST(Supervisor, FaultFreeWarmPassResumesEveryVm) {
  HostFixture fx(2);
  const auto report = fx.supervise();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.attempted, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.resumed_vms, std::size_t{2});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{0});
  EXPECT_TRUE(report.recoveries.empty());
  EXPECT_FALSE(report.vmm_crashed);
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(Supervisor, XexecFailureRetriesThenFallsBackToSaved) {
  HostFixture fx(2);
  FaultConfig faults;
  faults.xexec_failure_rate = 1.0;  // the warm path can never start
  fx.host->configure_faults(faults);

  const auto report = fx.supervise();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.attempted, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kSaved);
  // Default budget: 2 retries, then one rung down the ladder.
  EXPECT_EQ(report.recovery_count(RecoveryAction::kStepRetry), std::size_t{2});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kFallbackToSaved),
            std::size_t{1});
  EXPECT_EQ(report.restored_vms, std::size_t{2});  // state preserved on disk
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    EXPECT_TRUE(g->integrity_ok());
  }
}

TEST(Supervisor, DiskWriteErrorDegradesThatVmToColdBoot) {
  HostFixture fx(2);
  FaultConfig faults;
  faults.disk_write_error_rate = 1.0;  // every save dies on the platter
  fx.host->configure_faults(faults);

  SupervisorConfig cfg;
  cfg.preferred = rejuv::RebootKind::kSaved;
  const auto report = fx.supervise(cfg);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kSaved);
  EXPECT_EQ(report.recovery_count(RecoveryAction::kFallbackToCold),
            std::size_t{2});
  EXPECT_EQ(report.restored_vms, std::size_t{0});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});  // state lost, VMs back
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(Supervisor, CorruptPreservedImagesAreCaughtAndColdBooted) {
  HostFixture fx(2);
  FaultConfig faults;
  faults.image_corruption_rate = 1.0;  // every preserved image rots
  fx.host->configure_faults(faults);

  const auto report = fx.supervise();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.recovery_count(RecoveryAction::kColdBootSingleVm),
            std::size_t{2});
  EXPECT_EQ(report.resumed_vms, std::size_t{0});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{2});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(Supervisor, VmmCrashForcesHardwareRebootAndColdBoots) {
  HostFixture fx(3);
  FaultConfig faults;
  faults.vmm_crash_rate = 1.0;  // aging wins the race
  fx.host->configure_faults(faults);

  const auto report = fx.supervise();
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.vmm_crashed);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kCold);
  EXPECT_EQ(report.recovery_count(RecoveryAction::kHardwareRebootAfterCrash),
            std::size_t{1});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{3});
  EXPECT_TRUE(fx.host->up());
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(Supervisor, BootHangTriggersWatchdogThenGivesUp) {
  HostFixture fx(2);
  FaultConfig faults;
  faults.boot_hang_rate = 1.0;  // no boot will ever finish
  fx.host->configure_faults(faults);

  SupervisorConfig cfg;
  cfg.preferred = rejuv::RebootKind::kCold;
  const auto report = fx.supervise(cfg);
  EXPECT_FALSE(report.success);
  EXPECT_EQ(report.unrecovered_vms.size(), std::size_t{2});
  // Per VM: initial attempt + 2 retries, each reaped by the watchdog.
  EXPECT_EQ(report.recovery_count(RecoveryAction::kWatchdogPowerOff),
            std::size_t{6});
  EXPECT_EQ(report.recovery_count(RecoveryAction::kGaveUp), std::size_t{2});
  EXPECT_EQ(report.cold_booted_vms, std::size_t{0});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kHalted);
  }
}

TEST(Supervisor, RecoverBootsTheVmsAFailedPassLeftDown) {
  HostFixture fx(2);
  fx.host->configure_faults(
      [] { FaultConfig f; f.boot_hang_rate = 1.0; return f; }());
  SupervisorConfig cfg;
  cfg.preferred = rejuv::RebootKind::kCold;
  const auto failed = fx.supervise(cfg);
  ASSERT_FALSE(failed.success);

  // The operator fixed the root cause; a recovery-only pass brings the
  // halted VMs back without disturbing anything else.
  fx.host->configure_faults(FaultConfig{});
  Supervisor sup(*fx.host, fx.guest_ptrs(), cfg);
  bool done = false;
  sup.recover([&done](const SupervisorReport&) { done = true; });
  run_until_flag(fx.sim, done, 2 * sim::kHour);
  EXPECT_TRUE(sup.report().success);
  EXPECT_EQ(sup.report().cold_booted_vms, std::size_t{2});
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
  }
}

TEST(Supervisor, IsOneShot) {
  HostFixture fx(1);
  Supervisor sup(*fx.host, fx.guest_ptrs(), {});
  bool done = false;
  sup.run([&done](const SupervisorReport&) { done = true; });
  run_until_flag(fx.sim, done, 2 * sim::kHour);
  EXPECT_THROW(sup.run([](const SupervisorReport&) {}), InvariantViolation);
  EXPECT_THROW(sup.recover([](const SupervisorReport&) {}), InvariantViolation);
}

TEST(Supervisor, OverlappingLaddersOnOneHostAreRejectedLoudly) {
  // Regression: a second Supervisor entering any entry point while a
  // ladder is already in flight on the same host used to interleave state
  // silently; now the host-level guard fails fast, mirroring the
  // rolling-pass guard at cluster level.
  HostFixture fx(2);
  Supervisor first(*fx.host, fx.guest_ptrs(), {});
  bool done = false;
  first.run([&done](const SupervisorReport&) { done = true; });
  ASSERT_TRUE(fx.host->recovery_in_progress());
  ASSERT_TRUE(fx.host->up());  // the guard must trip, not the host check

  Supervisor second(*fx.host, fx.guest_ptrs(), {});
  EXPECT_THROW(second.run([](const SupervisorReport&) {}), InvariantViolation);
  EXPECT_THROW(second.recover([](const SupervisorReport&) {}),
               InvariantViolation);
  EXPECT_THROW(second.respond_to_failure(FaultKind::kVmmCrash,
                                         [](const SupervisorReport&) {}),
               InvariantViolation);

  // The rejected attempts must not have corrupted the in-flight ladder or
  // wedged the guard.
  run_until_flag(fx.sim, done, 2 * sim::kHour);
  EXPECT_TRUE(first.report().success);
  EXPECT_FALSE(fx.host->recovery_in_progress());
  Supervisor third(*fx.host, fx.guest_ptrs(), {});
  bool done_third = false;
  third.recover([&done_third](const SupervisorReport&) { done_third = true; });
  run_until_flag(fx.sim, done_third, 2 * sim::kHour);
  EXPECT_TRUE(third.report().success);
}

TEST(Supervisor, MigrationAbortLeavesVmRunningOnSource) {
  // Not a supervisor path, but the same failing world: a migration stream
  // that dies mid-pre-copy must leave the VM untouched on the source.
  sim::Simulation sim;
  vmm::Host src(sim, Calibration::paper_testbed(), 1);
  vmm::Host dst(sim, Calibration::paper_testbed(), 2);
  src.instant_start();
  dst.instant_start();
  auto vm = std::make_unique<guest::GuestOs>(src, "mig", sim::kGiB);
  vm->add_service(std::make_unique<guest::SshService>());
  bool up = false;
  vm->create_and_boot([&up] { up = true; });
  while (!up) sim.step();

  FaultConfig faults;
  faults.migration_abort_rate = 1.0;
  src.configure_faults(faults);

  cluster::VmMigrator migrator;
  cluster::VmMigrator::Result result;
  bool done = false;
  migrator.migrate(*vm, dst, [&](const cluster::VmMigrator::Result& r) {
    result = r;
    done = true;
  });
  while (!done && sim.pending_events() > 0) sim.step();
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.destination_domain, kNoDomain);
  // The VM never left: still running on the source, state intact.
  EXPECT_EQ(&vm->host(), &src);
  EXPECT_EQ(vm->state(), guest::OsState::kRunning);
  EXPECT_TRUE(vm->integrity_ok());
  EXPECT_FALSE(src.background_transfer());
  EXPECT_FALSE(dst.background_transfer());
  EXPECT_EQ(src.faults().count(FaultKind::kMigrationAbort), std::uint64_t{1});
}

}  // namespace
}  // namespace rh::test
