// Extension features beyond the paper's core evaluation:
//  - driver domains (Sec. 7: cannot be suspended; raise warm downtime)
//  - dom0-only restart (the paper's stated future work)
//  - saved-VM related-work variants: compressed images, RAM-disk target
#include <gtest/gtest.h>

#include "test_util.hpp"
#include "workload/prober.hpp"

namespace rh::test {
namespace {

// ------------------------------------------------------ driver domains

TEST(DriverDomains, WarmRebootMustRebootThem) {
  HostFixture fx(2);
  fx.guests[1]->set_driver_domain(true);
  const auto gen0 = fx.guests[0]->find_service("sshd")->generation();
  const auto gen1 = fx.guests[1]->find_service("sshd")->generation();
  const auto report = fx.rejuvenate(rejuv::RebootKind::kWarm);
  // The normal guest kept its service; the driver domain was restarted.
  EXPECT_EQ(fx.guests[0]->find_service("sshd")->generation(), gen0);
  EXPECT_EQ(fx.guests[1]->find_service("sshd")->generation(), gen1 + 1);
  // The breakdown shows the extra steps.
  bool saw_shutdown = false, saw_boot = false;
  for (const auto& s : report.steps) {
    saw_shutdown |= s.label == "driver domain shutdown";
    saw_boot |= s.label == "driver domain boot";
  }
  EXPECT_TRUE(saw_shutdown);
  EXPECT_TRUE(saw_boot);
}

TEST(DriverDomains, TheirPresenceIncreasesWarmDowntime) {
  auto total_time = [](bool with_driver) {
    HostFixture fx(3);
    if (with_driver) fx.guests[2]->set_driver_domain(true);
    return fx.rejuvenate(rejuv::RebootKind::kWarm).total_duration();
  };
  const auto plain = total_time(false);
  const auto with_driver = total_time(true);
  // "the existence of driver domains increases the downtime" (Sec. 7).
  EXPECT_GT(with_driver, plain + 10 * sim::kSecond);
}

TEST(DriverDomains, DriverDomainServiceSeesColdStyleDowntime) {
  HostFixture fx(2);
  fx.guests[1]->set_driver_domain(true);
  auto* ssh0 = fx.guests[0]->find_service("sshd");
  auto* ssh1 = fx.guests[1]->find_service("sshd");
  workload::Prober p0(fx.sim, {},
                      [&] { return fx.guests[0]->service_reachable(*ssh0); });
  workload::Prober p1(fx.sim, {},
                      [&] { return fx.guests[1]->service_reachable(*ssh1); });
  p0.start();
  p1.start();
  fx.sim.run_for(sim::kSecond);
  const sim::SimTime start = fx.sim.now();
  fx.rejuvenate(rejuv::RebootKind::kWarm);
  fx.sim.run_for(5 * sim::kSecond);
  const auto normal = p0.outage_after(start).value_or(0);
  const auto driver = p1.outage_after(start).value_or(0);
  EXPECT_GT(driver, normal + 10 * sim::kSecond);
}

TEST(DriverDomains, SavedRebootAlsoSkipsSuspendingThem) {
  HostFixture fx(2);
  fx.guests[1]->set_driver_domain(true);
  fx.rejuvenate(rejuv::RebootKind::kSaved);
  EXPECT_EQ(fx.guests[0]->find_service("sshd")->generation(), std::uint64_t{1});
  EXPECT_EQ(fx.guests[1]->find_service("sshd")->generation(), std::uint64_t{2});
  EXPECT_TRUE(fx.host->images().empty());  // only vm0's image, consumed
}

// ------------------------------------------------- dom0-only restart

TEST(Dom0Restart, GuestsSurviveWithMemoryIntact) {
  HostFixture fx(2);
  auto& vmm_before = fx.host->vmm();
  const auto generation = fx.host->vmm_generation();
  fx.host->vmm().guest_write(fx.guests[0]->domain_id(), 123, 0xbeef);
  bool up = false;
  fx.host->restart_dom0([&] { up = true; });
  run_until_flag(fx.sim, up);
  // Same VMM instance, same domains, same memory.
  EXPECT_EQ(fx.host->vmm_generation(), generation);
  EXPECT_EQ(&fx.host->vmm(), &vmm_before);
  EXPECT_EQ(fx.host->vmm().guest_read(fx.guests[0]->domain_id(), 123), 0xbeefu);
  for (auto& g : fx.guests) EXPECT_EQ(g->state(), guest::OsState::kRunning);
}

TEST(Dom0Restart, ServicesUnreachableOnlyWhileDom0IsDown) {
  HostFixture fx(1);
  auto* ssh = fx.guests[0]->find_service("sshd");
  workload::Prober prober(fx.sim, {}, [&] {
    return fx.guests[0]->service_reachable(*ssh);
  });
  prober.start();
  fx.sim.run_for(sim::kSecond);
  const sim::SimTime start = fx.sim.now();
  bool up = false;
  fx.host->restart_dom0([&] { up = true; });
  run_until_flag(fx.sim, up);
  fx.sim.run_for(2 * sim::kSecond);
  prober.stop();
  const auto outage = prober.outage_after(start);
  ASSERT_TRUE(outage.has_value());
  // The bridge forwards through dom0's shutdown, so only the userland boot
  // (31.5 s) is lost -- cheaper than even the warm full reboot when only
  // dom0 needs rejuvenation, and no domain is ever suspended.
  EXPECT_NEAR(sim::to_seconds(*outage), 31.5, 1.5);
}

TEST(Dom0Restart, RequiresHostUp) {
  HostFixture fx(0);
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);
  EXPECT_THROW(fx.host->restart_dom0([] {}), InvariantViolation);
}

// ----------------------------------------------- saved-VM variants

double saved_downtime(Calibration calib, int vms = 2) {
  HostFixture fx(vms, calib);
  auto& g = *fx.guests[0];
  auto* ssh = g.find_service("sshd");
  workload::Prober prober(fx.sim, {},
                          [&] { return g.service_reachable(*ssh); });
  prober.start();
  fx.sim.run_for(sim::kSecond);
  const sim::SimTime start = fx.sim.now();
  fx.rejuvenate(rejuv::RebootKind::kSaved);
  fx.sim.run_for(5 * sim::kSecond);
  return sim::to_seconds(prober.outage_after(start).value_or(0));
}

TEST(SavedVariants, CompressionShrinksTheDiskTime) {
  Calibration plain;
  Calibration compressed;
  compressed.xen_save_compression_ratio = 0.45;
  const double t_plain = saved_downtime(plain);
  const double t_comp = saved_downtime(compressed);
  EXPECT_LT(t_comp, t_plain - 10.0);
  EXPECT_GT(t_comp, 60.0);  // still far from warm's ~40 s
}

TEST(SavedVariants, RamDiskBeatsRotatingDiskButNotWarm) {
  Calibration ramdisk;
  ramdisk.save_to_ram_disk = true;
  const double t_ram = saved_downtime(ramdisk);
  const double t_plain = saved_downtime(Calibration{});
  EXPECT_LT(t_ram, t_plain);
  // Warm downtime at n=2 is ~42 s; even the fast medium pays the copy and
  // the hardware reset, so it cannot come close.
  EXPECT_GT(t_ram, 80.0);
}

TEST(SavedVariants, RoundTripStillCorrect) {
  Calibration calib;
  calib.xen_save_compression_ratio = 0.45;
  calib.save_to_ram_disk = true;
  HostFixture fx(1, calib);
  const auto gen = fx.guests[0]->find_service("sshd")->generation();
  fx.rejuvenate(rejuv::RebootKind::kSaved);
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  EXPECT_EQ(fx.guests[0]->state(), guest::OsState::kRunning);
  EXPECT_EQ(fx.guests[0]->find_service("sshd")->generation(), gen);
}

}  // namespace
}  // namespace rh::test
