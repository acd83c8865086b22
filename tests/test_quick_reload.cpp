// Quick reload: memory preservation across VMM reboot -- the paper's
// second mechanism, and the one whose failure modes matter most.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rh::test {
namespace {

/// Suspends all guests, shuts down dom0 and quick-reloads; returns when
/// the new VMM and dom0 are up.
void warm_cycle_to_new_vmm(HostFixture& fx) {
  bool loaded = false;
  fx.host->vmm().xexec_load([&] { loaded = true; });
  run_until_flag(fx.sim, loaded);
  bool dom0_down = false;
  fx.host->shutdown_dom0([&] { dom0_down = true; });
  run_until_flag(fx.sim, dom0_down);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  bool up = false;
  fx.host->quick_reload([&] { up = true; });
  run_until_flag(fx.sim, up);
}

TEST(QuickReload, RequiresLoadedImage) {
  HostFixture fx(0);
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);
  EXPECT_THROW(fx.host->quick_reload([] {}), InvariantViolation);
}

TEST(QuickReload, RequiresDom0Down) {
  HostFixture fx(0);
  bool loaded = false;
  fx.host->vmm().xexec_load([&] { loaded = true; });
  run_until_flag(fx.sim, loaded);
  EXPECT_THROW(fx.host->quick_reload([] {}), InvariantViolation);
}

TEST(QuickReload, PreservesFrozenFrameContents) {
  HostFixture fx(2);
  auto& old_vmm = fx.host->vmm();
  // Mark guest memory with recognisable tokens and remember the MFNs.
  std::vector<std::pair<hw::FrameNumber, hw::ContentToken>> expectations;
  for (auto& g : fx.guests) {
    const DomainId id = g->domain_id();
    for (mm::Pfn pfn = 500; pfn < 520; ++pfn) {
      const hw::ContentToken tok =
          0xfeed0000 + static_cast<hw::ContentToken>(id * 1000 + pfn);
      old_vmm.guest_write(id, pfn, tok);
      expectations.emplace_back(old_vmm.domain(id).p2m().mfn_of(pfn), tok);
    }
  }
  const auto generation_before = fx.host->vmm_generation();

  warm_cycle_to_new_vmm(fx);

  // A genuinely new VMM instance is running...
  EXPECT_EQ(fx.host->vmm_generation(), generation_before + 1);
  EXPECT_EQ(fx.host->vmm().boot_mode(), vmm::BootMode::kQuickReload);
  // ...no hardware reset happened...
  EXPECT_EQ(fx.host->machine().reset_count(), std::uint64_t{0});
  EXPECT_EQ(fx.host->machine().memory().power_cycles(), std::uint64_t{0});
  // ...and every frozen frame still holds its token.
  for (const auto& [mfn, tok] : expectations) {
    EXPECT_EQ(fx.host->machine().memory().read(mfn), tok);
  }
}

TEST(QuickReload, ScrubsAllNonPreservedMemory) {
  HostFixture fx(1);
  auto& old_vmm = fx.host->vmm();
  // Put a token into a frame that is NOT part of any preserved region:
  // allocate it to the VMM owner and write through machine memory.
  const auto frames = expand_runs(old_vmm.allocator().allocate(kVmmOwner, 1));
  fx.host->machine().memory().write(frames[0], 0xdeadbeef);

  warm_cycle_to_new_vmm(fx);

  // The new VMM's boot scrubbed it (it was free from the new allocator's
  // point of view and not in the registry).
  EXPECT_EQ(fx.host->machine().memory().read(frames[0]), hw::kScrubbed);
}

TEST(QuickReload, ResumedGuestsKeepIntegrityAndServices) {
  HostFixture fx(3);
  warm_cycle_to_new_vmm(fx);
  int resumed = 0;
  for (auto& g : fx.guests) {
    fx.host->vmm().resume_domain_on_memory(g->name(), g.get(),
                                           [&](DomainId) { ++resumed; });
  }
  while (resumed < 3 && fx.sim.pending_events() > 0) fx.sim.step();
  ASSERT_EQ(resumed, 3);
  for (auto& g : fx.guests) {
    EXPECT_TRUE(g->integrity_ok());
    EXPECT_EQ(g->state(), guest::OsState::kRunning);
    // The service was never restarted: same generation as at boot.
    EXPECT_EQ(g->find_service("sshd")->generation(), std::uint64_t{1});
  }
}

TEST(QuickReload, DishonouredRegistryCorruptsImages) {
  // Ablation: a VMM that ignores the preserved-region registry (plain
  // kexec with no RootHammer support, Sec. 4.3) destroys the images.
  Calibration calib;
  calib.honor_preserved_regions = false;
  HostFixture fx(1, calib);
  warm_cycle_to_new_vmm(fx);
  // Either the resume cannot re-claim the frames (they were reused), or
  // the guest detects corruption. Both are failures of the ablated VMM.
  bool resume_failed = false;
  try {
    bool resumed = false;
    fx.host->vmm().resume_domain_on_memory("vm0", fx.guests[0].get(),
                                           [&](DomainId) { resumed = true; });
    while (!resumed && fx.sim.pending_events() > 0) fx.sim.step();
    resume_failed = !fx.guests[0]->integrity_ok();
  } catch (const InvariantViolation&) {
    resume_failed = true;
  }
  EXPECT_TRUE(resume_failed);
}

TEST(QuickReload, FasterThanHardwareReset) {
  // Section 5.2: quick reload ~11 s vs ~59 s with a hardware reset
  // (measured from dom0-shutdown completion to VMM ready).
  auto reboot_time = [](bool quick) {
    HostFixture fx(0);
    if (quick) {
      bool loaded = false;
      fx.host->vmm().xexec_load([&] { loaded = true; });
      run_until_flag(fx.sim, loaded);
    }
    bool down = false;
    fx.host->shutdown_dom0([&] { down = true; });
    run_until_flag(fx.sim, down);
    const sim::SimTime t0 = fx.sim.now();
    bool up = false;
    if (quick) {
      fx.host->quick_reload([&] { up = true; });
    } else {
      fx.host->hardware_reboot([&] { up = true; });
    }
    run_until_flag(fx.sim, up);
    return fx.host->vmm_ready_at() - t0;  // "reboot of the VMM completed"
  };
  const double quick_s = sim::to_seconds(reboot_time(true));
  const double reset_s = sim::to_seconds(reboot_time(false));
  EXPECT_NEAR(quick_s, 11.0, 3.0);
  EXPECT_NEAR(reset_s, 59.0, 8.0);
  EXPECT_GT(reset_s - quick_s, 40.0);  // the paper's 48 s saving
}

TEST(QuickReload, HardwareResetDestroysPreservedRegions) {
  HostFixture fx(1);
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  ASSERT_FALSE(fx.host->preserved().empty());
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);
  bool up = false;
  fx.host->hardware_reboot([&] { up = true; });
  run_until_flag(fx.sim, up);
  // RAM was power cycled: nothing survives.
  EXPECT_TRUE(fx.host->preserved().empty());
  EXPECT_EQ(fx.host->machine().memory().populated_frames(), 0);
  EXPECT_GE(fx.host->machine().memory().power_cycles(), std::uint64_t{1});
}

TEST(QuickReload, ConservationCatchesDomainFrameInsideFrozenRun) {
  HostFixture fx(1);
  warm_cycle_to_new_vmm(fx);
  auto& vmm = fx.host->vmm();
  ASSERT_TRUE(vmm.frame_conservation_report().ok());
  // Hand one frame from the middle of a frozen run -- neither end -- to
  // domain 0, as a reload that mis-placed dom0 would.
  const auto* region = fx.host->preserved().find("domain/vm0");
  ASSERT_NE(region, nullptr);
  const hw::FrameRun run = region->frozen_frames.front();
  ASSERT_GE(run.count, 3);
  const hw::FrameNumber mid = run.first + run.count / 2;
  vmm.allocator().release(mid);
  vmm.allocator().claim(kDomain0, std::vector<hw::FrameRun>{{mid, 1}});
  const auto report = vmm.frame_conservation_report();
  EXPECT_FALSE(report.frozen_frames_reserved);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace rh::test
