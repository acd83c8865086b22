// On-memory suspend/resume: state preservation and timing behaviour.
#include <gtest/gtest.h>

#include "mm/balloon.hpp"
#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(SuspendResume, SuspendFreezesDomainAndRecordsRegion) {
  HostFixture fx(1);
  auto& vmm = fx.host->vmm();
  const DomainId id = fx.guests[0]->domain_id();
  ASSERT_NE(id, kNoDomain);

  bool suspended = false;
  vmm.suspend_domain_on_memory(id, [&] { suspended = true; });
  run_until_flag(fx.sim, suspended);

  EXPECT_EQ(vmm.domain(id).state(), vmm::DomainState::kSuspendedInMemory);
  EXPECT_EQ(fx.guests[0]->state(), guest::OsState::kSuspended);
  const auto* region = fx.host->preserved().find("domain/vm0");
  ASSERT_NE(region, nullptr);
  // All of the domain's 1 GiB (262144 frames) is frozen in place.
  EXPECT_EQ(region->frozen_frame_count(), 262144);
  // The record is charged for the P2M table (8 B/page = 2 MiB/GiB) plus
  // the small execution state ...
  EXPECT_GT(region->charged_size(), 2 * sim::kMiB);
  EXPECT_LT(region->charged_size(), 3 * sim::kMiB);
  // ... while the P2M it stores is a handful of runs.
  EXPECT_LT(region->payload.size(), std::size_t{1024});
}

TEST(SuspendResume, RunEncodedRecordChecksumSeesEveryByte) {
  // intact() is payload_checksum(payload) == checksum: flipping any one
  // byte of a real, run-encoded domain record must break it.
  HostFixture fx(1);
  bool suspended = false;
  fx.host->vmm().suspend_domain_on_memory(fx.guests[0]->domain_id(),
                                          [&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  auto& registry = fx.host->preserved();
  const auto* region = registry.find("domain/vm0");
  ASSERT_NE(region, nullptr);
  ASSERT_TRUE(registry.intact("domain/vm0"));
  // The record ends in a partial 8-byte word, so the tail bytes are hashed
  // on their own path.
  ASSERT_NE(region->payload.size() % 8, std::size_t{0});
  for (std::size_t i = 0; i < region->payload.size(); ++i) {
    auto flipped = region->payload;
    flipped[i] ^= std::byte{0x01};
    EXPECT_NE(mm::payload_checksum(flipped), region->checksum) << "byte " << i;
  }
  registry.corrupt_payload("domain/vm0");
  EXPECT_FALSE(registry.intact("domain/vm0"));
}

TEST(SuspendResume, SuspendTouchesNoGuestMemory) {
  HostFixture fx(1);
  auto& vmm = fx.host->vmm();
  const DomainId id = fx.guests[0]->domain_id();
  // Write recognisable tokens into a few guest pages.
  for (mm::Pfn pfn = 100; pfn < 110; ++pfn) {
    vmm.guest_write(id, pfn, 0xabc000 + static_cast<hw::ContentToken>(pfn));
  }
  bool suspended = false;
  vmm.suspend_domain_on_memory(id, [&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  // The tokens are still exactly where they were: no copy, no scrub.
  const auto& p2m = vmm.domain(id).p2m();
  for (mm::Pfn pfn = 100; pfn < 110; ++pfn) {
    EXPECT_EQ(fx.host->machine().memory().read(p2m.mfn_of(pfn)),
              0xabc000 + static_cast<hw::ContentToken>(pfn));
  }
}

TEST(SuspendResume, ResumeRestoresExecStateExactly) {
  HostFixture fx(1);
  auto& vmm = fx.host->vmm();
  const DomainId id = fx.guests[0]->domain_id();
  const vmm::ExecState before = vmm.domain(id).exec();
  const auto evch_before = vmm.domain(id).event_channels().state_token();

  bool suspended = false;
  vmm.suspend_domain_on_memory(id, [&] { suspended = true; });
  run_until_flag(fx.sim, suspended);

  bool resumed = false;
  DomainId new_id = kNoDomain;
  vmm.resume_domain_on_memory("vm0", fx.guests[0].get(), [&](DomainId nid) {
    new_id = nid;
    resumed = true;
  });
  run_until_flag(fx.sim, resumed);

  ASSERT_NE(new_id, kNoDomain);
  EXPECT_NE(new_id, id);  // domain ids change across resume, as in Xen
  EXPECT_EQ(vmm.domain(new_id).exec().cpu_context, before.cpu_context);
  EXPECT_EQ(vmm.domain(new_id).exec().shared_info, before.shared_info);
  EXPECT_EQ(vmm.domain(new_id).exec().device_config, before.device_config);
  EXPECT_EQ(vmm.domain(new_id).exec().event_channels, evch_before);
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  EXPECT_EQ(fx.guests[0]->state(), guest::OsState::kRunning);
  // The preserved region is consumed by the resume.
  EXPECT_EQ(fx.host->preserved().find("domain/vm0"), nullptr);
}

TEST(SuspendResume, SuspendTimeBarelyDependsOnMemorySize) {
  // Fig. 4's key property: on-memory suspend is (nearly) memory-size
  // independent, because no image is copied.
  auto suspend_time = [](sim::Bytes memory) {
    HostFixture fx(0);
    auto& g = fx.add_vm("big", memory);
    const sim::SimTime t0 = fx.sim.now();
    bool done = false;
    fx.host->vmm().suspend_domain_on_memory(g.domain_id(), [&] { done = true; });
    run_until_flag(fx.sim, done);
    return fx.sim.now() - t0;
  };
  const auto t1 = suspend_time(1 * sim::kGiB);
  const auto t11 = suspend_time(11 * sim::kGiB);
  // ~40 ms vs ~80 ms: both well under a second, ratio far below the 11x
  // of a copy-based approach.
  EXPECT_LT(t11, sim::kSecond / 4);
  EXPECT_LT(static_cast<double>(t11) / static_cast<double>(t1), 4.0);
}

TEST(SuspendResume, SuspendAllRunsInParallel) {
  HostFixture fx(4);
  const sim::SimTime t0 = fx.sim.now();
  bool done = false;
  fx.host->vmm().suspend_all_on_memory([&] { done = true; });
  run_until_flag(fx.sim, done);
  // Four parallel suspends cost barely more than one (~40 ms each).
  EXPECT_LT(fx.sim.now() - t0, sim::kSecond / 2);
  for (auto& g : fx.guests) {
    EXPECT_EQ(g->state(), guest::OsState::kSuspended);
  }
}

TEST(SuspendResume, ResumeIsSerialisedThroughXend) {
  HostFixture fx(4);
  auto& vmm = fx.host->vmm();
  bool suspended = false;
  vmm.suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);

  const sim::SimTime t0 = fx.sim.now();
  int resumed = 0;
  for (auto& g : fx.guests) {
    vmm.resume_domain_on_memory(g->name(), g.get(), [&](DomainId) { ++resumed; });
  }
  while (resumed < 4 && fx.sim.pending_events() > 0) fx.sim.step();
  ASSERT_EQ(resumed, 4);
  const auto total = fx.sim.now() - t0;
  // Four resumes serialised at ~0.37 s each, plus the parallel tail.
  EXPECT_GT(total, sim::from_seconds(1.0));
  EXPECT_LT(total, sim::from_seconds(3.0));
}

TEST(SuspendResume, BalloonedDomainSurvivesWarmRebootWithHolesIntact) {
  // Section 4.1: the P2M table "can maintain the mapping properly" under
  // ballooning -- including across a full warm-VM reboot.
  HostFixture fx(1);
  auto& vmm = fx.host->vmm();
  const DomainId id = fx.guests[0]->domain_id();
  mm::BalloonDriver balloon(id, vmm.allocator(), vmm.domain(id).p2m());
  ASSERT_EQ(balloon.inflate(5000), 5000);
  const auto populated_before = vmm.domain(id).p2m().populated();
  vmm.guest_write(id, 42, 0xcafe);

  fx.rejuvenate(rejuv::RebootKind::kWarm);

  const DomainId nid = fx.guests[0]->domain_id();
  EXPECT_EQ(fx.host->vmm().domain(nid).p2m().populated(), populated_before);
  EXPECT_EQ(fx.host->vmm().domain(nid).p2m().pfn_count(), 262144);
  EXPECT_EQ(fx.host->vmm().guest_read(nid, 42), 0xcafeu);
  EXPECT_EQ(fx.host->vmm().allocator().owned_frames(nid), populated_before);
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  // The balloon can deflate again under the new VMM instance.
  mm::BalloonDriver balloon2(nid, fx.host->vmm().allocator(),
                             fx.host->vmm().domain(nid).p2m());
  EXPECT_EQ(balloon2.deflate(5000), 5000);
}

TEST(SuspendResume, CannotSuspendDomainZero) {
  HostFixture fx(0);
  EXPECT_THROW(fx.host->vmm().suspend_domain_on_memory(kDomain0, [] {}),
               InvariantViolation);
}

TEST(SuspendResume, ResumeWithoutPreservedImageThrows) {
  HostFixture fx(1);
  EXPECT_THROW(fx.host->vmm().resume_domain_on_memory(
                   "no-such-vm", fx.guests[0].get(), [](DomainId) {}),
               InvariantViolation);
}

}  // namespace
}  // namespace rh::test
