// Guest OS lifecycle: boot, shutdown, suspend/resume handlers, integrity.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(GuestOs, BootSequenceStartsServices) {
  HostFixture fx(0);
  auto& g = fx.add_vm("web", sim::kGiB);
  EXPECT_EQ(g.state(), guest::OsState::kRunning);
  ASSERT_NE(g.find_service("sshd"), nullptr);
  EXPECT_TRUE(g.find_service("sshd")->running());
  EXPECT_TRUE(g.service_reachable(*g.find_service("sshd")));
  EXPECT_NE(g.domain_id(), kNoDomain);
}

TEST(GuestOs, SingleBootTakesAFewSeconds) {
  HostFixture fx(0);
  auto g = std::make_unique<guest::GuestOs>(*fx.host, "solo", sim::kGiB);
  g->add_service(std::make_unique<guest::SshService>());
  const sim::SimTime t0 = fx.sim.now();
  bool up = false;
  g->create_and_boot([&] { up = true; });
  run_until_flag(fx.sim, up);
  // boot(1) ~ 6-8 s in the paper's terms (incl. sshd).
  EXPECT_NEAR(sim::to_seconds(fx.sim.now() - t0), 7.0, 1.5);
}

TEST(GuestOs, ShutdownHaltsAndDestroysDomain) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  const DomainId id = g.domain_id();
  bool halted = false;
  g.shutdown([&] { halted = true; });
  run_until_flag(fx.sim, halted);
  EXPECT_EQ(g.state(), guest::OsState::kHalted);
  EXPECT_EQ(g.domain_id(), kNoDomain);
  EXPECT_EQ(fx.host->vmm().find_domain(id), nullptr);
}

TEST(GuestOs, ServicesAnswerDuringShutdownGraceOnly) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  auto* ssh = g.find_service("sshd");
  bool halted = false;
  g.shutdown([&] { halted = true; });
  // During the 3 s grace phase the service still answers.
  fx.sim.run_for(sim::kSecond);
  EXPECT_TRUE(g.service_reachable(*ssh));
  fx.sim.run_for(3 * sim::kSecond);
  EXPECT_FALSE(g.service_reachable(*ssh));
  run_until_flag(fx.sim, halted);
}

TEST(GuestOs, RebootResetsCacheButKeepsFiles) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  const auto file = g.vfs().create_file("data", 10 * sim::kMiB);
  bool read_done = false;
  g.vfs().read(file, [&](const guest::Vfs::ReadResult&) { read_done = true; });
  run_until_flag(fx.sim, read_done);
  EXPECT_GT(g.cache().cached_blocks(), 0);

  bool halted = false;
  g.shutdown([&] { halted = true; });
  run_until_flag(fx.sim, halted);
  bool up = false;
  g.create_and_boot([&] { up = true; });
  run_until_flag(fx.sim, up);

  EXPECT_EQ(g.cache().cached_blocks(), 0);   // cache is volatile
  EXPECT_EQ(g.vfs().file_count(), std::size_t{1});  // files are on disk
  // Services restarted: generation bumped.
  EXPECT_EQ(g.find_service("sshd")->generation(), std::uint64_t{2});
}

TEST(GuestOs, SuspendHandlerMovesThroughStates) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  bool suspended = false;
  fx.host->vmm().suspend_domain_on_memory(g.domain_id(), [&] { suspended = true; });
  fx.sim.run_for(5 * sim::kMillisecond);
  EXPECT_EQ(g.state(), guest::OsState::kSuspending);
  run_until_flag(fx.sim, suspended);
  EXPECT_EQ(g.state(), guest::OsState::kSuspended);
  // Not reachable while suspended.
  EXPECT_FALSE(g.service_reachable(*g.find_service("sshd")));
}

TEST(GuestOs, MemoryAccessIsSafeWhileSuspended) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  bool suspended = false;
  fx.host->vmm().suspend_all_on_memory([&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  // Late I/O completions write through GuestOs::mem_write: dropped, no throw.
  g.mem_write(guest::GuestOs::kCacheRegionStart, 0x1);
  EXPECT_EQ(g.mem_read(guest::GuestOs::kCacheRegionStart), hw::kScrubbed);
}

TEST(GuestOs, CorruptedSignatureCrashesOnResume) {
  HostFixture fx(1);
  auto& g = *fx.guests[0];
  auto& vmm = fx.host->vmm();
  bool suspended = false;
  vmm.suspend_domain_on_memory(g.domain_id(), [&] { suspended = true; });
  run_until_flag(fx.sim, suspended);
  // Corrupt the frozen image behind the guest's back (what a buggy reload
  // would do).
  const auto* region = fx.host->preserved().find("domain/vm0");
  ASSERT_NE(region, nullptr);
  fx.host->machine().memory().scrub(region->frozen_frames.front().first);

  bool resumed = false;
  vmm.resume_domain_on_memory("vm0", &g, [&](DomainId) { resumed = true; });
  run_until_flag(fx.sim, resumed);
  EXPECT_FALSE(g.integrity_ok());
  EXPECT_EQ(g.state(), guest::OsState::kCrashed);
  EXPECT_FALSE(g.service_reachable(*g.find_service("sshd")));
}

TEST(GuestOs, CannotBootWhileHostDown) {
  HostFixture fx(0);
  auto g = std::make_unique<guest::GuestOs>(*fx.host, "late", sim::kGiB);
  bool down = false;
  fx.host->shutdown_dom0([&] { down = true; });
  run_until_flag(fx.sim, down);
  EXPECT_THROW(g->create_and_boot([] {}), InvariantViolation);
}

TEST(GuestOs, StateStringsAreStable) {
  EXPECT_STREQ(guest::to_string(guest::OsState::kRunning), "running");
  EXPECT_STREQ(guest::to_string(guest::OsState::kCrashed), "crashed");
}

}  // namespace
}  // namespace rh::test
