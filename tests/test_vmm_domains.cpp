// VMM domain lifecycle, memory accounting and guest memory access.
#include <gtest/gtest.h>

#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(VmmDomains, BootBuildsDom0) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  EXPECT_TRUE(vmm.ready());
  auto& dom0 = vmm.domain(kDomain0);
  EXPECT_TRUE(dom0.privileged());
  EXPECT_EQ(dom0.name(), "Domain-0");
  EXPECT_EQ(dom0.memory_size(), 512 * sim::kMiB);
  EXPECT_TRUE(dom0.running());
  EXPECT_TRUE(vmm.unprivileged_domain_ids().empty());
}

TEST(VmmDomains, CreateAllocatesFramesAndHeap) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  const auto free_before = vmm.allocator().free_frames();
  const auto heap_before = vmm.heap().used();
  const DomainId id = vmm.create_domain_now("d", sim::kGiB, nullptr);
  EXPECT_EQ(vmm.allocator().free_frames(), free_before - 262144);
  EXPECT_EQ(vmm.allocator().owned_frames(id), 262144);
  EXPECT_EQ(vmm.heap().used() - heap_before, vmm::Vmm::kDomainHeapCost);
  EXPECT_EQ(vmm.domain(id).p2m().populated(), 262144);
}

TEST(VmmDomains, CreateThroughXendTakesTime) {
  HostFixture fx(0);
  const sim::SimTime t0 = fx.sim.now();
  DomainId id = kNoDomain;
  fx.host->vmm().create_domain("d", sim::kGiB, nullptr,
                               [&](DomainId got) { id = got; });
  fx.sim.run_for(sim::kSecond);
  EXPECT_NE(id, kNoDomain);
  // domain_create_base (310 ms) + 1 GiB * 30 ms.
  EXPECT_NEAR(sim::to_seconds(fx.host->vmm().xend().busy_until() - t0), 0.34, 0.01);
}

TEST(VmmDomains, DuplicateNameRejected) {
  HostFixture fx(0);
  fx.host->vmm().create_domain_now("dup", sim::kGiB, nullptr);
  EXPECT_THROW(fx.host->vmm().create_domain_now("dup", sim::kGiB, nullptr),
               InvariantViolation);
}

TEST(VmmDomains, DestroyReleasesEverything) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  const auto free_before = vmm.allocator().free_frames();
  const auto heap_before = vmm.heap().used();
  const DomainId id = vmm.create_domain_now("d", sim::kGiB, nullptr);
  vmm.destroy_domain(id);
  EXPECT_EQ(vmm.allocator().free_frames(), free_before);
  EXPECT_EQ(vmm.heap().used(), heap_before);
  EXPECT_EQ(vmm.find_domain(id), nullptr);
  EXPECT_THROW((void)vmm.domain(id), InvariantViolation);
}

TEST(VmmDomains, UnknownDomainErrorNamesTheId) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  const auto& const_vmm = vmm;
  for (const bool use_const : {false, true}) {
    try {
      if (use_const) {
        (void)const_vmm.domain(4242);
      } else {
        (void)vmm.domain(4242);
      }
      FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find("no such domain 4242"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(VmmDomains, CannotDestroyDom0) {
  HostFixture fx(0);
  EXPECT_THROW(fx.host->vmm().destroy_domain(kDomain0), InvariantViolation);
}

TEST(VmmDomains, GuestMemoryGoesThroughP2m) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  const DomainId id = vmm.create_domain_now("d", 4 * sim::kMiB, nullptr);
  vmm.guest_write(id, 5, 0x1234);
  EXPECT_EQ(vmm.guest_read(id, 5), 0x1234u);
  // The write landed at the machine frame the P2M table maps.
  const auto mfn = vmm.domain(id).p2m().mfn_of(5);
  EXPECT_EQ(fx.host->machine().memory().read(mfn), 0x1234u);
  EXPECT_THROW((void)vmm.guest_read(id, 99999), InvariantViolation);
}

TEST(VmmDomains, FreshDomainMemoryIsScrubbed) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  // Pollute free memory.
  const DomainId a = vmm.create_domain_now("a", 4 * sim::kMiB, nullptr);
  for (mm::Pfn p = 0; p < 1024; ++p) vmm.guest_write(a, p, 0x77);
  vmm.destroy_domain(a);
  // The successor sees zeroed pages regardless of what 'a' wrote.
  const DomainId b = vmm.create_domain_now("b", 4 * sim::kMiB, nullptr);
  for (mm::Pfn p = 0; p < 1024; ++p) {
    ASSERT_EQ(vmm.guest_read(b, p), hw::kScrubbed);
  }
}

TEST(VmmDomains, ExecStateTokensAreUniquePerDomain) {
  HostFixture fx(0);
  auto& vmm = fx.host->vmm();
  const DomainId a = vmm.create_domain_now("a", 4 * sim::kMiB, nullptr);
  const DomainId b = vmm.create_domain_now("b", 4 * sim::kMiB, nullptr);
  EXPECT_NE(vmm.domain(a).exec().cpu_context, vmm.domain(b).exec().cpu_context);
  EXPECT_NE(vmm.domain(a).exec().shared_info, vmm.domain(b).exec().shared_info);
}

TEST(VmmDomains, UnprivilegedIdsSortedAndExcludeDom0) {
  HostFixture fx(3);
  const auto ids = fx.host->vmm().unprivileged_domain_ids();
  ASSERT_EQ(ids.size(), std::size_t{3});
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
  for (const auto id : ids) EXPECT_NE(id, kDomain0);
}

TEST(VmmDomains, DomainMemoryMustBePageMultiple) {
  HostFixture fx(0);
  EXPECT_THROW(fx.host->vmm().create_domain_now("odd", 4097, nullptr),
               InvariantViolation);
}

}  // namespace
}  // namespace rh::test
