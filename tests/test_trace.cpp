// The audit trail a host keeps of a run: the Supervisor's step records,
// the host observer's span tree and the VMM state left behind.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.hpp"

namespace rh::test {
namespace {

TEST(Tracer, WarmRebootLeavesAnAuditTrail) {
  HostFixture fx(1);
  fx.host->obs().set_enabled(true);
  const auto report = fx.rejuvenate(rejuv::RebootKind::kWarm);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.completed, rejuv::RebootKind::kWarm);
  EXPECT_EQ(report.resumed_vms, std::size_t{1});
  EXPECT_EQ(report.restored_vms + report.cold_booted_vms, std::size_t{0});
  std::vector<std::string> steps;
  for (const auto& step : report.steps) steps.push_back(step.label);
  EXPECT_EQ(steps, (std::vector<std::string>{
                       "load xexec image", "dom0 shutdown", "on-memory suspend",
                       "quick reload + VMM/dom0 boot", "on-memory resume"}));
  // One new VMM instance; the resume consumed the region the reload
  // re-reserved, and the VM kept its memory and its running services.
  EXPECT_EQ(fx.host->vmm_generation(), 2u);
  EXPECT_EQ(fx.host->preserved().size(), std::size_t{0});
  EXPECT_TRUE(fx.guests[0]->integrity_ok());
  EXPECT_EQ(fx.guests[0]->find_service("sshd")->generation(), 1u);
  // A quick reload, and no hardware reset anywhere in the span tree.
  bool reload = false;
  bool reset = false;
  for (const auto& r : fx.host->obs().spans().records()) {
    reload |= r.phase == obs::Phase::kQuickReload;
    reset |= r.phase == obs::Phase::kHardwareReset;
  }
  EXPECT_TRUE(reload);
  EXPECT_FALSE(reset);
}

TEST(Tracer, ErrorPathLeakIsTraced) {
  Calibration calib;
  calib.heap_leak_per_error_path = 128 * sim::kKiB;
  HostFixture fx(0, calib);
  const auto& heap = fx.host->vmm().heap();
  const sim::Bytes available = heap.available();
  EXPECT_EQ(fx.host->vmm().trigger_error_path(), 128 * sim::kKiB);
  // The leak is on the heap's books: leaked, and no longer available.
  EXPECT_EQ(heap.leaked(), 128 * sim::kKiB);
  EXPECT_EQ(heap.available(), available - 128 * sim::kKiB);
  // Default calibration: error paths are clean.
  HostFixture clean(0);
  EXPECT_EQ(clean.host->vmm().trigger_error_path(), 0);
  EXPECT_EQ(clean.host->vmm().heap().leaked(), 0);
}

}  // namespace
}  // namespace rh::test
