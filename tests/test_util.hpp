// Shared test fixtures and helpers.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "guest/jboss.hpp"
#include "guest/sshd.hpp"
#include "rejuv/supervisor.hpp"
#include "vmm/host.hpp"

namespace rh::test {

/// A started host plus `n` booted 1-GiB VMs, each running sshd.
class HostFixture {
 public:
  explicit HostFixture(int vms = 0, Calibration calib = {},
                       sim::Bytes vm_memory = sim::kGiB) {
    host = std::make_unique<vmm::Host>(sim, calib, /*seed=*/42);
    host->instant_start();
    for (int i = 0; i < vms; ++i) add_vm("vm" + std::to_string(i), vm_memory);
  }

  /// Adds a VM with sshd and boots it to completion (advances sim time).
  guest::GuestOs& add_vm(const std::string& name, sim::Bytes memory) {
    auto g = std::make_unique<guest::GuestOs>(*host, name, memory);
    g->add_service(std::make_unique<guest::SshService>());
    guest::GuestOs& ref = *g;
    guests.push_back(std::move(g));
    bool up = false;
    ref.create_and_boot([&up] { up = true; });
    sim.run_until(sim.now() + 30 * sim::kMinute);
    EXPECT_TRUE(up) << "VM '" << name << "' failed to boot";
    return ref;
  }

  [[nodiscard]] std::vector<guest::GuestOs*> guest_ptrs() {
    std::vector<guest::GuestOs*> out;
    for (auto& g : guests) out.push_back(g.get());
    return out;
  }

  /// Runs a fault-free rejuvenation of the given kind, then simulates a
  /// fixed 2 hours; returns the pass's report.
  rejuv::SupervisorReport rejuvenate(rejuv::RebootKind kind) {
    rejuv::SupervisorConfig config;
    config.preferred = kind;
    rejuv::Supervisor pass(*host, guest_ptrs(), config);
    bool done = false;
    pass.run([&done](const rejuv::SupervisorReport&) { done = true; });
    sim.run_until(sim.now() + 2 * sim::kHour);
    EXPECT_TRUE(done) << "rejuvenation did not complete";
    return pass.report();
  }

  /// Runs one supervised pass step by step until it completes (at most 12
  /// simulated hours); returns its report.
  rejuv::SupervisorReport supervise(rejuv::SupervisorConfig config = {}) {
    rejuv::Supervisor pass(*host, guest_ptrs(), config);
    bool done = false;
    pass.run([&done](const rejuv::SupervisorReport&) { done = true; });
    const sim::SimTime deadline = sim.now() + 12 * sim::kHour;
    while (!done && sim.pending_events() > 0 && sim.now() < deadline) {
      sim.step();
    }
    EXPECT_TRUE(done) << "supervised pass did not complete";
    return pass.report();
  }

  sim::Simulation sim;
  std::unique_ptr<vmm::Host> host;
  std::vector<std::unique_ptr<guest::GuestOs>> guests;
};

/// The frames `runs` hold, run by run: where the memory layer returns
/// frame runs, tests compare the frames one by one.
inline std::vector<hw::FrameNumber> expand_runs(
    std::span<const hw::FrameRun> runs) {
  std::vector<hw::FrameNumber> out;
  for (const auto& run : runs) {
    for (hw::FrameNumber mfn = run.first; mfn < run.end(); ++mfn) {
      out.push_back(mfn);
    }
  }
  return out;
}

/// Runs `sim` until `flag` is true or `budget` elapses; asserts the flag.
inline void run_until_flag(sim::Simulation& sim, const bool& flag,
                           sim::Duration budget = sim::kHour) {
  const sim::SimTime deadline = sim.now() + budget;
  while (!flag && sim.pending_events() > 0 && sim.now() < deadline) {
    sim.step();
  }
  ASSERT_TRUE(flag) << "condition not reached within budget";
}

}  // namespace rh::test
