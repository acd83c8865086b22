// Shared test fixtures and helpers.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "guest/jboss.hpp"
#include "guest/sshd.hpp"
#include "rejuv/supervisor.hpp"
#include "simcore/parallel.hpp"
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

/// A booted Cluster on a one-worker engine with 1 + shards + hosts
/// partitions, the layout every Cluster runs on. Balancer dispatches and
/// rolling passes start on the control partition: run_on(0, ...).
class ClusterRig {
 public:
  explicit ClusterRig(const cluster::Cluster::Config& config)
      : engine({.partitions = 1 + config.shards + config.hosts,
                .workers = 1}),
        cl(engine.partition(0), on_engine(config, engine)) {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    run_while([&ready] { return !ready; });
    EXPECT_TRUE(ready);
  }

  [[nodiscard]] cluster::ShardedBalancer& lb() {
    return *cl.sharded_balancer();
  }
  /// The control partition's clock.
  [[nodiscard]] sim::SimTime now() { return engine.partition(0).now(); }
  /// Runs every partition to now() + d.
  void run_for(sim::Duration d) { engine.run_until(now() + d); }
  /// Runs windows while `keep_going()` holds (or until the events drain).
  void run_while(const std::function<bool()>& keep_going) {
    engine.run_while(keep_going);
  }
  /// Seeds `fn` on partition `p`; it runs when the engine next runs.
  void run_on(std::int32_t p, sim::InlineCallback fn) {
    engine.run_on(p, std::move(fn));
  }

  /// Dispatches one request per key from the control partition and runs
  /// 5 s; returns how many were served.
  int serve(const std::vector<std::uint64_t>& keys) {
    int served = 0;
    run_on(0, [this, &keys, &served] {
      for (const auto k : keys) {
        lb().dispatch(k, [&served](bool ok) { served += ok ? 1 : 0; });
      }
    });
    run_for(5 * sim::kSecond);
    return served;
  }

  /// Starts a rolling pass with `config` on the control partition; `done`
  /// flips (and `report`, when given, is filled) when it completes.
  void start_waves(const cluster::Cluster::WaveConfig& config, bool& done,
                   cluster::Cluster::WaveReport* report = nullptr) {
    run_on(0, [this, config, &done, report] {
      cl.rolling_rejuvenation_waves(
          config, [&done, report](const cluster::Cluster::WaveReport& r) {
            if (report != nullptr) *report = r;
            done = true;
          });
    });
  }

  /// Runs one rolling pass with `config` to completion; returns its
  /// report.
  cluster::Cluster::WaveReport run_waves(
      const cluster::Cluster::WaveConfig& config = {}) {
    bool done = false;
    cluster::Cluster::WaveReport report;
    start_waves(config, done, &report);
    run_while([&done] { return !done; });
    return report;
  }

  /// Requests host `h`'s web servers have served so far.
  [[nodiscard]] std::uint64_t served_by(int h) {
    std::uint64_t n = 0;
    for (auto* g : cl.guests_of(h)) {
      n += static_cast<guest::ApacheService*>(g->find_service("httpd"))
               ->requests_served();
    }
    return n;
  }

  /// VMs whose web server answers right now, on any host.
  [[nodiscard]] std::size_t reachable_vms() {
    std::size_t n = 0;
    for (int h = 0; h < cl.host_count(); ++h) {
      for (auto* g : cl.guests_of(h)) {
        n += g->service_reachable(*g->find_service("httpd")) ? 1 : 0;
      }
    }
    return n;
  }

  sim::ParallelSimulation engine;
  cluster::Cluster cl;

 private:
  static cluster::Cluster::Config on_engine(cluster::Cluster::Config config,
                                            sim::ParallelSimulation& engine) {
    config.engine = &engine;
    return config;
  }
};

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
