// The paper's motivating scenario: one machine consolidating many servers.
//
// Eleven 1-GiB VMs run a mix of services (ssh everywhere, JBoss on some,
// Apache on one). The example rejuvenates the VMM three times -- once per
// strategy -- and reports, for each: per-VM downtime, whether live ssh
// sessions survived, and whether the web server's cache was preserved.
#include <cstdio>
#include <memory>
#include <vector>

#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "guest/jboss.hpp"
#include "guest/sshd.hpp"
#include "net/tcp.hpp"
#include "rejuv/supervisor.hpp"
#include "vmm/host.hpp"
#include "workload/prober.hpp"

namespace {

using namespace rh;

struct Consolidated {
  sim::Simulation sim;
  std::unique_ptr<vmm::Host> host;
  std::vector<std::unique_ptr<guest::GuestOs>> vms;

  Consolidated() {
    host = std::make_unique<vmm::Host>(sim, Calibration::paper_testbed());
    host->instant_start();
    int booted = 0;
    for (int i = 0; i < 11; ++i) {
      auto vm = std::make_unique<guest::GuestOs>(*host, "srv" + std::to_string(i),
                                                 sim::kGiB);
      vm->add_service(std::make_unique<guest::SshService>());
      if (i < 4) vm->add_service(std::make_unique<guest::JbossService>());
      if (i == 10) vm->add_service(std::make_unique<guest::ApacheService>());
      vm->create_and_boot([&booted] { ++booted; });
      vms.push_back(std::move(vm));
    }
    while (booted < 11) sim.step();
  }

  std::vector<guest::GuestOs*> vm_ptrs() {
    std::vector<guest::GuestOs*> out;
    for (auto& v : vms) out.push_back(v.get());
    return out;
  }
};

void run_strategy(rejuv::RebootKind kind) {
  Consolidated box;
  auto& web = *box.vms[10];
  // Warm the web server's cache.
  const auto file = web.vfs().create_file("catalog", 64 * sim::kMiB);
  bool warmed = false;
  web.vfs().read(file, [&](const guest::Vfs::ReadResult&) { warmed = true; });
  while (!warmed) box.sim.step();

  // A live ssh session into srv0, and probers on every VM.
  auto* ssh0 = static_cast<guest::SshService*>(box.vms[0]->find_service("sshd"));
  const auto session_gen = ssh0->generation();
  net::TcpConnection session(box.sim, {}, [&] {
    return ssh0->segment_outcome(*box.vms[0], session_gen);
  });
  session.open();

  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& vm : box.vms) {
    auto* svc = vm->find_service("sshd");
    probers.push_back(std::make_unique<workload::Prober>(
        box.sim, workload::Prober::Config{},
        [vm = vm.get(), svc] { return vm->service_reachable(*svc); }));
    probers.back()->start();
  }
  box.sim.run_for(2 * sim::kSecond);
  const sim::SimTime start = box.sim.now();

  rejuv::SupervisorConfig config;
  config.preferred = kind;
  rejuv::Supervisor pass(*box.host, box.vm_ptrs(), config);
  bool done = false;
  pass.run([&done](const rejuv::SupervisorReport&) { done = true; });
  while (!done) box.sim.step();
  box.sim.run_for(10 * sim::kSecond);

  double worst = 0, total = 0;
  for (auto& p : probers) {
    p->stop();
    const double d = sim::to_seconds(p->outage_after(start).value_or(0));
    worst = std::max(worst, d);
    total += d;
  }
  bool read_ok = false;
  guest::Vfs::ReadResult reread;
  web.vfs().read(file, [&](const guest::Vfs::ReadResult& r) {
    reread = r;
    read_ok = true;
  });
  while (!read_ok) box.sim.step();

  std::printf("\n=== %s ===\n", rejuv::to_string(kind));
  std::printf("  total procedure: %.1f s\n",
              sim::to_seconds(pass.report().total_duration()));
  std::printf("  ssh downtime: mean %.1f s, worst %.1f s\n", total / 11.0, worst);
  std::printf("  live ssh session: %s\n",
              session.alive() ? "SURVIVED (TCP retransmission)" : "lost");
  std::printf("  web cache after reboot: %lld hits / %lld misses (%s)\n",
              static_cast<long long>(reread.hit_blocks),
              static_cast<long long>(reread.miss_blocks),
              reread.fully_cached() ? "fully preserved" : "cold");
  std::printf("  JBoss restarted: %s\n",
              box.vms[0]->find_service("jboss") != nullptr &&
                      box.vms[0]->find_service("jboss")->generation() > 1
                  ? "yes (service state lost)"
                  : "no (kept running through the reboot)");
}

}  // namespace

int main() {
  std::printf("Consolidated server: 11 VMs (ssh everywhere, JBoss on 4, "
              "Apache on 1), one VMM rejuvenation per strategy.\n");
  run_strategy(rejuv::RebootKind::kWarm);
  run_strategy(rejuv::RebootKind::kSaved);
  run_strategy(rejuv::RebootKind::kCold);
  return 0;
}
