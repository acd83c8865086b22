// Related-work comparison (Section 7): the warm-VM reboot against the
// speed-up-the-disk alternatives -- compressed save images (Windows XP
// hibernation style) and a battery-backed RAM disk (GIGABYTE i-RAM) -- and
// against the dom0-only restart extension for privileged-VM aging.
//
// The paper's argument: every one of these still copies the whole memory
// image twice and still pays the hardware reset; only the warm-VM reboot
// does neither.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"

namespace {

using namespace rh;
using bench::Testbed;

double downtime_for(rejuv::RebootKind kind, Calibration calib, int n) {
  Testbed tb(calib);
  tb.add_vms(n, sim::kGiB, Testbed::ServiceMix::kSsh);
  auto& g = *tb.guests[0];
  auto* ssh = g.find_service("sshd");
  workload::Prober prober(tb.sim, {}, [&] { return g.service_reachable(*ssh); });
  prober.start();
  tb.sim.run_for(sim::kSecond);
  const sim::SimTime start = tb.sim.now();
  tb.rejuvenate(kind);
  tb.sim.run_for(5 * sim::kSecond);
  return sim::to_seconds(prober.outage_after(start).value_or(0));
}

}  // namespace

int main() {
  rh::bench::print_header(
      "Related work (Sec. 7): downtime of alternatives, 4 x 1 GiB VMs");
  const int n = 4;

  const double warm = downtime_for(rejuv::RebootKind::kWarm, {}, n);
  const double cold = downtime_for(rejuv::RebootKind::kCold, {}, n);
  const double saved = downtime_for(rejuv::RebootKind::kSaved, {}, n);

  Calibration compressed;
  compressed.xen_save_compression_ratio = 0.45;
  const double saved_comp =
      downtime_for(rejuv::RebootKind::kSaved, compressed, n);

  Calibration ramdisk;
  ramdisk.save_to_ram_disk = true;
  const double saved_ram = downtime_for(rejuv::RebootKind::kSaved, ramdisk, n);

  std::printf("  %-44s %8.1f s\n", "warm-VM reboot (RootHammer)", warm);
  std::printf("  %-44s %8.1f s\n", "saved-VM reboot (plain Xen save/restore)",
              saved);
  std::printf("  %-44s %8.1f s\n",
              "saved-VM + compressed images (XP hibernation)", saved_comp);
  std::printf("  %-44s %8.1f s\n", "saved-VM + i-RAM (battery-backed RAM disk)",
              saved_ram);
  std::printf("  %-44s %8.1f s\n", "cold-VM reboot", cold);
  std::printf("\n  faster media and compression shave the copy cost but keep "
              "both the\n  copy and the hardware reset; the warm-VM reboot "
              "eliminates both.\n");

  // Privileged-VM aging: dom0-only restart (the paper's future work).
  rh::bench::print_header("Extension: dom0-only restart vs full warm reboot");
  Testbed tb;
  tb.add_vms(n, sim::kGiB, Testbed::ServiceMix::kSsh);
  auto& g = *tb.guests[0];
  auto* ssh = g.find_service("sshd");
  workload::Prober prober(tb.sim, {}, [&] { return g.service_reachable(*ssh); });
  prober.start();
  tb.sim.run_for(sim::kSecond);
  const sim::SimTime start = tb.sim.now();
  bool up = false;
  tb.host->restart_dom0([&up] { up = true; });
  while (!up) tb.sim.step();
  tb.sim.run_for(5 * sim::kSecond);
  const double dom0_only =
      sim::to_seconds(prober.outage_after(start).value_or(0));
  std::printf("  %-44s %8.1f s\n", "dom0-only restart (VMs keep running)",
              dom0_only);
  std::printf("  %-44s %8.1f s\n", "full warm-VM reboot", warm);
  std::printf("\n  when only the privileged VM has aged, restarting dom0 alone"
              " avoids\n  suspending the domains at all.\n");
  return 0;
}
