// Section 5.6: regress the simulator's measurements into the paper's
// linear model functions and derive r(n), the downtime reduced by the
// warm-VM reboot.
//
// Paper fits: reboot_vmm(n) = -0.55 n + 43,  resume(n) = 0.43 n - 0.07,
//             reboot_os(n) = 3.8 n + 13,     boot(n) = 3.4 n + 2.8,
//             reset_hw = 47   =>   r(n) = 3.9 n + 60 - 17 alpha  (> 0).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "rejuv/downtime_model.hpp"
#include "simcore/stats.hpp"

namespace {

using namespace rh;
using bench::Testbed;

struct Measurements {
  std::vector<double> n, reboot_vmm, resume, shutdown, boot, reboot_os, d_warm;
};

void measure_at(int n, Measurements& out) {
  // Warm path: drive a warm reboot and dissect its breakdown.
  {
    Testbed tb;
    tb.add_vms(n, sim::kGiB, Testbed::ServiceMix::kSsh);
    const auto report = tb.rejuvenate(rejuv::RebootKind::kWarm);
    double suspend_s = 0, reload_s = 0, resume_s = 0;
    for (const auto& s : report.steps) {
      if (s.label == "on-memory suspend") suspend_s = sim::to_seconds(s.duration());
      if (s.label == "quick reload + VMM/dom0 boot")
        reload_s = sim::to_seconds(s.duration());
      if (s.label == "on-memory resume") resume_s = sim::to_seconds(s.duration());
    }
    out.reboot_vmm.push_back(reload_s);
    out.resume.push_back(suspend_s + resume_s);
    out.d_warm.push_back(suspend_s + reload_s + resume_s);
  }
  // OS shutdown/boot path.
  {
    Testbed tb;
    tb.add_vms(n, sim::kGiB, Testbed::ServiceMix::kSsh);
    sim::SimTime t0 = tb.sim.now();
    int done = 0;
    for (auto& g : tb.guests) g->shutdown([&] { ++done; });
    while (done < n) tb.sim.step();
    const double shutdown_s = sim::to_seconds(tb.sim.now() - t0);
    t0 = tb.sim.now();
    done = 0;
    for (auto& g : tb.guests) g->create_and_boot([&] { ++done; });
    while (done < n) tb.sim.step();
    const double boot_s = sim::to_seconds(tb.sim.now() - t0);
    out.shutdown.push_back(shutdown_s);
    out.boot.push_back(boot_s);
    out.reboot_os.push_back(shutdown_s + boot_s);
  }
  out.n.push_back(n);
}

void print_fit(const char* name, const sim::LinearFit& fit,
               const rejuv::LinearFn& paper) {
  std::printf("  %-14s measured: %-18s paper: %-18s (R^2 %.3f)\n", name,
              fit.to_string().c_str(), paper.to_string().c_str(),
              fit.r_squared);
}

}  // namespace

int main() {
  rh::bench::print_header("Section 5.6: fitted model functions and r(n)");

  Measurements m;
  for (int n = 1; n <= 11; n += 2) measure_at(n, m);

  const auto paper = rejuv::DowntimeModel::paper();
  const auto fit_vmm = sim::fit_linear(m.n, m.reboot_vmm);
  const auto fit_resume = sim::fit_linear(m.n, m.resume);
  const auto fit_ros = sim::fit_linear(m.n, m.reboot_os);
  const auto fit_boot = sim::fit_linear(m.n, m.boot);

  print_fit("reboot_vmm(n)", fit_vmm, paper.reboot_vmm);
  print_fit("resume(n)", fit_resume, paper.resume);
  print_fit("reboot_os(n)", fit_ros, paper.reboot_os);
  print_fit("boot(n)", fit_boot, paper.boot);

  Testbed tb;
  const double reset_hw =
      sim::to_seconds(tb.host->machine().bios().post_duration(
          tb.host->calib().machine.ram)) +
      sim::to_seconds(tb.host->calib().bootloader);
  std::printf("  %-14s measured: %-18.1f paper: %.1f\n", "reset_hw", reset_hw,
              paper.reset_hw);

  rejuv::DowntimeModel ours;
  ours.reboot_vmm = rejuv::LinearFn::from_fit(fit_vmm);
  ours.resume = rejuv::LinearFn::from_fit(fit_resume);
  ours.reboot_os = rejuv::LinearFn::from_fit(fit_ros);
  ours.boot = rejuv::LinearFn::from_fit(fit_boot);
  ours.reset_hw = reset_hw;

  std::printf("\n  r(n) at alpha=1.0: measured %s, paper %s\n",
              ours.reduction_fn(1.0).to_string().c_str(),
              paper.reduction_fn(1.0).to_string().c_str());
  std::printf("  r(n) at alpha=0.5: measured %s, paper %s\n",
              ours.reduction_fn(0.5).to_string().c_str(),
              paper.reduction_fn(0.5).to_string().c_str());
  std::printf("  r(n) > 0 for all n in [1, 11], alpha in (0, 1]: %s (paper: yes)\n",
              ours.always_positive(11, 1.0) && ours.always_positive(11, 0.01)
                  ? "yes"
                  : "NO");

  std::printf("\n  cross-check: analytic d_w(n) vs measured warm downtime\n");
  for (std::size_t i = 0; i < m.n.size(); ++i) {
    std::printf("    n=%-2.0f analytic %.1f s, measured %.1f s\n", m.n[i],
                ours.d_warm(m.n[i]), m.d_warm[i]);
  }
  return 0;
}
