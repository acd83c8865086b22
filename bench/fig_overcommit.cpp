// Overcommit sweep: availability and rejuvenation downtime vs the memory
// overcommit ratio, per reboot kind, under preserved-memory admission
// control (DESIGN.md §9).
//
// Six VMs share one host. At overcommit ratio R each VM's nominal memory
// is R * (usable / 6) but it boots with a reduced allocation (Xen's
// memory= < maxmem=) covering its working set, min(0.7 * R, 0.93) of its
// share -- guests fault in more of their nominal memory the more the host
// is overcommitted, until physical RAM saturates. The preserved-frame
// budget is fixed at 0.72 * usable, so the warm path degrades with R:
//
//   R = 1.0   everything fits; all six VMs resume warm
//   R = 1.2   admission covers the shortfall by ballooning alone
//   R = 1.5   ballooning is not enough; one VM demotes to the disk path
//   R = 2.0   page caches (sized to *nominal* memory) have swallowed the
//             reclaim-safe margin; two VMs demote
//
// Saved and cold runs of the same testbed are the baselines: their
// downtime grows with the working set no matter what admission does.
// Output: per-VM availability over a 1 h window containing one supervised
// rejuvenation, and the pass's total duration, mean +- 95 % CI across
// replications. --out FILE writes BENCH_overcommit.json.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rejuv/supervisor.hpp"
#include "workload/prober.hpp"

namespace {

using namespace rh;

constexpr int kVms = 6;

sim::Bytes page_align(double bytes) {
  return (static_cast<sim::Bytes>(bytes) / sim::kPageSize) * sim::kPageSize;
}

struct RunResult {
  double availability = 0;  ///< per-VM mean over the 1 h window
  double pass_seconds = 0;  ///< supervised pass duration
  double demotions = 0;     ///< VMs demoted to the disk path
};

RunResult run_one(rejuv::RebootKind kind, double ratio, std::uint64_t seed) {
  Calibration c = bench::replication_calibration();
  // Guests size their page cache to the memory they *think* they have, so
  // at high overcommit the cache region swallows the reclaim-safe margin.
  c.page_cache_fraction = 0.45;
  const sim::Bytes usable =
      c.machine.ram - c.vmm_reserved_memory - c.dom0_memory;
  const sim::Bytes share = usable / kVms;
  c.preserved_frame_budget =
      page_align(0.72 * static_cast<double>(usable)) / sim::kPageSize;

  sim::Simulation sim;
  auto host = std::make_unique<vmm::Host>(sim, c, seed);
  host->instant_start();

  const sim::Bytes nominal = page_align(ratio * static_cast<double>(share));
  const sim::Bytes working_set = page_align(
      std::min(0.7 * ratio, 0.93) * static_cast<double>(share));
  std::vector<std::unique_ptr<guest::GuestOs>> guests;
  for (int v = 0; v < kVms; ++v) {
    auto g = std::make_unique<guest::GuestOs>(
        *host, "vm" + std::to_string(v), nominal);
    g->add_service(std::make_unique<guest::JbossService>());
    g->set_boot_allocation(working_set);
    bool up = false;
    g->create_and_boot([&up] { up = true; });
    sim.run_until(sim.now() + sim::kHour);
    if (!up) throw InvariantViolation("fig_overcommit: VM failed to boot");
    guests.push_back(std::move(g));
  }

  std::vector<guest::GuestOs*> ptrs;
  for (auto& g : guests) ptrs.push_back(g.get());
  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& g : guests) {
    auto* svc = g->find_service("jboss");
    probers.push_back(std::make_unique<workload::Prober>(
        sim, workload::Prober::Config{},
        [g = g.get(), svc] { return g->service_reachable(*svc); }));
    probers.back()->start();
  }
  sim.run_for(sim::kSecond);

  rejuv::SupervisorConfig scfg;
  scfg.preferred = kind;
  scfg.admission = true;
  rejuv::Supervisor sup(*host, ptrs, scfg);
  const sim::SimTime start = sim.now();
  const sim::SimTime end = start + sim::kHour;
  sup.run([](const rejuv::SupervisorReport&) {});
  sim.run_until(end);

  RunResult out;
  double downtime = 0;
  for (auto& p : probers) {
    p->stop();
    downtime += static_cast<double>(p->total_downtime(start, end));
  }
  out.availability = 1.0 - downtime / (static_cast<double>(end - start) *
                                       static_cast<double>(probers.size()));
  const auto& rep = sup.report();
  out.pass_seconds = sim::to_seconds(rep.total_duration());
  out.demotions = static_cast<double>(rep.pressure.demoted_saved);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> ratios = {1.0, 1.2, 1.5, 2.0};
  std::string out_path;
  rh::bench::Flags flags;
  flags.values("--overcommit", ratios).path("--out", out_path);
  const auto opt = rh::bench::SweepOptions::parse(argc, argv, flags);
  for (const double r : ratios) {
    if (r < 1.0) {
      std::fprintf(stderr, "--overcommit: ratio %g below 1.0\n", r);
      return 2;
    }
  }

  rh::bench::print_header(
      "Overcommit sweep: availability and downtime vs overcommit ratio "
      "under preserved-memory admission");
  std::printf("  [%d JBoss VMs, 1 h window with one supervised "
              "rejuvenation; preserved budget 0.72 x usable; cells are "
              "mean±95%% CI over %zu replications]\n\n",
              kVms, opt.reps);

  const rejuv::RebootKind kinds[] = {rejuv::RebootKind::kWarm,
                                     rejuv::RebootKind::kSaved,
                                     rejuv::RebootKind::kCold};
  const char* names[] = {"warm", "saved", "cold"};
  // One grid per reboot kind sharing the root seed, so every kind faces
  // the same replication substreams.
  exp::GridResult grids[3];
  for (std::size_t k = 0; k < 3; ++k) {
    grids[k] = exp::run_grid(
        opt.grid(ratios.size()), [&, k](const exp::ReplicationContext& ctx) {
          exp::ReplicationResult out;
          const auto r = run_one(kinds[k], ratios[ctx.point_index], ctx.seed);
          out.values = {r.availability, r.pass_seconds, r.demotions};
          return out;
        });
  }

  for (std::size_t k = 0; k < 3; ++k) {
    std::printf("  -- %s --\n", names[k]);
    std::printf("  %-10s %-24s %-22s %s\n", "ratio", "availability %",
                "pass duration s", "demotions");
    for (std::size_t p = 0; p < ratios.size(); ++p) {
      const auto& pt = grids[k].point(p);
      std::printf("  %-10.2f %-24s %-22s %.1f\n", ratios[p],
                  rh::bench::fmt_ci(pt.mean(0) * 100.0, pt.ci95(0) * 100.0,
                                    "%.4f")
                      .c_str(),
                  rh::bench::fmt_ci(pt.mean(1), pt.ci95(1), "%.1f").c_str(),
                  pt.mean(2));
    }
    std::printf("\n");
  }

  if (out_path.empty()) return 0;
  std::string json = "{\n  \"benchmark\": \"overcommit_sweep\",\n";
  json += "  " + rh::bench::argv_json() + ",\n";
  json += "  \"workload\": \"supervised rejuvenation of " +
          std::to_string(kVms) +
          " JBoss VMs, 1 h window, preserved budget 0.72 x usable\",\n";
  json += "  \"replications_per_point\": " + std::to_string(opt.reps) + ",\n";
  json += "  \"root_seed\": " + std::to_string(opt.root_seed) + ",\n";
  json += "  \"points\": [\n";
  char buf[200];
  for (std::size_t p = 0; p < ratios.size(); ++p) {
    std::snprintf(buf, sizeof buf, "    {\"overcommit\": %.4f", ratios[p]);
    json += buf;
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& pt = grids[k].point(p);
      std::snprintf(
          buf, sizeof buf,
          ", \"%s_availability\": %.8f, \"%s_availability_ci95\": %.8f"
          ", \"%s_pass_s\": %.4f, \"%s_pass_s_ci95\": %.4f"
          ", \"%s_demotions\": %.2f",
          names[k], pt.mean(0), names[k], pt.ci95(0), names[k], pt.mean(1),
          names[k], pt.ci95(1), names[k], pt.mean(2));
      json += buf;
    }
    json += p + 1 < ratios.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());
  return 0;
}
