// Section 5.3's availability table: weekly OS rejuvenation + 4-weekly VMM
// rejuvenation for 11 JBoss VMs. Paper: 99.993 % (warm, four 9s),
// 99.985 % (cold), 99.977 % (saved) with alpha = 0.5.
//
// We (1) measure the component downtimes in the simulator, (2) evaluate
// the closed-form availability with them, and (3) cross-check the warm
// case with a brute-force 4-week policy simulation under a prober.
//
// --fault-rate R0,R1,... switches the bench into the failing-world sweep:
// every mechanism fails with probability R (fault::FaultConfig::uniform)
// while a rejuv::Supervisor walks the recovery ladder, and the bench
// reports per-VM availability over a one-hour window per reboot kind,
// mean +- 95 % CI across replications. --out FILE additionally writes the
// sweep as JSON (the CI smoke artifact).
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "rejuv/availability.hpp"
#include "rejuv/policy.hpp"
#include "rejuv/supervisor.hpp"

namespace {

using namespace rh;
using bench::Testbed;

/// Downtime of one OS rejuvenation: reboot vm0 while 10 other VMs run.
double measure_os_downtime(std::uint64_t seed) {
  Testbed tb(seed);
  tb.add_vms(11, sim::kGiB, Testbed::ServiceMix::kJboss);
  auto& g = *tb.guests[0];
  auto* jboss = g.find_service("jboss");
  workload::Prober prober(tb.sim, {},
                          [&] { return g.service_reachable(*jboss); });
  prober.start();
  tb.sim.run_for(sim::kSecond);
  const sim::SimTime start = tb.sim.now();
  bool done = false;
  g.shutdown([&] { g.create_and_boot([&] { done = true; }); });
  while (!done) tb.sim.step();
  tb.sim.run_for(2 * sim::kSecond);
  prober.stop();
  return sim::to_seconds(prober.outage_after(start).value_or(0));
}

/// Mean VMM-rejuvenation downtime at n=11 (JBoss), per reboot kind.
double measure_vmm_downtime(rejuv::RebootKind kind, std::uint64_t seed) {
  Testbed tb(seed);
  tb.add_vms(11, sim::kGiB, Testbed::ServiceMix::kJboss);
  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& g : tb.guests) {
    auto* svc = g->find_service("jboss");
    probers.push_back(std::make_unique<workload::Prober>(
        tb.sim, workload::Prober::Config{},
        [g = g.get(), svc] { return g->service_reachable(*svc); }));
    probers.back()->start();
  }
  tb.sim.run_for(sim::kSecond);
  const sim::SimTime start = tb.sim.now();
  tb.rejuvenate(kind);
  tb.sim.run_for(2 * sim::kSecond);
  double total = 0;
  for (auto& p : probers) {
    p->stop();
    total += sim::to_seconds(p->outage_after(start).value_or(0));
  }
  return total / static_cast<double>(probers.size());
}

/// Brute force: run the policy for 4 weeks + margin, probing vm0 at 1 s.
double simulate_availability(rejuv::RebootKind kind, std::uint64_t seed) {
  Testbed tb(seed);
  tb.add_vms(11, sim::kGiB, Testbed::ServiceMix::kJboss);
  auto& g = *tb.guests[0];
  auto* jboss = g.find_service("jboss");
  workload::Prober prober(tb.sim, {/*interval=*/sim::kSecond},
                          [&] { return g.service_reachable(*jboss); });
  prober.start();
  rejuv::RejuvenationPolicy::Config cfg;
  cfg.vmm_reboot_kind = kind;
  rejuv::RejuvenationPolicy policy(*tb.host, tb.guest_ptrs(), cfg);
  const sim::SimTime start = tb.sim.now();
  policy.start();
  const sim::SimTime end = start + 4 * sim::kWeek + sim::kDay;
  tb.sim.run_until(end);
  prober.stop();
  const auto downtime = prober.total_downtime(start, end);
  return 1.0 - static_cast<double>(downtime) / static_cast<double>(end - start);
}

// ------------------------------------------------- fault-rate sweep

/// Per-VM availability over a one-hour window containing one *supervised*
/// rejuvenation, with every mechanism failing at `rate`. VMs the recovery
/// ladder cannot bring back stay down to the end of the window, so their
/// loss shows up as availability, not as a hang. The host's observer is
/// enabled so the supervisor's recovery-action counters ride back in the
/// result's metrics registry (merged per point by the exp::Reducer).
exp::ReplicationResult supervised_replication(rejuv::RebootKind kind,
                                              double rate,
                                              std::uint64_t seed) {
  Testbed tb(seed);
  tb.host->obs().set_enabled(true);
  tb.add_vms(4, sim::kGiB, Testbed::ServiceMix::kJboss);
  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& g : tb.guests) {
    auto* svc = g->find_service("jboss");
    probers.push_back(std::make_unique<workload::Prober>(
        tb.sim, workload::Prober::Config{},
        [g = g.get(), svc] { return g->service_reachable(*svc); }));
    probers.back()->start();
  }
  tb.sim.run_for(sim::kSecond);
  // Arm faults only now: the sweep injects into the rejuvenation pass,
  // not into the initial provisioning.
  tb.host->configure_faults(fault::FaultConfig::uniform(rate));
  rejuv::SupervisorConfig scfg;
  scfg.preferred = kind;
  rejuv::Supervisor sup(*tb.host, tb.guest_ptrs(), scfg);
  const sim::SimTime start = tb.sim.now();
  const sim::SimTime end = start + sim::kHour;
  sup.run([](const rejuv::SupervisorReport&) {});
  tb.sim.run_until(end);
  double downtime = 0;
  for (auto& p : probers) {
    p->stop();
    downtime += static_cast<double>(p->total_downtime(start, end));
  }
  const double window =
      static_cast<double>(end - start) * static_cast<double>(probers.size());
  exp::ReplicationResult out;
  out.values = {1.0 - downtime / window};
  out.metrics = std::move(tb.host->obs().metrics());
  return out;
}

/// Sums the "supervisor.recovery.*" counters of one point's merged
/// registry, optionally rendering each action as "name xN".
std::uint64_t recovery_actions(const obs::MetricsRegistry& m,
                               std::string* rendered) {
  constexpr std::string_view kPrefix = "supervisor.recovery.";
  std::uint64_t total = 0;
  for (const auto& c : m.counters()) {
    if (c.name.rfind(kPrefix, 0) != 0 || c.value == 0) continue;
    total += c.value;
    if (rendered != nullptr) {
      if (!rendered->empty()) *rendered += ", ";
      *rendered += c.name.substr(kPrefix.size()) + " x" +
                   std::to_string(c.value);
    }
  }
  return total;
}

void run_fault_sweep(const std::vector<double>& rates,
                     const std::string& out_path,
                     const rh::bench::SweepOptions& opt) {
  rh::bench::print_header(
      "Failing world: availability vs fault rate under supervised recovery");
  std::printf("  [4 JBoss VMs, 1 h window with one supervised rejuvenation; "
              "every mechanism fails at the given rate; cells are per-VM "
              "availability %%, mean±95%% CI over %zu replications]\n\n",
              opt.reps);
  const rejuv::RebootKind kinds[] = {rejuv::RebootKind::kWarm,
                                     rejuv::RebootKind::kSaved,
                                     rejuv::RebootKind::kCold};
  // One grid per reboot kind, sharing the root seed: point p of each grid
  // is rate p, so all kinds face the same replication substreams.
  exp::GridResult grids[3];
  for (std::size_t k = 0; k < 3; ++k) {
    grids[k] = exp::run_grid(
        opt.grid(rates.size()), [&, k](const exp::ReplicationContext& ctx) {
          return supervised_replication(kinds[k], rates[ctx.point_index],
                                        ctx.seed);
        });
  }
  std::printf("  %-12s %-22s %-22s %-22s\n", "fault rate", "warm", "saved",
              "cold");
  for (std::size_t p = 0; p < rates.size(); ++p) {
    std::printf("  %-12.3f", rates[p]);
    for (std::size_t k = 0; k < 3; ++k) {
      std::printf(" %-22s",
                  rh::bench::fmt_ci(grids[k].point(p).mean(0) * 100.0,
                                    grids[k].point(p).ci95(0) * 100.0, "%.4f")
                      .c_str());
    }
    std::printf("\n");
  }

  std::printf("\n  supervisor recovery actions (summed over %zu replications, "
              "read from the\n  merged observer metrics, not bespoke "
              "accounting):\n", opt.reps);
  const char* kind_names[] = {"warm", "saved", "cold"};
  for (std::size_t p = 0; p < rates.size(); ++p) {
    for (std::size_t k = 0; k < 3; ++k) {
      std::string line;
      recovery_actions(grids[k].point(p).merged_metrics(), &line);
      if (line.empty()) line = "none";
      std::printf("  rate %-7.3f %-6s %s\n", rates[p], kind_names[k],
                  line.c_str());
    }
  }

  if (out_path.empty()) return;
  std::string json = "{\n  \"benchmark\": \"availability_fault_sweep\",\n";
  json += "  " + rh::bench::argv_json() + ",\n";
  json += "  \"workload\": \"supervised rejuvenation of 4 JBoss VMs, 1 h "
          "window, uniform per-mechanism fault rate\",\n";
  json += "  \"replications_per_point\": " + std::to_string(opt.reps) + ",\n";
  json += "  \"root_seed\": " + std::to_string(opt.root_seed) + ",\n";
  json += "  \"points\": [\n";
  char buf[160];
  for (std::size_t p = 0; p < rates.size(); ++p) {
    std::snprintf(buf, sizeof buf, "    {\"fault_rate\": %.6f", rates[p]);
    json += buf;
    const char* names[] = {"warm", "saved", "cold"};
    for (std::size_t k = 0; k < 3; ++k) {
      std::snprintf(buf, sizeof buf,
                    ", \"%s_availability\": %.8f, \"%s_ci95\": %.8f"
                    ", \"%s_recovery_actions\": %llu",
                    names[k], grids[k].point(p).mean(0), names[k],
                    grids[k].point(p).ci95(0), names[k],
                    static_cast<unsigned long long>(recovery_actions(
                        grids[k].point(p).merged_metrics(), nullptr)));
      json += buf;
    }
    json += p + 1 < rates.size() ? "},\n" : "}\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    std::exit(1);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\n  wrote %s\n", out_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> fault_rates;
  std::string out_path;
  rh::bench::Flags flags;
  flags.values("--fault-rate", fault_rates).path("--out", out_path);
  const auto opt = rh::bench::SweepOptions::parse(argc, argv, flags);
  if (!fault_rates.empty()) {
    run_fault_sweep(fault_rates, out_path, opt);
    return 0;
  }
  rh::bench::print_header(
      "Section 5.3: availability with weekly OS / 4-weekly VMM rejuvenation");
  using rh::bench::fmt_ci;

  struct KindRow {
    rejuv::RebootKind kind;
    double paper_avail;
    bool includes_os;
  };
  const KindRow rows[] = {
      {rejuv::RebootKind::kWarm, 99.993, false},
      {rejuv::RebootKind::kCold, 99.985, true},
      {rejuv::RebootKind::kSaved, 99.977, false},
  };

  // One replicated grid covering the component measurements: point 0 is
  // the OS rejuvenation, points 1..3 the VMM rejuvenation per reboot kind.
  const auto comp_grid =
      exp::run_grid(opt.grid(4), [&](const exp::ReplicationContext& ctx) {
        exp::ReplicationResult out;
        out.values = {ctx.point_index == 0
                          ? measure_os_downtime(ctx.seed)
                          : measure_vmm_downtime(rows[ctx.point_index - 1].kind,
                                                 ctx.seed)};
        return out;
      });
  rh::bench::print_sweep_banner(comp_grid, opt);
  const double os_dt = comp_grid.point(0).mean(0);
  std::printf("  one OS rejuvenation downtime: %s s (paper: 33.6 s)\n\n",
              fmt_ci(os_dt, comp_grid.point(0).ci95(0), "%.1f").c_str());

  for (std::size_t k = 0; k < 3; ++k) {
    const auto& red = comp_grid.point(k + 1);
    const double vmm_dt = red.mean(0);
    rejuv::AvailabilityParams p;
    p.os_downtime_s = os_dt;
    p.vmm_downtime_s = vmm_dt;
    p.vmm_reboot_includes_os = rows[k].includes_os;
    const double avail = rejuv::availability(p);
    std::printf("  %-16s VMM downtime %12s s -> availability %s (%d nines; "
                "paper: %.3f %%)\n",
                rejuv::to_string(rows[k].kind),
                fmt_ci(vmm_dt, red.ci95(0), "%.1f").c_str(),
                rejuv::format_availability(avail).c_str(),
                rejuv::count_nines(avail), rows[k].paper_avail);
  }

  // Brute-force cross-check, replicated: each seed runs its own 4-week
  // policy simulation.
  const auto bf_grid =
      exp::run_grid(opt.grid(1), [](const exp::ReplicationContext& ctx) {
        exp::ReplicationResult out;
        out.values = {
            simulate_availability(rejuv::RebootKind::kWarm, ctx.seed)};
        return out;
      });
  const double warm_sim = bf_grid.point(0).mean(0);
  std::printf("\n  brute-force 4-week policy simulation (vm0, 1 s probes, %zu "
              "replications):\n", opt.reps);
  std::printf("  warm-VM reboot: measured availability %s (%d nines), "
              "CI half-width %.5f points\n",
              rejuv::format_availability(warm_sim).c_str(),
              rejuv::count_nines(warm_sim), bf_grid.point(0).ci95(0) * 100.0);
  return 0;
}
