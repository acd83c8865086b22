// Steady faults at datacenter scale: tab_microrecovery's single-host
// crossover (micro-recovery vs the legacy warm/saved/cold ladders under
// steady unplanned VMM crashes), scaled out to the 1000-host fleet.
//
// For each (steady fault rate x recovery ladder) cell the fleet of
// fleet.hpp is rebuilt, with failure-reactive wave admission and a
// per-host SteadyFaultProcess + RecoveryDriver crashing and recovering
// hosts *while* the waves and the sessions are in flight. The fleet
// attributes every session outage as planned (wave) or unplanned
// (crash); the crossover figure is per-ladder p99 availability vs fault
// rate.
//
// Writes BENCH_crashscale.json (the CI smoke artifact); the regression
// gate tracks `p99_availability_at_base_rate` = the micro ladder's p99
// availability at the highest swept rate. Every cell prints a
// worker-count-invariant digest and the run ends with an aggregate
// `digest=` line CI can diff across --workers 1 vs 4.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <vector>

#include "fleet.hpp"

namespace {

using namespace rh;
using bench::kLadders;

bench::FleetCell run_cell(const bench::FleetOptions& o,
                          const bench::Ladder& ladder, double rate) {
  bench::FleetRun run(o, rate);
  run.boot();
  const rejuv::SupervisorConfig scfg = bench::ladder_config(ladder);
  run.start_steady_faults(scfg);
  run.open_window(2.0);
  run.start_waves(scfg);
  run.close_window();

  std::uint64_t digest = run.digest_prefix();
  const auto mix = [&digest](std::uint64_t v) { sim::hash_mix(digest, v); };
  const auto& u = run.cl.unplanned_report();
  mix(u.failures);
  mix(u.absorbed);
  mix(u.recoveries);
  mix(u.micro_recoveries);
  mix(u.unrecovered);
  mix(static_cast<std::uint64_t>(u.downtime));
  run.mix_waves(digest);
  mix(run.engine.messages_routed());
  return run.cell(digest);
}

}  // namespace

int main(int argc, char** argv) {
  bench::FleetOptions o{.sim_seconds = 90.0,
                        .rates = {0.0, 0.1, 0.4},
                        .out = "BENCH_crashscale.json"};
  bench::Flags flags;
  o.bind(flags).parse(argc, argv);

  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("fig_crashscale: hosts=%d shards=%d wave=%d workers=%zu "
              "check=%.1fs window=%.1fs\n",
              o.hosts, o.shards, o.wave, o.workers, o.check_interval_s,
              o.sim_seconds);

  const double base_rate = o.rates.back();
  double micro_p99_at_base = 0.0;
  double cold_p99_at_base = 0.0;
  std::uint64_t digest = 0;

  std::vector<std::vector<bench::FleetCell>> cells(std::size(kLadders));
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    for (const double rate : o.rates) {
      const bench::FleetCell f = run_cell(o, kLadders[l], rate);
      std::printf("  %-5s rate=%.2f: pooled=%.6f p99=%.6f p999=%.6f "
                  "unplanned(f=%llu r=%llu u=%llu) pauses=%zu "
                  "digest=%016llx (%.1fs)\n",
                  kLadders[l].name, rate, f.stats.pooled_availability,
                  f.stats.availability_p99, f.stats.availability_p999,
                  static_cast<unsigned long long>(f.unplanned.failures),
                  static_cast<unsigned long long>(f.unplanned.recoveries),
                  static_cast<unsigned long long>(f.unplanned.unrecovered),
                  f.admission_pauses,
                  static_cast<unsigned long long>(f.digest), f.wall);
      sim::hash_mix(digest, f.digest);
      if (rate == base_rate) {
        const std::string_view name = kLadders[l].name;
        if (name == "micro") micro_p99_at_base = f.stats.availability_p99;
        if (name == "cold") cold_p99_at_base = f.stats.availability_p99;
      }
      cells[l].push_back(f);
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  std::printf("  crossover at rate %.2f: micro p99=%.6f vs cold p99=%.6f\n",
              base_rate, micro_p99_at_base, cold_p99_at_base);
  std::printf("  aggregate digest=%016llx (%.1f wall-s)\n",
              static_cast<unsigned long long>(digest), wall);

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  o.write_json_head(js, "fig_crashscale");
  js << "  \"sim_seconds\": " << o.sim_seconds << ",\n"
     << "  \"check_interval_s\": " << o.check_interval_s << ",\n"
     << "  \"base_rate\": " << base_rate << ",\n"
     << "  \"p99_availability_at_base_rate\": " << micro_p99_at_base << ",\n"
     << "  \"cold_p99_availability_at_base_rate\": " << cold_p99_at_base
     << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"ladders\": [\n";
  for (std::size_t l = 0; l < std::size(kLadders); ++l) {
    js << "    {\"name\": \"" << kLadders[l].name << "\", \"points\": [\n";
    for (std::size_t i = 0; i < cells[l].size(); ++i) {
      js << "      {\"rate\": " << o.rates[i] << ", ";
      cells[l][i].write_json(js, ", ");
      js << "}" << (i + 1 < cells[l].size() ? ",\n" : "\n");
    }
    js << "    ]}" << (l + 1 < std::size(kLadders) ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"digest\": \"" << bench::hex_digest(digest) << "\"\n"
     << "}\n";
  std::printf("  wrote %s\n", o.out.c_str());
  return 0;
}
