// Figure 8: throughput of file reads and web accesses just before and just
// after the VMM reboot.
//
// (a) Reading a fully-cached 512 MB file in an 11 GiB VM: after a cold
//     reboot the first read misses everywhere and is disk-bound (paper:
//     -91 %); after a warm reboot the cache is intact (-0 %). The second
//     read is fast in all cases.
// (b) An Apache server with 10,000 x 512 KiB files, all cached, each
//     requested once by 10 parallel connections: cold -69 %, warm -0 %.
#include <cstdio>

#include "bench_util.hpp"
#include "workload/http_client.hpp"

namespace {

using namespace rh;
using bench::Testbed;

// --------------------------------------------------------------- (a)

double read_throughput_mbps(Testbed& tb, guest::GuestOs& g, std::int64_t file) {
  const sim::SimTime t0 = tb.sim.now();
  bool done = false;
  guest::Vfs::ReadResult result;
  g.vfs().read(file, [&](const guest::Vfs::ReadResult& r) {
    result = r;
    done = true;
  });
  while (!done) tb.sim.step();
  const double secs = sim::to_seconds(tb.sim.now() - t0);
  return sim::to_mib(result.bytes) / secs;
}

struct FileReadRow {
  double before1 = 0, before2 = 0, after1 = 0, after2 = 0, degradation = 0;
};

FileReadRow file_read_experiment(rejuv::RebootKind kind, std::uint64_t seed) {
  Testbed tb(seed);
  auto& g = tb.add_vm("vm", 11 * sim::kGiB, Testbed::ServiceMix::kSsh);
  const auto file = g.vfs().create_file("big", 512 * sim::kMiB);

  FileReadRow row;
  // Populate the cache, then measure the cached baseline.
  read_throughput_mbps(tb, g, file);
  row.before1 = read_throughput_mbps(tb, g, file);
  row.before2 = read_throughput_mbps(tb, g, file);

  tb.rejuvenate(kind);

  row.after1 = read_throughput_mbps(tb, g, file);
  row.after2 = read_throughput_mbps(tb, g, file);
  row.degradation = 1.0 - row.after1 / row.before1;
  return row;
}

// --------------------------------------------------------------- (b)

struct WebRun {
  double rate = 0.0;       // req/s
  double p50_ms = 0.0;     // median request latency
  double p99_ms = 0.0;
};

WebRun web_run(Testbed& tb, guest::GuestOs& g, guest::ApacheService& apache,
               const std::vector<std::int64_t>& files) {
  workload::HttpClientFleet fleet(g, apache, files, {.cycle = false});
  const sim::SimTime t0 = tb.sim.now();
  fleet.start();
  while (!fleet.finished() && tb.sim.pending_events() > 0) tb.sim.step();
  const double secs = sim::to_seconds(tb.sim.now() - t0);
  WebRun run;
  run.rate = static_cast<double>(files.size()) / secs;
  run.p50_ms = sim::to_seconds(fleet.latencies().percentile(50)) * 1e3;
  run.p99_ms = sim::to_seconds(fleet.latencies().percentile(99)) * 1e3;
  return run;
}

struct WebRow {
  WebRun before, after;
  double degradation = 0;
};

WebRow web_experiment(rejuv::RebootKind kind, std::uint64_t seed) {
  Testbed tb(seed);
  auto& g = tb.add_vm("vm", 11 * sim::kGiB, Testbed::ServiceMix::kApache);
  auto* apache = static_cast<guest::ApacheService*>(g.find_service("httpd"));
  std::vector<std::int64_t> files;
  for (int f = 0; f < 10000; ++f) {
    files.push_back(g.vfs().create_file("doc" + std::to_string(f),
                                        512 * sim::kKiB));
  }
  WebRow row;
  // Fill the cache (every file requested once), then the cached baseline.
  web_run(tb, g, *apache, files);
  row.before = web_run(tb, g, *apache, files);

  tb.rejuvenate(kind);
  tb.sim.run_for(30 * sim::kSecond);  // let any creation artifact pass

  row.after = web_run(tb, g, *apache, files);
  row.degradation = 1.0 - row.after.rate / row.before.rate;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = rh::bench::SweepOptions::parse(argc, argv);
  rh::bench::print_header(
      "Figure 8: file-read and web throughput before/after the reboot");
  using rh::bench::fmt_ci;

  const struct {
    rejuv::RebootKind kind;
    double paper_file, paper_web;
  } kinds[] = {{rejuv::RebootKind::kWarm, 0.0, 0.0},
               {rejuv::RebootKind::kCold, 0.91, 0.69}};

  // (a) 512 MB file read: one grid point per reboot kind.
  enum { kB1, kB2, kA1, kA2, kDeg };
  const auto file_grid =
      exp::run_grid(opt.grid(2), [&](const exp::ReplicationContext& ctx) {
        const FileReadRow r =
            file_read_experiment(kinds[ctx.point_index].kind, ctx.seed);
        exp::ReplicationResult out;
        out.values = {r.before1, r.before2, r.after1, r.after2, r.degradation};
        return out;
      });
  rh::bench::print_sweep_banner(file_grid, opt);
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& red = file_grid.point(p);
    std::printf("\n  (a) 512 MB file read, %s:\n",
                rejuv::to_string(kinds[p].kind));
    std::printf("      before: 1st %s MB/s, 2nd %s MB/s\n",
                fmt_ci(red.mean(kB1), red.ci95(kB1), "%.0f").c_str(),
                fmt_ci(red.mean(kB2), red.ci95(kB2), "%.0f").c_str());
    std::printf("      after:  1st %s MB/s, 2nd %s MB/s\n",
                fmt_ci(red.mean(kA1), red.ci95(kA1), "%.0f").c_str(),
                fmt_ci(red.mean(kA2), red.ci95(kA2), "%.0f").c_str());
    std::printf("      first-read degradation: %s %% (paper: %.0f %%)\n",
                fmt_ci(red.mean(kDeg) * 100.0, red.ci95(kDeg) * 100.0, "%.0f").c_str(),
                kinds[p].paper_file * 100.0);
  }

  // (b) Apache over 10,000 cached files: one grid point per reboot kind.
  enum { kRateB, kRateA, kWebDeg, kP50B, kP99B, kP50A, kP99A };
  const auto web_grid =
      exp::run_grid(opt.grid(2), [&](const exp::ReplicationContext& ctx) {
        const WebRow r = web_experiment(kinds[ctx.point_index].kind, ctx.seed);
        exp::ReplicationResult out;
        out.values = {r.before.rate, r.after.rate, r.degradation,
                      r.before.p50_ms, r.before.p99_ms, r.after.p50_ms,
                      r.after.p99_ms};
        return out;
      });
  for (std::size_t p = 0; p < 2; ++p) {
    const auto& red = web_grid.point(p);
    std::printf("\n  (b) web server, 10,000 x 512 KiB files each requested once, %s:\n",
                rejuv::to_string(kinds[p].kind));
    std::printf("      before %s req/s, after %s req/s -> degradation %s %% "
                "(paper: %.0f %%)\n",
                fmt_ci(red.mean(kRateB), red.ci95(kRateB), "%.0f").c_str(),
                fmt_ci(red.mean(kRateA), red.ci95(kRateA), "%.0f").c_str(),
                fmt_ci(red.mean(kWebDeg) * 100.0, red.ci95(kWebDeg) * 100.0, "%.0f").c_str(),
                kinds[p].paper_web * 100.0);
    std::printf("      request latency p50/p99: before %s/%s ms, after %s/%s ms\n",
                fmt_ci(red.mean(kP50B), red.ci95(kP50B), "%.0f").c_str(),
                fmt_ci(red.mean(kP99B), red.ci95(kP99B), "%.0f").c_str(),
                fmt_ci(red.mean(kP50A), red.ci95(kP50A), "%.0f").c_str(),
                fmt_ci(red.mean(kP99A), red.ci95(kP99A), "%.0f").c_str());
  }
  return 0;
}
