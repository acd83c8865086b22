// Parallel-in-run DES engine benchmark (DESIGN.md §11): strong scaling
// of one fig9-shaped cluster run -- H hosts x V VMs behind the load
// balancer, client fleet in steady state, a rolling warm rejuvenation in
// flight -- executed by the conservative windowed engine at 1/2/4/8
// workers, plus a lookahead-sensitivity sweep over the link latency
// (the lookahead *is* the minimum link latency, so shrinking it shrinks
// the safe window and raises the barrier rate).
//
// Every worker count must produce a bitwise-identical digest; the binary
// exits non-zero otherwise. Emits BENCH_pdes.json. Usage:
//
//   pdes_bench [--hosts H] [--vms V] [--sim-seconds S] [--connections C]
//              [--workers LIST] [--lookahead-us LIST] [--reps N]
//              [--out PATH] [--quick]
//
// Each strong-scaling row is the minimum wall time over --reps identical
// runs (default 3): the min is the standard noise filter for a shared
// machine, and since every repetition must reproduce the same digest the
// extra runs double as a determinism soak.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "flags.hpp"
#include "simcore/hash.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  int hosts = 100;
  int vms_per_host = 4;
  int connections = 0;  // 0 = 2 per host
  double sim_seconds = 20.0;
  sim::Duration link_latency_us = 200;
  std::size_t workers = 1;
};

struct RunResult {
  double wall_seconds = 0;
  std::uint64_t digest = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
};

/// One fig9-shaped run under the parallel engine. Wall time covers the
/// engine-driven phases only (boot windows + steady state + rolling pass
/// in flight), not object construction.
RunResult run_once(const RunConfig& rc) {
  sim::ParallelSimulation engine(
      {.partitions = rc.hosts + 1, .workers = rc.workers});
  cluster::Cluster::Config cfg;
  cfg.hosts = rc.hosts;
  cfg.vms_per_host = rc.vms_per_host;
  cfg.files_per_vm = 8;
  cfg.file_size = 64 * sim::kKiB;
  cfg.calib.link.latency = rc.link_latency_us;
  cfg.engine = &engine;
  cluster::Cluster cl(engine.partition(0), cfg);
  cluster::ClusterClientFleet fleet(
      engine.partition(0), *cl.sharded_balancer(),
      {.connections = rc.connections > 0 ? rc.connections : 2 * rc.hosts});

  const auto t0 = Clock::now();
  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  engine.run_on(0, [&cl, &fleet] {
    fleet.start();
    // Kick the rolling pass; at bench horizons it is typically still in
    // flight when the run ends, which is exactly the mixed steady-state +
    // rejuvenation event load the headline figure simulates.
    cl.rolling_rejuvenation_waves({},
                                  [](const cluster::Cluster::WaveReport&) {});
  });
  engine.run_until(engine.partition(0).now() +
                   static_cast<sim::Duration>(rc.sim_seconds * sim::kSecond));

  RunResult r;
  r.wall_seconds = seconds_since(t0);
  r.windows = engine.windows_executed();
  r.messages = engine.messages_routed();
  r.events = engine.total_executed_events();
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    sim::hash_mix(r.digest,
                  static_cast<std::uint64_t>(engine.partition(p).now()));
    sim::hash_mix(r.digest, engine.partition(p).executed_events());
  }
  sim::hash_mix(r.digest,
                static_cast<std::uint64_t>(fleet.completions().total()));
  sim::hash_mix(r.digest, cl.sharded_balancer()->dispatched());
  sim::hash_mix(r.digest, cl.sharded_balancer()->rejected());
  for (const auto d : cl.rejuvenation_durations()) {
    sim::hash_mix(r.digest, static_cast<std::uint64_t>(d));
  }
  sim::hash_mix(r.digest, r.messages);
  return r;
}

/// Runs the same configuration `reps` times and keeps the fastest wall
/// time. All repetitions must agree bit-for-bit on the digest (same
/// config, same engine, zero tolerance); a mismatch poisons the digest so
/// the cross-worker equality check below fails loudly.
RunResult run_best_of(const RunConfig& rc, int reps) {
  RunResult best = run_once(rc);
  for (int rep = 1; rep < reps; ++rep) {
    RunResult r = run_once(rc);
    if (r.digest != best.digest) {
      std::fprintf(stderr,
                   "ERROR: repetition %d of workers=%zu produced digest "
                   "%016llx, expected %016llx -- run is nondeterministic\n",
                   rep + 1, rc.workers,
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(best.digest));
      best.digest = ~best.digest;
      return best;
    }
    if (r.wall_seconds < best.wall_seconds) best = r;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig base;
  std::vector<long> workers = {1, 2, 4, 8};
  std::vector<long> lookaheads = {50, 100, 200, 400, 800};
  int reps = 3;
  std::string out_path = "BENCH_pdes.json";
  bench::Flags()
      .integer("--hosts", base.hosts, 1)
      .integer("--vms", base.vms_per_host, 1)
      .seconds("--sim-seconds", base.sim_seconds)
      .integer("--connections", base.connections)
      .integers("--workers", workers)
      .integers("--lookahead-us", lookaheads)
      .integer("--reps", reps)
      .path("--out", out_path)
      .action("--quick",
              [&] {
                base.hosts = 12;
                base.sim_seconds = 5.0;
                workers = {1, 2};
                lookaheads = {100, 400};
                reps = 1;
              })
      .parse(argc, argv);
  reps = std::max(1, reps);

  const unsigned hw = std::thread::hardware_concurrency();
  const bool degenerate = hw <= 1;
  if (degenerate) {
    std::fprintf(stderr,
                 "WARNING: hardware_concurrency() == %u -- every worker "
                 "count shares one core, so the speedups below are "
                 "degenerate (~1.0x) and say nothing about the engine. "
                 "Recording \"degenerate_scaling\": true.\n",
                 hw);
  }

  std::printf("parallel DES engine: %d hosts x %d VMs, %.1f simulated "
              "seconds, lookahead %lld us (hw threads: %u)\n\n",
              base.hosts, base.vms_per_host, base.sim_seconds,
              static_cast<long long>(base.link_latency_us), hw);

  // ------------------------------------------------------ strong scaling
  std::printf("  strong scaling (min of %d rep%s per row, varying workers):\n",
              reps, reps == 1 ? "" : "s");
  std::printf("  %8s %12s %10s %12s %12s %10s\n", "workers", "wall (s)",
              "speedup", "windows", "messages", "digest");
  std::vector<RunResult> scaling;
  for (const long w : workers) {
    RunConfig rc = base;
    rc.workers = static_cast<std::size_t>(std::max(1l, w));
    scaling.push_back(run_best_of(rc, reps));
    const RunResult& r = scaling.back();
    std::printf("  %8ld %12.3f %9.2fx %12llu %12llu   %08llx\n", w,
                r.wall_seconds, scaling.front().wall_seconds / r.wall_seconds,
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.digest & 0xffffffffull));
  }
  bool digests_equal = true;
  for (const auto& r : scaling) {
    digests_equal = digests_equal && r.digest == scaling.front().digest;
  }
  std::printf("  digests across worker counts: %s\n",
              digests_equal ? "EQUAL (bitwise deterministic)" : "DIFFER");
  // The full run digest, for the CI digest pin (`ctest -L digest`): a
  // change that moves the engine's results the same way on every worker
  // count passes the check above but not the pin.
  std::printf("  digest=%016llx\n",
              static_cast<unsigned long long>(scaling.front().digest));

  // --------------------------------------------------- lookahead sweep
  const std::size_t sweep_workers =
      static_cast<std::size_t>(std::max(1l, *std::max_element(
          workers.begin(), workers.end())));
  std::printf("\n  lookahead sensitivity (link latency sweep, %zu workers; "
              "smaller lookahead = narrower safe window = more barriers):\n",
              sweep_workers);
  std::printf("  %14s %12s %12s %16s\n", "lookahead (us)", "wall (s)",
              "windows", "events/window");
  struct SweepRow {
    long lookahead_us = 0;
    RunResult r;
  };
  std::vector<SweepRow> sweep;
  for (const long la : lookaheads) {
    RunConfig rc = base;
    rc.workers = sweep_workers;
    rc.link_latency_us = static_cast<sim::Duration>(std::max(1l, la));
    sweep.push_back({la, run_once(rc)});
    const RunResult& r = sweep.back().r;
    std::printf("  %14ld %12.3f %12llu %16.1f\n", la, r.wall_seconds,
                static_cast<unsigned long long>(r.windows),
                r.windows > 0 ? static_cast<double>(r.events) /
                                    static_cast<double>(r.windows)
                              : 0.0);
  }

  // --------------------------------------------------------------- JSON
  std::string json = "{\n  \"benchmark\": \"pdes\",\n";
  json += "  " + bench::argv_json() + ",\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"hosts\": %d,\n  \"vms_per_host\": %d,\n"
                "  \"sim_seconds\": %.2f,\n  \"connections\": %d,\n"
                "  \"lookahead_us_default\": %lld,\n"
                "  \"reps\": %d,\n"
                "  \"hardware_concurrency\": %u,\n"
                "  \"degenerate_scaling\": %s,\n",
                base.hosts, base.vms_per_host, base.sim_seconds,
                base.connections > 0 ? base.connections : 2 * base.hosts,
                static_cast<long long>(base.link_latency_us), reps, hw,
                degenerate ? "true" : "false");
  json += buf;
  json += "  \"strong_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const RunResult& r = scaling[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"workers\": %ld, \"wall_seconds\": %.4f, "
                  "\"speedup_vs_1\": %.3f, \"windows\": %llu, "
                  "\"messages\": %llu, \"events\": %llu, "
                  "\"digest\": \"%016llx\"}%s\n",
                  workers[i], r.wall_seconds,
                  scaling.front().wall_seconds / r.wall_seconds,
                  static_cast<unsigned long long>(r.windows),
                  static_cast<unsigned long long>(r.messages),
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.digest),
                  i + 1 < scaling.size() ? "," : "");
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  ],\n  \"digests_equal\": %s,\n  \"lookahead_sweep\": [\n",
                digests_equal ? "true" : "false");
  json += buf;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RunResult& r = sweep[i].r;
    std::snprintf(buf, sizeof buf,
                  "    {\"lookahead_us\": %ld, \"workers\": %zu, "
                  "\"wall_seconds\": %.4f, \"windows\": %llu, "
                  "\"events\": %llu, \"events_per_window\": %.2f}%s\n",
                  sweep[i].lookahead_us, sweep_workers, r.wall_seconds,
                  static_cast<unsigned long long>(r.windows),
                  static_cast<unsigned long long>(r.events),
                  r.windows > 0 ? static_cast<double>(r.events) /
                                      static_cast<double>(r.windows)
                                : 0.0,
                  i + 1 < sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\n  written to %s\n", out_path.c_str());
  return digests_equal ? 0 : 1;
}
