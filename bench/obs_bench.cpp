// Observability overhead benchmark: the zero-cost contract, measured.
//
//   micro        -- per-call cost of the typed Observer, disabled and
//                   enabled
//   cluster      -- the fig9 DES cluster rolling pass run twice, observer
//                   off and on, with a digest over every deterministic
//                   output: the digests must match (enabling observability
//                   changes nothing the simulation computes) and the
//                   disabled run's wall time is the number the "free when
//                   off" claim stands on
//
// Emits BENCH_obs.json. Usage:
//
//   obs_bench [--budget-seconds S] [--out PATH] [--ops N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "flags.hpp"
#include "obs/observer.hpp"
#include "simcore/hash.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

volatile std::uint64_t g_sink = 0;

// ------------------------------------------------------------- micro

double ns_per_op(std::uint64_t ops, double seconds) {
  return seconds / static_cast<double>(ops) * 1e9;
}

/// Typed emit with the observer disabled: the cost every fault-free hot
/// run pays per instrumentation site (one predicted branch).
double run_emit_disabled(std::uint64_t ops) {
  obs::Observer obs;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    obs.emit(static_cast<sim::SimTime>(i), obs::Category::kVmm,
             obs::EventKind::kLifecycle, "domain created",
             static_cast<std::int32_t>(i), i, i + 1);
    g_sink = g_sink + i;
  }
  return ns_per_op(ops, seconds_since(t0));
}

/// Typed emit with the observer enabled: POD store into the slab ring.
double run_emit_enabled(std::uint64_t ops) {
  obs::Observer obs;
  obs.set_enabled(true);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    obs.emit(static_cast<sim::SimTime>(i), obs::Category::kVmm,
             obs::EventKind::kLifecycle, "domain created",
             static_cast<std::int32_t>(i), i, i + 1);
    g_sink = g_sink + i;
  }
  const double ns = ns_per_op(ops, seconds_since(t0));
  g_sink = g_sink + obs.events().size();
  return ns;
}

/// One open/close span pair, enabled.
double run_span_pair_enabled(std::uint64_t ops) {
  obs::Observer obs;
  obs.set_enabled(true);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto id = obs.span_open(static_cast<sim::SimTime>(2 * i),
                                  obs::Phase::kStep, "on-memory suspend");
    obs.span_close(id, static_cast<sim::SimTime>(2 * i + 1));
  }
  const double ns = ns_per_op(ops, seconds_since(t0));
  g_sink = g_sink + obs.spans().records().size();
  return ns;
}

// ----------------------------------------------------------- cluster

struct ClusterRun {
  double wall_seconds = 0;
  std::uint64_t digest = 0;
  std::uint64_t spans = 0;
  std::uint64_t events = 0;
};

/// The fig9 scenario (3 hosts x 4 VMs, rolling warm rejuvenation) on a
/// one-worker engine, with a digest over everything deterministic the run
/// produces. Observability must not move a single one of these bits.
ClusterRun cluster_once(bool observe) {
  const auto t0 = Clock::now();
  sim::ParallelSimulation engine({.partitions = 4, .workers = 1});
  sim::Simulation& control = engine.partition(0);
  cluster::Cluster::Config cfg;
  cfg.hosts = 3;
  cfg.vms_per_host = 4;
  cfg.observe = observe;
  cfg.engine = &engine;
  cluster::Cluster cl(control, cfg);
  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  cluster::ClusterClientFleet fleet(control, *cl.sharded_balancer(), {});
  engine.run_on(0, [&fleet] { fleet.start(); });
  engine.run_until(control.now() + 30 * sim::kSecond);
  bool done = false;
  engine.run_on(0, [&cl, &done] {
    cl.rolling_rejuvenation_waves(
        {}, [&done](const cluster::Cluster::WaveReport&) { done = true; });
  });
  engine.run_while([&done] { return !done; });
  engine.run_until(control.now() + 60 * sim::kSecond);
  fleet.stop();

  ClusterRun run;
  run.wall_seconds = seconds_since(t0);
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    sim::hash_mix(run.digest,
                  static_cast<std::uint64_t>(engine.partition(p).now()));
    sim::hash_mix(run.digest, engine.partition(p).executed_events());
  }
  sim::hash_mix(run.digest, engine.messages_routed());
  sim::hash_mix(run.digest,
                static_cast<std::uint64_t>(fleet.completions().total()));
  sim::hash_mix(run.digest, cl.sharded_balancer()->rejected());
  for (const auto d : cl.rejuvenation_durations()) {
    sim::hash_mix(run.digest, static_cast<std::uint64_t>(d));
  }
  for (int h = 0; h < cfg.hosts; ++h) {
    run.spans += cl.host(h).obs().spans().records().size();
    run.events += cl.host(h).obs().events().size();
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  double budget_seconds = 10.0;
  std::uint64_t ops = 1 << 22;
  std::string out_path = "BENCH_obs.json";
  bench::Flags()
      .number("--budget-seconds", budget_seconds)
      .path("--out", out_path)
      .integer("--ops", ops, 1)
      .parse(argc, argv);

  struct Micro {
    const char* name;
    double (*fn)(std::uint64_t);
    double best_ns = 1e100;
  };
  Micro micros[] = {
      {"emit_disabled", &run_emit_disabled},
      {"emit_enabled", &run_emit_enabled},
      {"span_pair_enabled", &run_span_pair_enabled},
  };

  std::printf("observability benchmark: %llu ops/micro, %.1f s budget\n\n",
              static_cast<unsigned long long>(ops), budget_seconds);
  const auto t0 = Clock::now();
  int reps = 0;
  do {
    for (auto& m : micros) m.best_ns = std::min(m.best_ns, m.fn(ops));
    ++reps;
  } while (seconds_since(t0) < budget_seconds * 0.5 && reps < 20);
  for (const auto& m : micros) {
    std::printf("  %-24s %8.3f ns/op\n", m.name, m.best_ns);
  }

  // End-to-end: interleave off/on repetitions so both sample the same
  // machine noise, keep each side's best wall time.
  ClusterRun off = cluster_once(false);
  ClusterRun on = cluster_once(true);
  const auto t1 = Clock::now();
  while (seconds_since(t1) < budget_seconds * 0.5) {
    const ClusterRun off2 = cluster_once(false);
    const ClusterRun on2 = cluster_once(true);
    off.wall_seconds = std::min(off.wall_seconds, off2.wall_seconds);
    on.wall_seconds = std::min(on.wall_seconds, on2.wall_seconds);
  }
  const bool digest_equal = off.digest == on.digest;
  std::printf("\n  fig9 cluster pass: observer off %.3f s, on %.3f s "
              "(%+.1f %%), digests %s\n",
              off.wall_seconds, on.wall_seconds,
              (on.wall_seconds / off.wall_seconds - 1.0) * 100.0,
              digest_equal ? "EQUAL" : "DIFFER");
  std::printf("  observed run recorded %llu spans, %llu events; "
              "unobserved recorded %llu/%llu\n",
              static_cast<unsigned long long>(on.spans),
              static_cast<unsigned long long>(on.events),
              static_cast<unsigned long long>(off.spans),
              static_cast<unsigned long long>(off.events));
  // The last line a CI digest check reads: the observer-off run.
  std::printf("  cluster pass digest=%016llx\n",
              static_cast<unsigned long long>(off.digest));

  std::string json = "{\n  \"benchmark\": \"observability\",\n";
  json += "  " + bench::argv_json() + ",\n";
  json += "  \"contract\": \"observer off = one predicted branch per site, "
          "zero RNG draws, zero scheduled events; the cluster digests below "
          "must be equal\",\n";
  json += "  \"micro\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < std::size(micros); ++i) {
    std::snprintf(buf, sizeof buf, "    {\"name\": \"%s\", \"ns_per_op\": %.4f}%s\n",
                  micros[i].name, micros[i].best_ns,
                  i + 1 < std::size(micros) ? "," : "");
    json += buf;
  }
  json += "  ],\n  \"cluster\": {\n";
  std::snprintf(buf, sizeof buf,
                "    \"disabled_wall_seconds\": %.4f,\n"
                "    \"enabled_wall_seconds\": %.4f,\n",
                off.wall_seconds, on.wall_seconds);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "    \"digest_disabled\": \"%016llx\",\n"
                "    \"digest_enabled\": \"%016llx\",\n"
                "    \"digest_equal\": %s,\n",
                static_cast<unsigned long long>(off.digest),
                static_cast<unsigned long long>(on.digest),
                digest_equal ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof buf,
                "    \"enabled_spans\": %llu,\n    \"enabled_events\": %llu\n"
                "  }\n}\n",
                static_cast<unsigned long long>(on.spans),
                static_cast<unsigned long long>(on.events));
  json += buf;

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\n  written to %s\n", out_path.c_str());
  return digest_equal ? 0 : 1;
}
