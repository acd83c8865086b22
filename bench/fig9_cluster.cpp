// Figure 9: total throughput of an m-host cluster while one host's VMM is
// rejuvenated -- warm-VM reboot vs cold-VM reboot vs live migration.
//
// Part 1 instantiates the paper's analytic model with this simulator's
// measured host-level numbers. Part 2 runs an actual DES cluster behind a
// load balancer through a rolling warm rejuvenation and reports the
// observed throughput dip.
#include <cstdio>
#include <fstream>
#include <string>

#include "cluster/throughput_model.hpp"
#include "cluster/vm_migrator.hpp"
#include "fleet.hpp"
#include "guest/sshd.hpp"
#include "obs/export.hpp"

namespace {

using namespace rh;

void analytic_part() {
  cluster::ClusterThroughputParams p;
  p.hosts = 4;
  p.per_host_throughput = 1.0;
  // The paper's measured inputs: warm 42 s, cold 241 s (11 JBoss VMs),
  // delta = 0.69, migration 17 min at 12 % degradation.
  cluster::ClusterThroughputModel model(p);

  std::printf("\n  analytic timelines (m=4, p=1; total throughput):\n");
  std::printf("  %8s %12s %12s %12s\n", "t (s)", "warm", "cold", "migration");
  for (const double t : {0.0, 30.0, 41.9, 42.0, 120.0, 240.9, 241.0, 248.0,
                         249.5, 600.0, 1019.0, 1021.0}) {
    std::printf("  %8.1f %12.2f %12.2f %12.2f\n", t,
                model.throughput_at(cluster::ClusterStrategy::kWarm, t),
                model.throughput_at(cluster::ClusterStrategy::kCold, t),
                model.throughput_at(cluster::ClusterStrategy::kLiveMigration, t));
  }
  std::printf("\n  lost work over 30 min (throughput-seconds vs ideal m*p):\n");
  for (const auto s :
       {cluster::ClusterStrategy::kWarm, cluster::ClusterStrategy::kCold,
        cluster::ClusterStrategy::kLiveMigration}) {
    std::printf("    %-18s %10.1f\n", cluster::to_string(s),
                model.lost_work(s, 1800.0));
  }

  const auto est = cluster::estimate_migration(800 * sim::kMiB, {});
  std::printf("\n  live-migration model check: 800 MiB VM migrates in %.0f s "
              "(paper/Clark: 72 s), stop-and-copy %.2f s, %d rounds\n",
              sim::to_seconds(est.total), sim::to_seconds(est.stop_and_copy),
              est.rounds);
  const auto evac = cluster::estimate_host_evacuation(11, sim::kGiB, {});
  std::printf("  evacuating 11 x 1 GiB: %.1f min (paper: ~17 min)\n",
              sim::to_seconds(evac) / 60.0);
}

struct SimRow {
  double baseline = 0, during = 0, after = 0;
  double longest_host_s = 0;
  std::uint64_t deferred = 0;
  /// Engine counters and a deterministic digest of the run: equal
  /// digests for `--workers 1` and `--workers 4` mean the worker count is
  /// unobservable.
  std::uint64_t windows = 0, messages = 0, events = 0, digest = 0;
};

/// The Section 6 scenario on the conservative parallel engine (DESIGN.md
/// §11): 3 hosts x 4 VMs, one partition per host plus the control plane,
/// a closed-loop client fleet and one rolling warm pass. `trace_path`
/// turns every host's observer on and writes a Chrome trace there.
SimRow simulated_once(std::uint64_t seed, double jitter, std::size_t workers,
                      const std::string& trace_path = "") {
  const int hosts = 3;
  sim::ParallelSimulation engine({.partitions = hosts + 1, .workers = workers});
  sim::Simulation& control = engine.partition(0);
  cluster::Cluster::Config cfg;
  cfg.hosts = hosts;
  cfg.vms_per_host = 4;
  cfg.seed = seed;
  cfg.calib.timing_jitter = jitter;
  // Observability is free when off and RNG-free when on, so the --trace
  // run measures the same numbers as the default one.
  cfg.observe = !trace_path.empty();
  cfg.engine = &engine;
  cluster::Cluster cl(control, cfg);
  cluster::ClusterClientFleet fleet(control, *cl.sharded_balancer(), {});

  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  engine.run_on(0, [&fleet] { fleet.start(); });
  engine.run_until(control.now() + 30 * sim::kSecond);
  const sim::SimTime t0 = control.now();
  const double baseline = fleet.completions().rate_between(
      t0 - 20 * sim::kSecond, t0);

  bool done = false;
  sim::SimTime t1 = 0;
  engine.run_on(0, [&cl, &control, &done, &t1] {
    cl.rolling_rejuvenation_waves(
        {}, [&control, &done, &t1](const cluster::Cluster::WaveReport&) {
          t1 = control.now();
          done = true;
        });
  });
  engine.run_while([&done] { return !done; });
  engine.run_until(control.now() + 60 * sim::kSecond);
  fleet.stop();

  SimRow row;
  row.baseline = baseline;
  row.during = fleet.completions().rate_between(t0, t1);
  // Skip the last host's 25 s creation-artifact window for the "after"
  // sample.
  row.after =
      fleet.completions().rate_between(t1 + 26 * sim::kSecond, t1 + 56 * sim::kSecond);
  for (const auto d : cl.rejuvenation_durations()) {
    row.longest_host_s = std::max(row.longest_host_s, sim::to_seconds(d));
  }
  row.deferred = cl.sharded_balancer()->rejected();

  const auto mix = [&row](std::uint64_t v) { sim::hash_mix(row.digest, v); };
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    mix(static_cast<std::uint64_t>(engine.partition(p).now()));
    mix(engine.partition(p).executed_events());
  }
  mix(static_cast<std::uint64_t>(fleet.completions().total()));
  mix(cl.sharded_balancer()->dispatched());
  mix(cl.sharded_balancer()->rejected());
  for (const auto d : cl.rejuvenation_durations()) {
    mix(static_cast<std::uint64_t>(d));
  }
  mix(engine.messages_routed());
  row.windows = engine.windows_executed();
  row.messages = engine.messages_routed();
  row.events = engine.total_executed_events();

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    obs::ChromeTraceWriter writer(os);
    for (int h = 0; h < cfg.hosts; ++h) {
      writer.add_process(h, "host" + std::to_string(h), cl.host(h).obs());
    }
  }
  return row;
}

// --hosts/--shards: the datacenter-scale scenario (DESIGN.md §12), the
// fleet of fleet.hpp with no faults. Emits pooled p99/p999 availability
// and session throughput into BENCH_scale.json plus a
// worker-count-invariant digest line (CI diffs --workers 1 vs 4 at both
// --shards 1 and --shards 8).
int run_scale(const bench::FleetOptions& o) {
  bench::FleetRun run(o, 0.0);
  run.boot();
  // Warm-up: let the staggered first requests reach steady state before
  // the measurement window opens.
  run.open_window(2.0);
  run.start_waves({});
  run.close_window();

  std::uint64_t digest = run.digest_prefix();
  run.mix_waves(digest);
  sim::hash_mix(digest, run.engine.messages_routed());
  const bench::FleetCell cell = run.cell(digest);
  const auto& stats = cell.stats;
  const double wall = cell.wall;

  const double sim_window = sim::to_seconds(run.window_end - run.window_start);
  const double sessions_per_sec =
      wall > 0 ? static_cast<double>(stats.completions) / wall : 0.0;
  const double sessions_per_sim_sec =
      sim_window > 0 ? static_cast<double>(stats.completions) / sim_window
                     : 0.0;
  std::printf("  scale: hosts=%d shards=%d wave=%d sessions=%llu workers=%zu "
              "digest=%016llx\n",
              o.hosts, o.shards, o.wave,
              static_cast<unsigned long long>(o.session_count()), o.workers,
              static_cast<unsigned long long>(digest));
  std::printf("    window %.1f sim-s in %.1f wall-s; %llu completions "
              "(%.0f sessions/s wall, %.0f/sim-s), %llu failures\n",
              sim_window, wall,
              static_cast<unsigned long long>(stats.completions),
              sessions_per_sec, sessions_per_sim_sec,
              static_cast<unsigned long long>(stats.failures));
  std::printf("    pooled availability %.6f; per-session p99 %.6f p999 %.6f "
              "(downtime p99 %.0f ms, p999 %.0f ms); %zu sessions still "
              "down\n",
              stats.pooled_availability, stats.availability_p99,
              stats.availability_p999,
              static_cast<double>(stats.session_downtime.percentile(99.0)) /
                  sim::kMillisecond,
              static_cast<double>(stats.session_downtime.percentile(99.9)) /
                  sim::kMillisecond,
              static_cast<std::size_t>(stats.sessions_down_at_end));
  std::printf("    waves: %zu started, %zu hosts rejuvenated (K=%d)%s; "
              "federated dispatches %llu, rejected %llu\n",
              cell.waves_started, cell.hosts_rejuvenated, o.wave,
              run.waves_done ? ", pass complete" : ", pass still rolling",
              static_cast<unsigned long long>(cell.federated),
              static_cast<unsigned long long>(cell.rejected));
  std::printf("    engine: %llu windows, %llu messages, %llu events "
              "(%.2fM events/s)\n",
              static_cast<unsigned long long>(run.engine.windows_executed()),
              static_cast<unsigned long long>(run.engine.messages_routed()),
              static_cast<unsigned long long>(cell.executed_events),
              wall > 0 ? static_cast<double>(cell.executed_events) / wall / 1e6
                       : 0.0);

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  o.write_json_head(js, "fig9_scale");
  js << "  \"lookahead_us\": "
     << static_cast<long long>(run.config.calib.link.latency) << ",\n"
     << "  \"sim_seconds\": " << sim_window << ",\n"
     << "  \"sessions_per_sec\": " << sessions_per_sec << ",\n"
     << "  \"sessions_per_sim_sec\": " << sessions_per_sim_sec << ",\n"
     << "  \"windows\": " << run.engine.windows_executed() << ",\n  ";
  cell.write_json(js, ",\n  ");
  js << "\n}\n";
  std::printf("    wrote %s\n", o.out.c_str());
  return 0;
}

// The paper's stated future work: empirically evaluate migration-based
// rejuvenation. Evacuate a host to a spare by live migration, rejuvenate
// the (now empty) host, migrate everything back.
struct MigrationRow {
  double total_min = 0;
  double worst_downtime_s = 0;
};

MigrationRow migration_based_once(sim::Rng rng) {
  sim::Simulation s;
  const Calibration calib = bench::replication_calibration();
  vmm::Host active(s, calib, rng.next());
  vmm::Host spare(s, calib, rng.next());
  active.instant_start();
  spare.instant_start();
  constexpr int kVms = 4;
  std::vector<std::unique_ptr<guest::GuestOs>> vms;
  int booted = 0;
  for (int i = 0; i < kVms; ++i) {
    vms.push_back(std::make_unique<guest::GuestOs>(
        active, "vm" + std::to_string(i), sim::kGiB));
    vms.back()->add_service(std::make_unique<guest::SshService>());
    vms.back()->create_and_boot([&booted] { ++booted; });
  }
  while (booted < kVms) s.step();

  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& vm : vms) {
    auto* ssh = vm->find_service("sshd");
    probers.push_back(std::make_unique<workload::Prober>(
        s, workload::Prober::Config{10 * sim::kMillisecond},
        [vm = vm.get(), ssh] { return vm->service_reachable(*ssh); }));
    probers.back()->start();
  }
  const sim::SimTime start = s.now();

  // Evacuate, rejuvenate, return -- sequentially, like xm migrate would.
  cluster::VmMigrator migrator;
  std::function<void(std::size_t, vmm::Host&, vmm::Host&, std::function<void()>)>
      move_all = [&](std::size_t i, vmm::Host& from, vmm::Host& to,
                     std::function<void()> done) {
        if (i == vms.size()) {
          done();
          return;
        }
        (void)from;
        migrator.migrate(*vms[i], to,
                         [&, i, done](const cluster::VmMigrator::Result&) {
                           move_all(i + 1, from, to, std::move(done));
                         });
      };
  bool finished = false;
  move_all(0, active, spare, [&] {
    // The active host is empty: plain reboot (nothing to preserve), then
    // bring every VM home.
    active.shutdown_dom0([&] {
      active.hardware_reboot([&] {
        move_all(0, spare, active, [&] { finished = true; });
      });
    });
  });
  while (!finished && s.pending_events() > 0) s.step();
  s.run_for(sim::kSecond);

  MigrationRow row;
  for (auto& p : probers) {
    p->stop();
    row.worst_downtime_s =
        std::max(row.worst_downtime_s,
                 sim::to_seconds(p->total_downtime(start, s.now())));
  }
  row.total_min = sim::to_seconds(s.now() - start) / 60.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // --trace FILE: additionally run one observed cluster pass and write a
  // Perfetto-loadable Chrome trace there. --workers N: run ONLY the
  // cluster scenario once, on N workers with the root seed and no timing
  // jitter, and print its digest (CI diffs N=1 vs N=4).
  // --hosts/--shards/...: run ONLY the datacenter-scale scenario
  // (sharded balancer + session fleet + waves) and write BENCH_scale.json.
  std::string trace_path;
  std::size_t par_workers = 0;
  bench::FleetOptions scale{.hosts = 100,
                            .shards = 4,
                            .wave = 8,
                            .sim_seconds = 6.0,
                            .out = "BENCH_scale.json"};
  bench::Flags flags;
  flags.path("--trace", trace_path).integer("--workers", par_workers);
  scale.bind_scale(flags);
  const auto opt = bench::SweepOptions::parse(argc, argv, flags);
  if (flags.given("--hosts") || flags.given("--shards") ||
      flags.given("--wave") || flags.given("--sessions") ||
      flags.given("--sim-seconds")) {
    scale.workers = par_workers > 0 ? par_workers : 1;
    scale.seed = opt.root_seed;
    return run_scale(scale);
  }
  if (par_workers > 0) {
    const SimRow r = simulated_once(opt.root_seed, Calibration{}.timing_jitter,
                                    par_workers);
    std::printf("  parallel DES cluster: hosts=3 workers=%zu windows=%llu "
                "messages=%llu events=%llu digest=%016llx\n",
                par_workers, static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.digest));
    return 0;
  }
  rh::bench::print_header(
      "Figure 9 / Section 6: cluster throughput during rejuvenation");
  using rh::bench::fmt_ci;

  // The analytic model is closed-form: one evaluation, no replication.
  analytic_part();

  // DES cluster: one grid point, replicated under independent seeds.
  enum { kBase, kDuring, kAfter, kLongest, kDeferred };
  const auto sim_grid =
      exp::run_grid(opt.grid(1), [](const exp::ReplicationContext& ctx) {
        const SimRow r =
            simulated_once(ctx.seed, bench::g_replication_jitter, 1);
        exp::ReplicationResult out;
        out.values = {r.baseline, r.during, r.after, r.longest_host_s,
                      static_cast<double>(r.deferred)};
        return out;
      });
  const auto& sg = sim_grid.point(0);
  std::printf("\n  DES cluster (m=3 hosts x 4 VMs, rolling warm rejuvenation; "
              "%zu replications, %zu threads):\n",
              opt.reps, sim_grid.threads_used);
  std::printf("    baseline %s req/s; during rolling rejuvenation %s req/s "
              "(expect ~(m-1)/m = %.0f); after %s req/s\n",
              fmt_ci(sg.mean(kBase), sg.ci95(kBase), "%.0f").c_str(),
              fmt_ci(sg.mean(kDuring), sg.ci95(kDuring), "%.0f").c_str(),
              sg.mean(kBase) * 2.0 / 3.0,
              fmt_ci(sg.mean(kAfter), sg.ci95(kAfter), "%.0f").c_str());
  std::printf("    longest per-host rejuvenation: %s s\n",
              fmt_ci(sg.mean(kLongest), sg.ci95(kLongest), "%.1f").c_str());
  std::printf("    service downtime at the load balancer: zero requests were "
              "permanently failed; %s were deferred and retried\n",
              fmt_ci(sg.mean(kDeferred), sg.ci95(kDeferred), "%.0f").c_str());
  if (!trace_path.empty()) {
    simulated_once(opt.root_seed, bench::g_replication_jitter, 1, trace_path);
    std::printf("    wrote Chrome trace of one observed pass to %s\n",
                trace_path.c_str());
  }

  // Migration-based rejuvenation (the paper's future work), replicated.
  enum { kTotalMin, kWorstDt };
  const auto mig_grid =
      exp::run_grid(opt.grid(1), [](const exp::ReplicationContext& ctx) {
        const MigrationRow r = migration_based_once(ctx.rng);
        exp::ReplicationResult out;
        out.values = {r.total_min, r.worst_downtime_s};
        return out;
      });
  const auto& mg = mig_grid.point(0);
  std::printf("\n  migration-based rejuvenation, measured (1 host + 1 spare, "
              "4 x 1 GiB VMs; %zu replications):\n", opt.reps);
  std::printf("    total procedure (evacuate + reboot + return): %s min\n",
              fmt_ci(mg.mean(kTotalMin), mg.ci95(kTotalMin), "%.1f").c_str());
  std::printf("    worst per-VM service downtime: %s s (stop-and-copy only "
              "-- vs 42 s warm, 241 s cold)\n",
              fmt_ci(mg.mean(kWorstDt), mg.ci95(kWorstDt), "%.2f").c_str());
  std::printf("    but a spare host was occupied the whole time: cluster "
              "capacity (m-1)p throughout.\n");
  return 0;
}
