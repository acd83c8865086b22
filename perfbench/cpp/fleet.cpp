#include "fleet.hpp"

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "cluster/session_fleet.hpp"
#include "simcore/parallel.hpp"

namespace perfbench {

namespace {

using namespace rh;
using Clock = Tracer::Clock;

constexpr int kShards = 8;
constexpr std::uint64_t kSessionsPerHost = 1100;
/// Warm rolling waves take 25 of every 1000 hosts at a time (at least 1).
constexpr int kWavePerThousandHosts = 25;
/// Full set-ups per run, timed for setup_s (the median); the last one is
/// measured.
constexpr int kSetups = 3;
constexpr double kWarmupS = 2.0;
/// fig_scrape's rate-0.4 cell: crashes at 0.4, hangs at half that, a 2 s
/// check interval. It scrapes every 5 s; here every 2 s, so that every
/// check interval of the measured window holds a scrape round with its
/// timeouts.
constexpr double kCrashRate = 0.4;
constexpr double kCheckIntervalS = 2.0;
constexpr double kScrapeIntervalS = 2.0;
/// fleet_crash's measured set-up runs this much longer before
/// begin_window. Every host's first fault check falls exactly one check
/// interval after arming, so at first all hosts roll crash/hang in
/// lockstep; a host's check phase moves only when a fault strikes it and
/// its ladder ends. Several check intervals and ladder lengths spread the
/// phases, so the window measures the steady stream of faults, not
/// start-up bursts. Only the measured set-up settles; setup_s leaves
/// settling out (it is setup.settle_s).
constexpr double kSettleS = 10.0;
/// The measured fleet runs on one engine worker. On a shared 4-vCPU box,
/// barrier-synchronised windows at 4 workers swing 10-15 % between
/// processes (one descheduled worker stalls every barrier); one worker
/// measures the single-core work per simulated second, and the parallel
/// engine is exercised by the digest self-check instead.
constexpr std::size_t kMeasuredWorkers = 1;
/// The measured window is a fixed simulated span, sized in simulated
/// seconds per --seconds (fleet_steady runs ~10 simulated s per CPU
/// second on a 4-core box and measures 12 per --seconds, so its short
/// window averages over more of the box's noise; fleet_crash runs ~0.3 and
/// measures 0.6, so the window holds several check intervals): the work,
/// every count and the digest are then fixed for a seed, and only CPU time
/// varies between runs. Sliced into fixed simulated-time slices.
constexpr double kSteadyWindowSimS = 12.0;
constexpr double kCrashWindowSimS = 0.6;
constexpr double kSteadySliceS = 1.0;
constexpr double kCrashSliceS = 0.25;
/// The digest self-check runs the workload on at most this many hosts for
/// kCheckSimS simulated seconds after warm-up.
constexpr int kCheckHosts = 40;
constexpr double kCheckSimS = 10.0;

/// One fully set-up fleet. Members destroy in reverse order: the fleet
/// and cluster before the engine they schedule on.
struct Rig {
  std::unique_ptr<sim::ParallelSimulation> engine;
  std::unique_ptr<cluster::Cluster> cl;
  std::unique_ptr<cluster::SessionFleet> fleet;
  rejuv::SupervisorConfig supervisor;
  sim::SimTime window_start = 0;
};

/// CPU seconds of each set-up phase.
struct SetupTimes {
  double total_s = 0;  ///< construction .. end of warm-up
  double build_s = 0;
  double boot_s = 0;
  double arm_s = 0;
  double settle_s = 0;
  std::uint64_t boot_events = 0;
  double rss_after_build_mb = 0;
  double rss_after_boot_mb = 0;
};

void run_for(Rig& rig, double sim_s) {
  rig.engine->run_until(rig.engine->partition(0).now() +
                        sim::from_seconds(sim_s));
}

/// Engine construction .. begin_window, each phase a span around the
/// public calls that make it up. `settle_s` simulated seconds run after
/// the warm-up, outside setup_s.
std::unique_ptr<Rig> set_up(const FleetOptions& o, double settle_s,
                            Tracer& tracer, SetupTimes& t) {
  Scope setup(tracer, "setup");
  auto rig = std::make_unique<Rig>();
  const double t0 = cpu_s();
  {
    Scope span(tracer, "cluster.build");
    rig->engine = std::make_unique<sim::ParallelSimulation>(
        sim::ParallelSimulation::Config{.partitions = 1 + kShards + o.hosts,
                                        .workers = o.workers});
    cluster::Cluster::Config cfg;
    cfg.hosts = o.hosts;
    cfg.vms_per_host = 2;
    cfg.seed = o.seed;
    cfg.shards = kShards;
    cfg.engine = rig->engine.get();
    // fig9's slim 1 GiB-host calibration (as fig_crashscale/fig_scrape).
    cfg.calib.machine.ram = sim::kGiB;
    cfg.calib.dom0_memory = 256 * sim::kMiB;
    cfg.vm_memory = 128 * sim::kMiB;
    cfg.files_per_vm = 4;
    cfg.file_size = 32 * sim::kKiB;
    cfg.calib.link.latency = 500 * sim::kMicrosecond;
    if (o.crash) {
      cfg.faults.vmm_crash_rate = kCrashRate;
      cfg.faults.vmm_hang_rate = kCrashRate / 2.0;
    }
    rig->cl = std::make_unique<cluster::Cluster>(rig->engine->partition(0), cfg);
    cluster::SessionFleet::Config fc;
    fc.sessions = kSessionsPerHost * static_cast<std::uint64_t>(o.hosts);
    fc.think_base = 20 * sim::kSecond;
    fc.think_spread = 20 * sim::kSecond;
    fc.retry_interval = sim::kSecond;
    fc.tick = 250 * sim::kMillisecond;
    rig->fleet = std::make_unique<cluster::SessionFleet>(
        *rig->cl->sharded_balancer(), fc);
  }
  t.build_s = cpu_s() - t0;
  t.rss_after_build_mb = rss_mb();

  const double t_boot = cpu_s();
  {
    Scope span(tracer, "cluster.boot");
    bool ready = false;
    rig->cl->start([&ready] { ready = true; });
    rig->engine->run_while([&ready] { return !ready; });
  }
  t.boot_s = cpu_s() - t_boot;
  t.boot_events = rig->engine->total_executed_events();
  t.rss_after_boot_mb = rss_mb();

  const double t_arm = cpu_s();
  {
    Scope span(tracer, "fleet.start");
    rig->fleet->start(*rig->engine);
  }
  // The micro ladder (ReHype's 0.85 recovery rate) serves both the waves
  // and the unplanned supervisor.
  rig->supervisor.preferred = rejuv::RebootKind::kWarm;
  rig->supervisor.micro.enabled = true;
  rig->supervisor.micro.success_rate = 0.85;
  if (o.crash) {
    {
      Scope span(tracer, "faults.arm");
      cluster::Cluster::SteadyFaultsConfig sfc;
      sfc.process.check_interval = sim::from_seconds(kCheckIntervalS);
      sfc.supervisor = rig->supervisor;
      rig->cl->start_steady_faults(sfc);
    }
    Scope span(tracer, "scrape.arm");
    cluster::Cluster::ScrapeConfig sc;
    sc.interval = sim::from_seconds(kScrapeIntervalS);
    sc.timeout = std::min<sim::Duration>(2 * sim::kSecond, sc.interval / 2);
    sc.slo.pause_burn_rate = 8.0;  // fig_scrape's gate threshold
    rig->cl->start_scraping(sc);
  }
  t.arm_s = cpu_s() - t_arm;

  {
    Scope span(tracer, "warmup");
    run_for(*rig, kWarmupS);
  }
  t.total_s = cpu_s() - t0;
  if (settle_s > 0) {
    Scope span(tracer, "settle");
    const double t_settle = cpu_s();
    run_for(*rig, settle_s);
    t.settle_s = cpu_s() - t_settle;
  }
  rig->window_start = rig->engine->partition(0).now();
  rig->fleet->begin_window(rig->window_start);
  return rig;
}

void start_waves(Rig& rig, const FleetOptions& o) {
  cluster::Cluster::WaveConfig wc;
  wc.wave_size = std::max(1, kWavePerThousandHosts * o.hosts / 1000);
  wc.kind = rejuv::RebootKind::kWarm;
  wc.supervisor = rig.supervisor;
  if (o.crash) wc.signals = cluster::Cluster::WaveSignalSource::kScraped;
  cluster::Cluster* cl = rig.cl.get();
  rig.engine->run_on(0, [cl, wc] {
    cl->rolling_rejuvenation_waves(wc,
                                   [](const cluster::Cluster::WaveReport&) {});
  });
}

/// Public counters of every layer, read while the engine is quiescent.
/// Partition classes: 0 control plane, 1..S balancer shards, S+1.. hosts.
struct Counters {
  std::uint64_t events_control = 0;
  std::uint64_t events_shard = 0;
  std::uint64_t events_host = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t federated = 0;
  std::uint64_t rejected = 0;
  std::uint64_t crash_broadcasts = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t scrapes = 0;
  [[nodiscard]] std::uint64_t events() const {
    return events_control + events_shard + events_host;
  }
  Counters operator-(const Counters& b) const {
    return {events_control - b.events_control, events_shard - b.events_shard,
            events_host - b.events_host,       windows - b.windows,
            messages - b.messages,             dispatched - b.dispatched,
            federated - b.federated,           rejected - b.rejected,
            crash_broadcasts - b.crash_broadcasts,
            recoveries - b.recoveries,         scrapes - b.scrapes};
  }
};

Counters read_counters(Rig& rig) {
  Counters c;
  const auto shards =
      static_cast<std::int32_t>(rig.cl->sharded_balancer()->shard_count());
  for (std::int32_t p = 0; p < rig.engine->partition_count(); ++p) {
    const std::uint64_t ev = rig.engine->partition(p).executed_events();
    (p == 0 ? c.events_control : p <= shards ? c.events_shard : c.events_host) +=
        ev;
  }
  c.windows = rig.engine->windows_executed();
  c.messages = rig.engine->messages_routed();
  const cluster::ShardedBalancer& lb = *rig.cl->sharded_balancer();
  c.dispatched = lb.dispatched();
  c.federated = lb.federated();
  c.rejected = lb.rejected();
  c.crash_broadcasts = lb.crash_broadcasts();
  c.recoveries = rig.cl->unplanned_report().recoveries;
  if (const cluster::MetricsScraper* sc = rig.cl->scraper()) {
    c.scrapes = sc->stats().scrapes_ok + sc->stats().scrapes_failed;
  }
  return c;
}

/// fig_crashscale's cell digest, plus MetricsScraper::state_digest when
/// the telemetry plane is armed.
std::uint64_t fleet_digest(Rig& rig) {
  std::uint64_t d = 0;
  sim::ParallelSimulation& engine = *rig.engine;
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    mix(d, static_cast<std::uint64_t>(engine.partition(p).now()));
    mix(d, engine.partition(p).executed_events());
  }
  mix(d, rig.fleet->state_digest());
  mix(d, rig.cl->sharded_balancer()->state_digest());
  const auto& u = rig.cl->unplanned_report();
  mix(d, u.failures);
  mix(d, u.absorbed);
  mix(d, u.recoveries);
  mix(d, u.micro_recoveries);
  mix(d, u.unrecovered);
  mix(d, static_cast<std::uint64_t>(u.downtime));
  for (const auto& w : rig.cl->last_wave_report().waves) {
    mix(d, static_cast<std::uint64_t>(w.started));
    mix(d, static_cast<std::uint64_t>(w.finished));
    for (const auto h : w.hosts) mix(d, h);
  }
  for (const auto dur : rig.cl->rejuvenation_durations()) {
    mix(d, static_cast<std::uint64_t>(dur));
  }
  if (const cluster::MetricsScraper* sc = rig.cl->scraper()) {
    mix(d, sc->state_digest());
  }
  mix(d, engine.messages_routed());
  return d;
}

double slice_s(const FleetOptions& o) {
  return o.crash ? kCrashSliceS : kSteadySliceS;
}

/// Whole slices in the measured window (at least 3).
int window_slices(const FleetOptions& o) {
  const double span =
      o.seconds * (o.crash ? kCrashWindowSimS : kSteadyWindowSimS);
  return std::max(3, static_cast<int>(span / slice_s(o) + 0.5));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything the fleet layers report, read from outside. A
/// value-initialised instance is a workload that never ran a fleet.
struct FleetLayers {
  Counters delta;  ///< measured-window deltas
  double us_per_window = 0;
  double slice_ms_p50 = 0;
  double slice_ms_p90 = 0;
  std::size_t slices = 0;
  std::uint64_t sessions = 0;
  cluster::SessionFleet::Stats stats;
  std::size_t waves_started = 0;
  std::size_t hosts_rejuvenated = 0;
  std::size_t admission_pauses = 0;
  std::size_t deferred_turns = 0;
  cluster::Cluster::UnplannedReport unplanned;
  cluster::MetricsScraper::Stats scrape;
  double detection_p99_us = 0;
  double dark_hosts = 0;
  SetupTimes setup;  ///< per-phase medians; RSS of the first set-up
};

void report_layers(Report& r, const FleetLayers& m) {
  const Counters& d = m.delta;
  r.metric("simcore.events_control", double(d.events_control), "count");
  r.metric("simcore.events_shard", double(d.events_shard), "count");
  r.metric("simcore.events_host", double(d.events_host), "count");
  r.metric("engine.windows", double(d.windows), "count");
  r.metric("engine.messages", double(d.messages), "count");
  r.metric("engine.events_per_window",
           ratio(double(d.events()), double(d.windows)), "count");
  r.metric("engine.messages_per_window",
           ratio(double(d.messages), double(d.windows)), "count");
  r.metric("engine.us_per_window", m.us_per_window, "us");
  r.metric("engine.slice_ms_p50", m.slice_ms_p50, "ms");
  r.metric("engine.slice_ms_p90", m.slice_ms_p90, "ms");
  r.metric("engine.slices", double(m.slices), "count");

  const auto& s = m.stats;
  const std::uint64_t requests = s.completions + s.failures;
  r.metric("fleet.sessions", double(m.sessions), "count");
  r.metric("fleet.completions", double(s.completions), "count");
  r.metric("fleet.failures", double(s.failures), "count");
  r.metric("fleet.requests", double(requests), "count");
  // Session identity over the window: dispatched - (completions +
  // failures). Printed as is; requests in flight at either edge of the
  // window make it non-zero without anything being lost.
  r.metric("fleet.identity_gap", double(d.dispatched) - double(requests),
           "count");
  r.metric("fleet.request_latency_p50_us",
           double(s.request_latency.percentile(50)), "us");
  r.metric("fleet.request_latency_p99_us",
           double(s.request_latency.percentile(99)), "us");
  r.metric("fleet.p99_availability", m.sessions > 0 ? s.availability_p99 : 0,
           "ratio");
  r.metric("balancer.dispatched", double(d.dispatched), "count");
  r.metric("balancer.federated", double(d.federated), "count");
  r.metric("balancer.rejected", double(d.rejected), "count");
  r.metric("balancer.crash_broadcasts", double(d.crash_broadcasts), "count");
  r.metric("waves.started", double(m.waves_started), "count");
  r.metric("waves.hosts_rejuvenated", double(m.hosts_rejuvenated), "count");
  r.metric("waves.admission_pauses", double(m.admission_pauses), "count");
  r.metric("waves.deferred_turns", double(m.deferred_turns), "count");

  // Totals since the faults were armed (ladders straddle the window).
  const auto& u = m.unplanned;
  r.metric("rejuv.unplanned_failures", double(u.failures), "count");
  r.metric("rejuv.absorbed", double(u.absorbed), "count");
  r.metric("rejuv.recoveries", double(u.recoveries), "count");
  r.metric("rejuv.micro_recoveries", double(u.micro_recoveries), "count");
  r.metric("rejuv.unrecovered", double(u.unrecovered), "count");
  r.metric("rejuv.unaccounted",
           double(u.failures) - double(u.absorbed) - double(u.recoveries) -
               double(u.unrecovered),
           "count");
  r.metric("rejuv.recovery_ratio",
           ratio(double(u.recoveries), double(u.failures)), "ratio");

  const auto& sc = m.scrape;
  r.metric("scrape.rounds", double(sc.rounds_started), "count");
  r.metric("scrape.ok", double(sc.scrapes_ok), "count");
  r.metric("scrape.failed", double(sc.scrapes_failed), "count");
  r.metric("scrape.ok_ratio",
           ratio(double(sc.scrapes_ok),
                 double(sc.scrapes_ok + sc.scrapes_failed)),
           "ratio");
  r.metric("scrape.bytes", double(sc.bytes_transferred), "B");
  r.metric("scrape.detections", double(sc.detections), "count");
  r.metric("scrape.detection_p99_us", m.detection_p99_us, "us");
  r.metric("scrape.dark_hosts", m.dark_hosts, "count");

  r.metric("setup.build_s", m.setup.build_s, "s");
  r.metric("setup.boot_s", m.setup.boot_s, "s");
  r.metric("setup.boot_events", double(m.setup.boot_events), "count");
  r.metric("setup.arm_s", m.setup.arm_s, "s");
  r.metric("setup.settle_s", m.setup.settle_s, "s");
  r.metric("setup.rss_after_build_mb", m.setup.rss_after_build_mb, "MB");
  r.metric("setup.rss_after_boot_mb", m.setup.rss_after_boot_mb, "MB");
}

/// CPU and wall time, simulated span and digest of a measured window.
struct Window {
  double cpu_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t digest = 0;
};

/// Kicks the waves at begin_window and runs `slices` fixed simulated-time
/// slices, reading every layer's counters at each slice boundary; fills
/// `m` with the window's layer numbers.
Window measure(Rig& rig, const FleetOptions& o, int slices, Tracer& tracer,
               FleetLayers& m) {
  Window w;
  std::vector<double> slice_ms;
  std::vector<double> us_per_window;
  const Counters c0 = read_counters(rig);
  start_waves(rig, o);
  sim::SimTime t = rig.window_start;
  const double cpu0 = cpu_s();
  const auto wall0 = Clock::now();
  {
    Scope measure(tracer, "measure");
    Counters prev = c0;
    for (int i = 1; i <= slices; ++i) {
      Scope span(tracer, "engine.slice");
      const double s0 = cpu_s();
      t = rig.window_start + sim::from_seconds(i * slice_s(o));
      rig.engine->run_until(t);
      const double ms = (cpu_s() - s0) * 1e3;
      const Counters now = read_counters(rig);
      const Counters d = now - prev;
      slice_ms.push_back(ms);
      us_per_window.push_back(ratio(ms * 1e3, double(d.windows)));
      if (tracer.enabled()) {
        const int id = span.id();
        tracer.counter(id, "events", double(d.events()));
        tracer.counter(id, "events_control", double(d.events_control));
        tracer.counter(id, "events_shard", double(d.events_shard));
        tracer.counter(id, "events_host", double(d.events_host));
        tracer.counter(id, "windows", double(d.windows));
        tracer.counter(id, "messages", double(d.messages));
        tracer.counter(id, "dispatched", double(d.dispatched));
        tracer.counter(id, "crash_broadcasts", double(d.crash_broadcasts));
        tracer.counter(id, "recoveries", double(d.recoveries));
        tracer.counter(id, "scrapes", double(d.scrapes));
      }
      prev = now;
    }
  }
  w.cpu_s = cpu_s() - cpu0;
  w.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  w.sim_s = sim::to_seconds(t - rig.window_start);
  m.delta = read_counters(rig) - c0;
  {
    Scope span(tracer, "fleet.stats");
    m.stats = rig.fleet->stats(t);
  }
  {
    Scope span(tracer, "digest");
    w.digest = fleet_digest(rig);
  }
  m.us_per_window = median(us_per_window);
  m.slice_ms_p50 = percentile(slice_ms, 50);
  m.slice_ms_p90 = percentile(slice_ms, 90);
  m.slices = slice_ms.size();
  m.sessions = rig.fleet->session_count();
  const cluster::Cluster& cl = *rig.cl;
  m.waves_started = cl.last_wave_report().waves.size();
  m.hosts_rejuvenated = cl.rejuvenation_durations().size();
  m.admission_pauses = cl.last_wave_report().admission_pauses;
  m.deferred_turns = cl.last_wave_report().deferred_turns;
  m.unplanned = cl.unplanned_report();
  if (const cluster::MetricsScraper* sc = rig.cl->scraper()) {
    m.scrape = sc->stats();
    m.detection_p99_us = double(sc->detection_latency().percentile(99));
    m.dark_hosts = double(sc->slo().dark_hosts());
  }
  return w;
}

/// The same workload on a small topology at `workers` engine workers for
/// a fixed simulated span, set up and measured exactly like the measured
/// fleet (without settling).
Window check_run(const FleetOptions& o, std::size_t workers, Tracer& tracer) {
  FleetOptions small = o;
  small.hosts = std::min(o.hosts, kCheckHosts);
  small.workers = workers;
  SetupTimes ignored;
  FleetLayers layers;
  const auto rig = set_up(small, 0.0, tracer, ignored);
  return measure(*rig, small, static_cast<int>(kCheckSimS / slice_s(o) + 0.5),
                 tracer, layers);
}

}  // namespace

void report_fleet_layers_idle(Report& report) {
  report_layers(report, FleetLayers{});
}

FleetOutcome run_fleet(const FleetOptions& o, Tracer& tracer, Report& report) {
  FleetOptions measured = o;
  measured.workers = kMeasuredWorkers;
  std::vector<SetupTimes> setups(kSetups);
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetups; ++i) {
    // One fleet in memory at a time, its freed pages handed back to the
    // kernel so every set-up (and the peak RSS) starts from the same heap.
    rig.reset();
    malloc_trim(0);
    const bool last = i + 1 == kSetups;
    rig = set_up(measured, last && o.crash ? kSettleS : 0.0, tracer,
                 setups[static_cast<std::size_t>(i)]);
  }
  const auto phase = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };
  FleetLayers m;
  // Later set-ups start on a heap the earlier fleets churned, so the RSS
  // and event counts come from the first; only the last one settles.
  m.setup = setups.front();
  m.setup.total_s = phase(&SetupTimes::total_s);
  m.setup.build_s = phase(&SetupTimes::build_s);
  m.setup.boot_s = phase(&SetupTimes::boot_s);
  m.setup.arm_s = phase(&SetupTimes::arm_s);
  m.setup.settle_s = setups.back().settle_s;
  const Window w = measure(*rig, measured, window_slices(o), tracer, m);
  rig.reset();  // the check topologies must not share memory with the fleet
  FleetOutcome out;
  out.digest = w.digest;
  out.requests = m.stats.completions + m.stats.failures;

  // ------------------------------------------------- metrics
  report.metric("setup_s", m.setup.total_s, "s");
  report.metric("sim_s_per_s", w.sim_s / w.cpu_s, "sim_s/s");
  // Host rejuvenations completed in the window: planned wave turns plus
  // unplanned ladders that brought their host back.
  report.metric("reboots_per_s",
                double(m.hosts_rejuvenated + m.delta.recoveries) / w.cpu_s,
                "1/s");
  report.metric("simcore.events", double(m.delta.events()), "count");
  report.metric("simcore.events_per_s", double(m.delta.events()) / w.cpu_s,
                "1/s");
  report.metric("run.sim_s", w.sim_s, "s");
  report.metric("run.cpu_s", w.cpu_s, "s");
  report.metric("run.wall_s", w.wall_s, "s");
  report_layers(report, m);

  // ------------------------------------------------- self-checks
  const auto& s = m.stats;
  char buf[224];
  std::snprintf(buf, sizeof buf,
                "completions %llu, failures %llu, p99 availability %.6f",
                static_cast<unsigned long long>(s.completions),
                static_cast<unsigned long long>(s.failures),
                s.availability_p99);
  report.check("fleet.served",
               s.completions > 0 && s.availability_p99 >= 0.0 &&
                   s.availability_p99 <= 1.0,
               buf);
  if (o.crash) {
    std::snprintf(buf, sizeof buf,
                  "failures %llu, recoveries %llu, scrapes ok %llu",
                  static_cast<unsigned long long>(m.unplanned.failures),
                  static_cast<unsigned long long>(m.unplanned.recoveries),
                  static_cast<unsigned long long>(m.scrape.scrapes_ok));
    report.check("fleet.faults_exercised",
                 m.unplanned.failures > 0 && m.unplanned.recoveries > 0 &&
                     m.scrape.scrapes_ok > 0,
                 buf);
  }
  // Two one-worker runs of the same work, the second traced when this run
  // is: equal digests show the run repeats, and their CPU times give the
  // tracing overhead.
  Tracer off(false);
  const Window one = check_run(o, 1, off);
  Window again;
  {
    Scope span(tracer, "check.traced");
    again = check_run(o, 1, tracer);
  }
  const Window many = check_run(o, o.workers, off);
  report.metric("trace.overhead_pct",
                tracer.enabled() ? (again.cpu_s / one.cpu_s - 1.0) * 100.0 : 0.0,
                "%");
  std::snprintf(buf, sizeof buf,
                "%d hosts, %.0f sim-s: 1 worker %s, again %s, %zu workers %s",
                std::min(o.hosts, kCheckHosts), kCheckSimS,
                hex(one.digest).c_str(), hex(again.digest).c_str(), o.workers,
                hex(many.digest).c_str());
  report.check("fleet.digest_workers",
               one.digest == again.digest && one.digest == many.digest, buf);
  return out;
}

}  // namespace perfbench
