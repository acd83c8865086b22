// The datacenter-scale fleet of fig9_cluster's scale mode, fig_crashscale
// and fig_scrape (DESIGN.md §12, §14, §15): H slim hosts behind S
// balancer shards (one partition each), a struct-of-arrays SessionFleet
// of closed-loop sessions, and a wave-based rolling rejuvenation in
// flight. Each bench keeps its own call order and digest suffix.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/session_fleet.hpp"
#include "simcore/hash.hpp"
#include "simcore/parallel.hpp"

namespace rh::bench {

inline constexpr int kFleetVmsPerHost = 2;

inline std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// A fleet bench's topology, window and sweep. The topology defaults are
/// the 1000-host runs'; each bench sets its own window, rates and output.
struct FleetOptions {
  int hosts = 1000;
  int shards = 8;
  int wave = 25;
  std::uint64_t sessions = 0;  ///< 0: 1100 per host (1.1 M at 1000 hosts)
  double sim_seconds = 0;
  double check_interval_s = 2.0;
  std::vector<double> rates{};
  std::size_t workers = 1;
  std::uint64_t seed = kLegacyBenchSeed;
  std::string out;

  /// The six flags of fig9_cluster's scale mode.
  Flags& bind_scale(Flags& f) {
    return f.integer("--hosts", hosts, 1)
        .integer("--shards", shards, 1)
        .integer("--wave", wave, 1)
        .integer("--sessions", sessions)
        .seconds("--sim-seconds", sim_seconds)
        .path("--out", out);
  }
  /// The ten flags fig_crashscale and fig_scrape share.
  Flags& bind(Flags& f) {
    return bind_scale(f)
        .seconds("--check-interval-s", check_interval_s)
        .values("--fault-rate", rates)
        .integer("--workers", workers, 1)
        .integer("--seed", seed);
  }

  [[nodiscard]] std::uint64_t session_count() const {
    return sessions != 0 ? sessions
                         : 1100ull * static_cast<std::uint64_t>(hosts);
  }

  /// Opens a BENCH JSON object with the fields every fleet JSON starts
  /// with; the caller writes the rest and closes it.
  void write_json_head(std::ostream& os, const char* benchmark) const {
    os << "{\n  \"benchmark\": \"" << benchmark << "\",\n  " << argv_json()
       << ",\n  \"hosts\": " << hosts << ",\n  \"shards\": " << shards
       << ",\n  \"wave_size\": " << wave
       << ",\n  \"vms_per_host\": " << kFleetVmsPerHost
       << ",\n  \"workers\": " << workers
       << ",\n  \"concurrent_sessions\": " << session_count()
       << ",\n  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n";
  }
};

/// What every fleet cell reports.
struct FleetCell {
  cluster::SessionFleet::Stats stats;  ///< default for an idle run
  cluster::Cluster::UnplannedReport unplanned;
  std::size_t waves_started = 0;
  std::size_t hosts_rejuvenated = 0;
  std::size_t admission_pauses = 0;
  std::size_t deferred_turns = 0;
  sim::Duration wave_planned_downtime = 0;
  std::uint64_t federated = 0;
  std::uint64_t rejected = 0;
  std::uint64_t crash_broadcasts = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t digest = 0;
  double wall = 0;

  /// Writes the cell as `"key": value` pairs joined by `sep`.
  void write_json(std::ostream& os, const char* sep) const {
    bool first = true;
    const auto field = [&](const char* key, const auto& value) {
      os << (first ? "" : sep) << '"' << key << "\": " << value;
      first = false;
    };
    field("pooled_availability", stats.pooled_availability);
    field("p99_availability", stats.availability_p99);
    field("p999_availability", stats.availability_p999);
    field("completions", stats.completions);
    field("failures", stats.failures);
    field("planned_downtime_us", stats.planned_downtime);
    field("unplanned_downtime_us", stats.unplanned_downtime);
    field("p99_session_downtime_us", stats.session_downtime.percentile(99.0));
    field("p999_session_downtime_us",
          stats.session_downtime.percentile(99.9));
    field("p99_request_latency_us", stats.request_latency.percentile(99.0));
    field("unplanned_failures", unplanned.failures);
    field("unplanned_absorbed", unplanned.absorbed);
    field("unplanned_recoveries", unplanned.recoveries);
    field("micro_recoveries", unplanned.micro_recoveries);
    field("unrecovered_hosts", unplanned.unrecovered);
    field("unplanned_in_flight", unplanned.in_flight);
    field("host_unplanned_downtime_us", unplanned.downtime);
    field("wave_planned_downtime_us", wave_planned_downtime);
    field("waves_started", waves_started);
    field("hosts_rejuvenated", hosts_rejuvenated);
    field("admission_pauses", admission_pauses);
    field("deferred_turns", deferred_turns);
    field("federated_dispatches", federated);
    field("rejected_dispatches", rejected);
    field("crash_broadcasts", crash_broadcasts);
    field("executed_events", executed_events);
    field("wall_seconds", wall);
    os << sep << "\"digest\": \"" << hex_digest(digest) << '"';
  }
};

/// The slim per-host footprint that lets 1000 hosts fit: small machines,
/// small VMs, little replicated content. The fleet measures control-plane
/// scaling, not per-host memory realism.
inline cluster::Cluster::Config slim_config(const FleetOptions& o, double rate,
                                            sim::ParallelSimulation& engine) {
  cluster::Cluster::Config cfg;
  cfg.hosts = o.hosts;
  cfg.vms_per_host = kFleetVmsPerHost;
  cfg.seed = o.seed;
  cfg.shards = o.shards;
  cfg.engine = &engine;
  cfg.calib.machine.ram = sim::kGiB;
  cfg.calib.dom0_memory = 256 * sim::kMiB;
  cfg.vm_memory = 128 * sim::kMiB;
  cfg.files_per_vm = 4;
  cfg.file_size = 32 * sim::kKiB;
  // A fatter lookahead (500 us one-way) keeps the window count -- and the
  // per-window barrier cost across 1000+ partitions -- affordable.
  cfg.calib.link.latency = 500 * sim::kMicrosecond;
  cfg.faults = steady_vmm_faults(rate);
  return cfg;
}

/// One fleet run: boot it, open the measurement window, start the waves,
/// close the window, then read its digest and cell.
struct FleetRun {
  /// A run with steady VMM faults at `rate` (see steady_vmm_faults) and,
  /// unless `idle`, the options' closed-loop sessions: 20 s + [0, 20 s)
  /// think time, 1 s retry, 250 ms tick.
  FleetRun(const FleetOptions& o, double rate, bool idle = false)
      : opt(o),
        engine({.partitions = 1 + o.shards + o.hosts, .workers = o.workers}),
        config(slim_config(o, rate, engine)),
        cl(engine.partition(0), config) {
    if (idle) return;
    cluster::SessionFleet::Config fc;
    fc.sessions = o.session_count();
    fc.think_base = 20 * sim::kSecond;
    fc.think_spread = 20 * sim::kSecond;
    fc.retry_interval = sim::kSecond;
    fc.tick = 250 * sim::kMillisecond;
    fleet = std::make_unique<cluster::SessionFleet>(*cl.sharded_balancer(), fc);
  }
  // The wave pass's completion callback holds `this`.
  FleetRun(const FleetRun&) = delete;
  FleetRun& operator=(const FleetRun&) = delete;

  /// Boots every host and VM, then starts the sessions.
  void boot() {
    bool ready = false;
    cl.start([&ready] { ready = true; });
    engine.run_while([&ready] { return !ready; });
    if (fleet != nullptr) fleet->start(engine);
  }

  /// Arms every host's steady fault process; each failure runs `ladder`.
  void start_steady_faults(const rejuv::SupervisorConfig& ladder) {
    cluster::Cluster::SteadyFaultsConfig sfc;
    sfc.process.check_interval = sim::from_seconds(opt.check_interval_s);
    sfc.supervisor = ladder;
    cl.start_steady_faults(sfc);
  }

  /// Runs `warmup_s` simulated seconds, then opens the sessions' window.
  void open_window(double warmup_s) {
    engine.run_until(engine.partition(0).now() + sim::from_seconds(warmup_s));
    window_start = engine.partition(0).now();
    if (fleet != nullptr) fleet->begin_window(window_start);
  }

  /// Starts the rolling pass: `wave` hosts per wave, every turn under
  /// `ladder`.
  void start_waves(const rejuv::SupervisorConfig& ladder,
                   cluster::Cluster::WaveSignalSource signals =
                       cluster::Cluster::WaveSignalSource::kWireTap) {
    cluster::Cluster::WaveConfig wc;
    wc.wave_size = opt.wave;
    wc.kind = ladder.preferred;
    wc.supervisor = ladder;
    wc.signals = signals;
    engine.run_on(0, [this, wc] {
      cl.rolling_rejuvenation_waves(
          wc, [this](const cluster::Cluster::WaveReport&) {
            waves_done = true;
          });
    });
  }

  /// Runs to the end of the `sim_seconds` window.
  void close_window() {
    engine.run_until(window_start + sim::from_seconds(opt.sim_seconds));
    window_end = engine.partition(0).now();
    wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
               .count();
  }

  /// What every fleet digest starts with: each partition's clock and
  /// executed events, then the sessions' and the balancer's state.
  [[nodiscard]] std::uint64_t digest_prefix() {
    std::uint64_t d = 0;
    for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
      sim::hash_mix(d, static_cast<std::uint64_t>(engine.partition(p).now()));
      sim::hash_mix(d, engine.partition(p).executed_events());
    }
    if (fleet != nullptr) sim::hash_mix(d, fleet->state_digest());
    sim::hash_mix(d, cl.sharded_balancer()->state_digest());
    return d;
  }

  /// Mixes the rolling pass into `d`: each wave's start, end and hosts,
  /// then every host's rejuvenation duration.
  void mix_waves(std::uint64_t& d) const {
    for (const auto& w : cl.last_wave_report().waves) {
      sim::hash_mix(d, static_cast<std::uint64_t>(w.started));
      sim::hash_mix(d, static_cast<std::uint64_t>(w.finished));
      for (const auto h : w.hosts) sim::hash_mix(d, h);
    }
    for (const auto dur : cl.rejuvenation_durations()) {
      sim::hash_mix(d, static_cast<std::uint64_t>(dur));
    }
  }

  /// What the run measured, with the digest the bench composed.
  [[nodiscard]] FleetCell cell(std::uint64_t digest) {
    FleetCell c;
    if (fleet != nullptr) c.stats = fleet->stats(window_end);
    c.unplanned = cl.unplanned_report();
    const auto& waves = cl.last_wave_report();
    c.waves_started = waves.waves.size();
    c.hosts_rejuvenated = cl.rejuvenation_durations().size();
    c.admission_pauses = waves.admission_pauses;
    c.deferred_turns = waves.deferred_turns;
    c.wave_planned_downtime = waves.planned_downtime;
    c.federated = cl.sharded_balancer()->federated();
    c.rejected = cl.sharded_balancer()->rejected();
    c.crash_broadcasts = cl.sharded_balancer()->crash_broadcasts();
    c.executed_events = engine.total_executed_events();
    c.digest = digest;
    c.wall = wall;
    return c;
  }

  const FleetOptions& opt;
  const std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  sim::ParallelSimulation engine;
  const cluster::Cluster::Config config;
  cluster::Cluster cl;
  std::unique_ptr<cluster::SessionFleet> fleet;  ///< null for an idle run
  sim::SimTime window_start = 0;
  sim::SimTime window_end = 0;
  double wall = 0;  ///< seconds from building the run to closing its window
  bool waves_done = false;
};

}  // namespace rh::bench
