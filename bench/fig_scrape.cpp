// Scraped-like-production telemetry plane at datacenter scale: what does
// it cost to run the control plane off scraped metrics instead of the
// simulator's omniscient wire-tap, and how fast does scraping *see*
// failures?
//
// For each steady fault rate the fig9-scale scenario (H slim hosts
// behind S balancer shards, a closed-loop SessionFleet, wave-based
// rolling rejuvenation with the micro-recovery ladder) runs once as a
// *baseline* -- scraping off, waves ordered from the wire-tap -- and
// once per scrape interval with the full telemetry plane on: per-host
// /metrics exporters answering over the simulated links, the control
// scraper paying latency both ways and timing out on dead hosts, waves
// ordered from the scraped TimeSeriesStore alone, and the SLO evaluator
// pausing admission on burn rate. Every cell prints a
// worker-count-invariant digest; CI diffs the aggregate across
// --workers 1 vs 4.
//
// Reported per cell: scrape plane overhead (executed simulation events
// vs the baseline -- deterministic -- plus wall clock, informational),
// scrape bandwidth, detection latency percentiles (dark transition vs
// the watchdog's ground truth), dark hosts, SLO admission pauses, and
// at fault rate 0 the wave-order fidelity (positional agreement of the
// scraped-signal wave sequence with the wire-tap baseline's).
//
// Writes BENCH_scrape.json; the regression gate tracks inverted ratios
// of `detection_latency_p99_us` and `event_overhead_pct` (see
// check_regression.py). Unrecovered hosts get their telemetry dumped by
// the flight recorder into a sidecar JSON artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "cluster/metrics_scraper.hpp"
#include "cluster/session_fleet.hpp"
#include "simcore/hash.hpp"
#include "simcore/parallel.hpp"

namespace {

using namespace rh;

struct Options {
  int hosts = 1000;
  int shards = 8;
  int wave = 25;
  int vms_per_host = 2;
  std::uint64_t sessions = 0;  ///< 0: 1100 per host
  double sim_seconds = 60.0;
  double check_interval_s = 2.0;
  std::vector<double> rates = {0.0, 0.4};
  std::vector<double> intervals_s = {5.0, 15.0};
  std::size_t workers = 1;
  std::uint64_t seed = rh::bench::kLegacyBenchSeed;
  std::size_t max_flight_records = 3;
  std::string out = "BENCH_scrape.json";
  std::string flight_out = "BENCH_scrape_flight.json";
};

struct Cell {
  double rate = 0;
  double interval_s = 0;  ///< 0: baseline, scraping off
  cluster::SessionFleet::Stats stats;
  cluster::Cluster::UnplannedReport unplanned;
  std::size_t waves_started = 0;
  std::size_t hosts_rejuvenated = 0;
  std::size_t admission_pauses = 0;
  std::vector<std::vector<std::size_t>> waves;  ///< host picks per wave
  // Scraped cells only:
  cluster::MetricsScraper::Stats scrape;
  double detection_p50_us = 0;
  double detection_p99_us = 0;
  std::size_t dark_hosts = 0;
  double burn_rate = 0;
  std::size_t flight_records = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t digest = 0;
  double wall = 0;
};

/// One full scale run. interval_s == 0: baseline, scraping off. idle:
/// no session fleet at all -- used for the exact wave-order fidelity
/// pair, where the only difference between baseline and scraped must be
/// the signal path, not fleet noise.
Cell run_cell(const Options& o, double rate, double interval_s,
              std::vector<std::string>* flight_dumps, bool idle = false) {
  const auto wall_start = std::chrono::steady_clock::now();
  const bool scraped = interval_s > 0;
  sim::ParallelSimulation engine(
      {.partitions = 1 + o.shards + o.hosts, .workers = o.workers});
  cluster::Cluster::Config cfg;
  cfg.hosts = o.hosts;
  cfg.vms_per_host = o.vms_per_host;
  cfg.seed = o.seed;
  cfg.shards = o.shards;
  cfg.engine = &engine;
  // Same slim per-host calibration as fig_crashscale, so the baseline
  // cells measure the identical wire-tap scenario.
  cfg.calib.machine.ram = sim::kGiB;
  cfg.calib.dom0_memory = 256 * sim::kMiB;
  cfg.vm_memory = 128 * sim::kMiB;
  cfg.files_per_vm = 4;
  cfg.file_size = 32 * sim::kKiB;
  cfg.calib.link.latency = 500 * sim::kMicrosecond;
  cfg.faults.vmm_crash_rate = rate;
  cfg.faults.vmm_hang_rate = rate / 2.0;
  cluster::Cluster cl(engine.partition(0), cfg);

  std::unique_ptr<cluster::SessionFleet> fleet;
  if (!idle) {
    const std::uint64_t sessions =
        o.sessions != 0 ? o.sessions
                        : 1100ull * static_cast<std::uint64_t>(o.hosts);
    cluster::SessionFleet::Config fc;
    fc.sessions = sessions;
    fc.think_base = 20 * sim::kSecond;
    fc.think_spread = 20 * sim::kSecond;
    fc.retry_interval = sim::kSecond;
    fc.tick = 250 * sim::kMillisecond;
    fleet = std::make_unique<cluster::SessionFleet>(*cl.sharded_balancer(),
                                                    fc);
  }

  bool ready = false;
  cl.start([&ready] { ready = true; });
  engine.run_while([&ready] { return !ready; });
  if (fleet != nullptr) fleet->start(engine);

  rejuv::SupervisorConfig scfg;
  scfg.preferred = rejuv::RebootKind::kWarm;
  scfg.micro.enabled = true;
  scfg.micro.success_rate = 0.85;  // ReHype's reported recovery rate
  if (rate > 0) {
    cluster::Cluster::SteadyFaultsConfig sfc;
    sfc.process.check_interval = sim::from_seconds(o.check_interval_s);
    sfc.supervisor = scfg;
    cl.start_steady_faults(sfc);
  }
  if (scraped) {
    cluster::Cluster::ScrapeConfig sc;
    sc.interval = sim::from_seconds(interval_s);
    sc.timeout = std::min<sim::Duration>(2 * sim::kSecond, sc.interval / 2);
    // The pass's own planned downtime (wave/hosts of the fleet missing
    // scrapes at any instant) must sit below the pause threshold, or the
    // gate would freeze planned maintenance on its own shadow; 8x the
    // error budget is above any sane wave fraction but well below a
    // fault storm's miss rate.
    sc.slo.pause_burn_rate = 8.0;
    // The idle fidelity pair isolates the signal path: gating off so a
    // pause can't desynchronise the wave sequences being compared.
    if (idle) sc.gate_admission = false;
    cl.start_scraping(sc);
  }

  // Warm up past the longest scrape interval so every cell's wave pass
  // starts at the same sim time with a populated TSDB (the baseline
  // shares the warmup so wave orders are comparable).
  double warmup_s = 2.0;
  for (const double is : o.intervals_s) {
    warmup_s = std::max(warmup_s, is + 1.0);
  }
  engine.run_until(engine.partition(0).now() + sim::from_seconds(warmup_s));
  const sim::SimTime meas_start = engine.partition(0).now();
  if (fleet != nullptr) fleet->begin_window(meas_start);

  cluster::Cluster::WaveConfig wc;
  wc.wave_size = o.wave;
  wc.kind = rejuv::RebootKind::kWarm;
  wc.supervisor = scfg;
  if (scraped) {
    wc.signals = cluster::Cluster::WaveSignalSource::kScraped;
  }
  engine.run_on(0, [&cl, wc] {
    cl.rolling_rejuvenation_waves(
        wc, [](const cluster::Cluster::WaveReport&) {});
  });
  engine.run_until(meas_start + sim::from_seconds(o.sim_seconds));
  const sim::SimTime meas_end = engine.partition(0).now();

  Cell cell;
  cell.rate = rate;
  cell.interval_s = interval_s;
  if (fleet != nullptr) cell.stats = fleet->stats(meas_end);
  cell.unplanned = cl.unplanned_report();
  const auto& waves = cl.last_wave_report();
  cell.waves_started = waves.waves.size();
  cell.hosts_rejuvenated = cl.rejuvenation_durations().size();
  cell.admission_pauses = waves.admission_pauses;
  for (const auto& w : waves.waves) {
    cell.waves.emplace_back(w.hosts.begin(), w.hosts.end());
  }

  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) { sim::hash_mix(digest, v); };
  for (std::int32_t p = 0; p < engine.partition_count(); ++p) {
    mix(static_cast<std::uint64_t>(engine.partition(p).now()));
    mix(engine.partition(p).executed_events());
    cell.executed_events += engine.partition(p).executed_events();
  }
  if (fleet != nullptr) mix(fleet->state_digest());
  mix(cl.sharded_balancer()->state_digest());
  mix(cell.unplanned.failures);
  mix(cell.unplanned.recoveries);
  mix(cell.unplanned.unrecovered);
  for (const auto& w : waves.waves) {
    mix(static_cast<std::uint64_t>(w.started));
    for (const auto h : w.hosts) mix(h);
  }

  if (scraped) {
    const cluster::MetricsScraper& sc = *cl.scraper();
    cell.scrape = sc.stats();
    cell.detection_p50_us =
        static_cast<double>(sc.detection_latency().percentile(50));
    cell.detection_p99_us =
        static_cast<double>(sc.detection_latency().percentile(99));
    cell.dark_hosts = sc.slo().dark_hosts();
    cell.burn_rate = sc.slo().burn_rate();
    cell.flight_records = sc.flight_records().size();
    mix(sc.state_digest());
    if (flight_dumps != nullptr) {
      for (const auto& fr : sc.flight_records()) {
        if (flight_dumps->size() >= o.max_flight_records) break;
        std::ostringstream os;
        sc.write_flight_record(os, fr.host);
        flight_dumps->push_back(os.str());
      }
    }
  }
  mix(engine.messages_routed());
  cell.digest = digest;
  cell.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall_start)
                  .count();
  return cell;
}

/// Mean per-wave Jaccard overlap between the scraped-signal pass's host
/// picks and the wire-tap baseline's: did the control plane choose the
/// same hosts for each wave when it could only see the telemetry? A
/// wave present in one run but not the other scores 0. Empty when
/// neither run started a wave: there was nothing to compare.
std::optional<double> wave_order_fidelity(
    const std::vector<std::vector<std::size_t>>& base,
    const std::vector<std::vector<std::size_t>>& got) {
  const std::size_t n = std::max(base.size(), got.size());
  if (n == 0) return std::nullopt;
  double total = 0;
  for (std::size_t i = 0; i < std::min(base.size(), got.size()); ++i) {
    std::vector<std::size_t> a = base[i];
    std::vector<std::size_t> b = got[i];
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::size_t> inter;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(inter));
    const std::size_t uni = a.size() + b.size() - inter.size();
    total += uni == 0 ? 1.0
                      : static_cast<double>(inter.size()) /
                            static_cast<double>(uni);
  }
  return total / static_cast<double>(n);
}

/// A fidelity for the console: "n/a" when no wave was compared.
std::string fidelity_text(std::optional<double> f) {
  if (!f) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", *f);
  return buf;
}

/// A fidelity for the JSON: null when no wave was compared.
std::string fidelity_json(std::optional<double> f) {
  if (!f) return "null";
  std::ostringstream os;
  os << *f;
  return os.str();
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--hosts H] [--shards S] [--wave K] [--sessions M]\n"
      "          [--sim-seconds T] [--check-interval-s C]\n"
      "          [--fault-rate r1,r2,...] [--interval-s i1,i2,...]\n"
      "          [--workers W] [--out FILE] [--flight-out FILE]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&i, argc, argv]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(argv[i], "--hosts") == 0) {
      if (const char* v = next()) o.hosts = std::atoi(v);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      if (const char* v = next()) o.shards = std::atoi(v);
    } else if (std::strcmp(argv[i], "--wave") == 0) {
      if (const char* v = next()) o.wave = std::atoi(v);
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      if (const char* v = next()) o.sessions = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--sim-seconds") == 0) {
      if (const char* v = next()) {
        o.sim_seconds = rh::bench::parse_positive_seconds("--sim-seconds", v);
      }
    } else if (std::strcmp(argv[i], "--check-interval-s") == 0) {
      if (const char* v = next()) {
        o.check_interval_s =
            rh::bench::parse_positive_seconds("--check-interval-s", v);
      }
    } else if (std::strcmp(argv[i], "--fault-rate") == 0) {
      if (const char* v = next()) {
        o.rates = rh::bench::parse_value_list("--fault-rate", v);
      }
    } else if (std::strcmp(argv[i], "--interval-s") == 0) {
      if (const char* v = next()) {
        o.intervals_s = rh::bench::parse_value_list("--interval-s", v);
      }
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      if (const char* v = next()) o.workers = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (const char* v = next()) o.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (const char* v = next()) o.out = v;
    } else if (std::strcmp(argv[i], "--flight-out") == 0) {
      if (const char* v = next()) o.flight_out = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (o.hosts < 1 || o.shards < 1 || o.wave < 1 || o.workers < 1 ||
      o.rates.empty() || o.intervals_s.empty()) {
    usage(argv[0]);
    return 2;
  }
  for (const double is : o.intervals_s) {
    if (is <= 0) {
      std::fprintf(stderr, "--interval-s values must be positive\n");
      return 2;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("fig_scrape: hosts=%d shards=%d wave=%d workers=%zu "
              "check=%.1fs window=%.1fs\n",
              o.hosts, o.shards, o.wave, o.workers, o.check_interval_s,
              o.sim_seconds);

  const double base_rate = o.rates.back();
  const double tight_interval = o.intervals_s.front();
  double headline_detection_p99 = 0.0;
  double headline_overhead_pct = 0.0;
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) { sim::hash_mix(digest, v); };

  // Exact wave-order fidelity: with no fleet (so no load noise) and no
  // faults, a pass ordered from the scraped TSDB alone must pick exactly
  // the same waves as the wire-tap. This is the bench-scale twin of the
  // deterministic unit test; any mismatch is a real signal-path bug.
  const Cell idle_base =
      run_cell(o, 0.0, 0.0, nullptr, /*idle=*/true);
  const Cell idle_scraped =
      run_cell(o, 0.0, tight_interval, nullptr, /*idle=*/true);
  const std::optional<double> headline_fidelity =
      wave_order_fidelity(idle_base.waves, idle_scraped.waves);
  std::printf("  idle fidelity pair: baseline waves=%zu scraped waves=%zu "
              "fidelity=%s\n",
              idle_base.waves.size(), idle_scraped.waves.size(),
              fidelity_text(headline_fidelity).c_str());
  mix(idle_base.digest);
  mix(idle_scraped.digest);

  std::vector<std::string> flight_dumps;
  struct Row {
    Cell baseline;
    std::vector<Cell> scraped;
    std::vector<double> event_overhead_pct;
    std::vector<double> wall_overhead_pct;
    std::vector<std::optional<double>> fidelity;
  };
  std::vector<Row> rows;
  for (const double rate : o.rates) {
    Row row;
    row.baseline = run_cell(o, rate, 0.0, nullptr);
    std::printf("  baseline rate=%.2f: pooled=%.6f p99=%.6f events=%llu "
                "digest=%016llx (%.1fs)\n",
                rate, row.baseline.stats.pooled_availability,
                row.baseline.stats.availability_p99,
                static_cast<unsigned long long>(row.baseline.executed_events),
                static_cast<unsigned long long>(row.baseline.digest),
                row.baseline.wall);
    mix(row.baseline.digest);
    for (const double interval : o.intervals_s) {
      const Cell c = run_cell(o, rate, interval, &flight_dumps);
      const double ev_overhead =
          row.baseline.executed_events == 0
              ? 0.0
              : (static_cast<double>(c.executed_events) /
                     static_cast<double>(row.baseline.executed_events) -
                 1.0) *
                    100.0;
      const double wall_overhead =
          row.baseline.wall <= 0.0
              ? 0.0
              : (c.wall / row.baseline.wall - 1.0) * 100.0;
      const std::optional<double> fidelity =
          wave_order_fidelity(row.baseline.waves, c.waves);
      std::printf(
          "  scraped  rate=%.2f int=%.0fs: ok=%llu fail=%llu kB=%llu "
          "dark=%zu pauses=%zu det_p99=%.0fus ev_ovh=%.2f%% fid=%s "
          "digest=%016llx (%.1fs)\n",
          rate, interval,
          static_cast<unsigned long long>(c.scrape.scrapes_ok),
          static_cast<unsigned long long>(c.scrape.scrapes_failed),
          static_cast<unsigned long long>(c.scrape.bytes_transferred / 1024),
          c.dark_hosts, c.admission_pauses, c.detection_p99_us, ev_overhead,
          fidelity_text(fidelity).c_str(),
          static_cast<unsigned long long>(c.digest), c.wall);
      mix(c.digest);
      if (rate == base_rate && interval == tight_interval) {
        headline_detection_p99 = c.detection_p99_us;
      }
      if (rate == o.rates.front() && interval == tight_interval) {
        headline_overhead_pct = ev_overhead;
      }
      row.event_overhead_pct.push_back(ev_overhead);
      row.wall_overhead_pct.push_back(wall_overhead);
      row.fidelity.push_back(fidelity);
      row.scraped.push_back(c);
    }
    rows.push_back(std::move(row));
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  std::printf("  headline: det_p99=%.0fus overhead=%.2f%% fidelity=%s\n",
              headline_detection_p99, headline_overhead_pct,
              fidelity_text(headline_fidelity).c_str());
  std::printf("  aggregate digest=%016llx (%.1f wall-s)\n",
              static_cast<unsigned long long>(digest), wall);

  if (!flight_dumps.empty()) {
    std::ofstream fj(o.flight_out);
    if (fj) {
      fj << "{\n  \"benchmark\": \"fig_scrape\",\n  \"records\": [\n";
      for (std::size_t i = 0; i < flight_dumps.size(); ++i) {
        fj << flight_dumps[i]
           << (i + 1 < flight_dumps.size() ? ",\n" : "\n");
      }
      fj << "  ]\n}\n";
      std::printf("  wrote %s (%zu flight records)\n", o.flight_out.c_str(),
                  flight_dumps.size());
    }
  }

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  js << "{\n"
     << "  \"benchmark\": \"fig_scrape\",\n"
     << "  \"hosts\": " << o.hosts << ",\n"
     << "  \"shards\": " << o.shards << ",\n"
     << "  \"wave_size\": " << o.wave << ",\n"
     << "  \"vms_per_host\": " << o.vms_per_host << ",\n"
     << "  \"workers\": " << o.workers << ",\n"
     << "  \"concurrent_sessions\": "
     << (o.sessions != 0 ? o.sessions
                         : 1100ull * static_cast<std::uint64_t>(o.hosts))
     << ",\n"
     << "  \"sim_seconds\": " << o.sim_seconds << ",\n"
     << "  \"check_interval_s\": " << o.check_interval_s << ",\n"
     << "  \"base_rate\": " << base_rate << ",\n"
     << "  \"tight_interval_s\": " << tight_interval << ",\n"
     << "  \"detection_latency_p99_us\": " << headline_detection_p99 << ",\n"
     << "  \"event_overhead_pct\": " << headline_overhead_pct << ",\n"
     << "  \"wave_order_fidelity\": " << fidelity_json(headline_fidelity)
     << ",\n"
     << "  \"flight_records\": " << flight_dumps.size() << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n"
     << "  \"rates\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    js << "    {\"rate\": " << row.baseline.rate << ", \"baseline\": "
       << "{\"pooled_availability\": "
       << row.baseline.stats.pooled_availability
       << ", \"p99_availability\": " << row.baseline.stats.availability_p99
       << ", \"executed_events\": " << row.baseline.executed_events
       << ", \"waves_started\": " << row.baseline.waves_started
       << ", \"hosts_rejuvenated\": " << row.baseline.hosts_rejuvenated
       << ", \"admission_pauses\": " << row.baseline.admission_pauses
       << ", \"unplanned_failures\": " << row.baseline.unplanned.failures
       << ", \"unplanned_recoveries\": " << row.baseline.unplanned.recoveries
       << ", \"unrecovered_hosts\": " << row.baseline.unplanned.unrecovered
       << ", \"unplanned_in_flight\": " << row.baseline.unplanned.in_flight
       << ", \"wall_seconds\": " << row.baseline.wall << "},\n"
       << "     \"scraped\": [\n";
    for (std::size_t i = 0; i < row.scraped.size(); ++i) {
      const Cell& c = row.scraped[i];
      char cell_digest[64];
      std::snprintf(cell_digest, sizeof cell_digest, "%016llx",
                    static_cast<unsigned long long>(c.digest));
      js << "      {\"interval_s\": " << c.interval_s
         << ", \"pooled_availability\": " << c.stats.pooled_availability
         << ", \"p99_availability\": " << c.stats.availability_p99
         << ", \"rounds_completed\": " << c.scrape.rounds_completed
         << ", \"scrapes_ok\": " << c.scrape.scrapes_ok
         << ", \"scrapes_failed\": " << c.scrape.scrapes_failed
         << ", \"bytes_transferred\": " << c.scrape.bytes_transferred
         << ", \"detections\": " << c.scrape.detections
         << ", \"detection_p50_us\": " << c.detection_p50_us
         << ", \"detection_p99_us\": " << c.detection_p99_us
         << ", \"dark_hosts\": " << c.dark_hosts
         << ", \"burn_rate\": " << c.burn_rate
         << ", \"admission_pauses\": " << c.admission_pauses
         << ", \"waves_started\": " << c.waves_started
         << ", \"hosts_rejuvenated\": " << c.hosts_rejuvenated
         << ", \"flight_records\": " << c.flight_records
         << ", \"executed_events\": " << c.executed_events
         << ", \"event_overhead_pct\": " << row.event_overhead_pct[i]
         << ", \"wall_overhead_pct\": " << row.wall_overhead_pct[i]
         << ", \"wave_order_fidelity\": " << fidelity_json(row.fidelity[i])
         << ", \"unplanned_failures\": " << c.unplanned.failures
         << ", \"unplanned_recoveries\": " << c.unplanned.recoveries
         << ", \"unrecovered_hosts\": " << c.unplanned.unrecovered
         << ", \"unplanned_in_flight\": " << c.unplanned.in_flight
         << ", \"wall_seconds\": " << c.wall
         << ", \"digest\": \"" << cell_digest << "\"}"
         << (i + 1 < row.scraped.size() ? ",\n" : "\n");
    }
    js << "    ]}" << (r + 1 < rows.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"digest\": \"" << buf << "\"\n"
     << "}\n";
  std::printf("  wrote %s\n", o.out.c_str());
  if (!headline_fidelity) {
    std::fprintf(stderr,
                 "FAIL: the idle fault-free pair started no wave, so its "
                 "wave order was never compared\n");
    return 1;
  }
  if (*headline_fidelity != 1.0) {
    std::fprintf(stderr,
                 "FAIL: scraped wave order diverged from the wire-tap on "
                 "the idle fault-free pair (fidelity %.3f)\n",
                 *headline_fidelity);
    return 1;
  }
  return 0;
}
