// Scraped-like-production telemetry plane at datacenter scale: what does
// it cost to run the control plane off scraped metrics instead of the
// simulator's omniscient wire-tap, and how fast does scraping *see*
// failures?
//
// For each steady fault rate the fleet of fleet.hpp, its waves and
// crashes under the micro-recovery ladder, runs once as a
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
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/metrics_scraper.hpp"
#include "fleet.hpp"

namespace {

using namespace rh;

struct Cell {
  double rate = 0;
  double interval_s = 0;  ///< 0: baseline, scraping off
  bench::FleetCell fleet;
  std::vector<std::vector<std::size_t>> waves;  ///< host picks per wave
  // Scraped cells only:
  cluster::MetricsScraper::Stats scrape;
  double detection_p50_us = 0;
  double detection_p99_us = 0;
  std::size_t dark_hosts = 0;
  double burn_rate = 0;
  std::size_t flight_records = 0;
};

/// At most this many flight-recorder dumps go into the sidecar JSON.
constexpr std::size_t kMaxFlightRecords = 3;

/// One fleet run. interval_s == 0: baseline, scraping off. idle:
/// no session fleet at all -- used for the exact wave-order fidelity
/// pair, where the only difference between baseline and scraped must be
/// the signal path, not fleet noise.
Cell run_cell(const bench::FleetOptions& o, double warmup_s, double rate,
              double interval_s, std::vector<std::string>* flight_dumps,
              bool idle = false) {
  const bool scraped = interval_s > 0;
  bench::FleetRun run(o, rate, idle);
  run.boot();
  const rejuv::SupervisorConfig scfg = bench::ladder_config(bench::kLadders[0]);
  if (rate > 0) run.start_steady_faults(scfg);
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
    run.cl.start_scraping(sc);
  }
  run.open_window(warmup_s);
  run.start_waves(scfg, scraped ? cluster::Cluster::WaveSignalSource::kScraped
                                : cluster::Cluster::WaveSignalSource::kWireTap);
  run.close_window();

  Cell cell;
  cell.rate = rate;
  cell.interval_s = interval_s;
  const auto& waves = run.cl.last_wave_report().waves;
  for (const auto& w : waves) {
    cell.waves.emplace_back(w.hosts.begin(), w.hosts.end());
  }

  std::uint64_t digest = run.digest_prefix();
  const auto mix = [&digest](std::uint64_t v) { sim::hash_mix(digest, v); };
  const auto& u = run.cl.unplanned_report();
  mix(u.failures);
  mix(u.recoveries);
  mix(u.unrecovered);
  for (const auto& w : waves) {
    mix(static_cast<std::uint64_t>(w.started));
    for (const auto h : w.hosts) mix(h);
  }

  if (scraped) {
    const cluster::MetricsScraper& sc = *run.cl.scraper();
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
        if (flight_dumps->size() >= kMaxFlightRecords) break;
        std::ostringstream os;
        sc.write_flight_record(os, fr.host);
        flight_dumps->push_back(os.str());
      }
    }
  }
  mix(run.engine.messages_routed());
  cell.fleet = run.cell(digest);
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

}  // namespace

int main(int argc, char** argv) {
  bench::FleetOptions o{.sim_seconds = 60.0,
                        .rates = {0.0, 0.4},
                        .out = "BENCH_scrape.json"};
  std::vector<double> intervals_s = {5.0, 15.0};
  std::string flight_out = "BENCH_scrape_flight.json";
  bench::Flags flags;
  o.bind(flags)
      .values("--interval-s", intervals_s)
      .path("--flight-out", flight_out)
      .parse(argc, argv);
  for (const double is : intervals_s) {
    if (is <= 0) {
      std::fprintf(stderr, "--interval-s values must be positive\n");
      return 2;
    }
  }
  // Warm up past the longest scrape interval so every cell's wave pass
  // starts at the same sim time with a populated TSDB (the baseline
  // shares the warmup so wave orders are comparable).
  double warmup_s = 2.0;
  for (const double is : intervals_s) warmup_s = std::max(warmup_s, is + 1.0);

  const auto wall_start = std::chrono::steady_clock::now();
  std::printf("fig_scrape: hosts=%d shards=%d wave=%d workers=%zu "
              "check=%.1fs window=%.1fs\n",
              o.hosts, o.shards, o.wave, o.workers, o.check_interval_s,
              o.sim_seconds);

  const double base_rate = o.rates.back();
  const double tight_interval = intervals_s.front();
  double headline_detection_p99 = 0.0;
  double headline_overhead_pct = 0.0;
  std::uint64_t digest = 0;
  const auto mix = [&digest](std::uint64_t v) { sim::hash_mix(digest, v); };

  // Exact wave-order fidelity: with no fleet (so no load noise) and no
  // faults, a pass ordered from the scraped TSDB alone must pick exactly
  // the same waves as the wire-tap. This is the bench-scale twin of the
  // deterministic unit test; any mismatch is a real signal-path bug.
  const Cell idle_base =
      run_cell(o, warmup_s, 0.0, 0.0, nullptr, /*idle=*/true);
  const Cell idle_scraped =
      run_cell(o, warmup_s, 0.0, tight_interval, nullptr, /*idle=*/true);
  const std::optional<double> headline_fidelity =
      wave_order_fidelity(idle_base.waves, idle_scraped.waves);
  std::printf("  idle fidelity pair: baseline waves=%zu scraped waves=%zu "
              "fidelity=%s\n",
              idle_base.waves.size(), idle_scraped.waves.size(),
              fidelity_text(headline_fidelity).c_str());
  mix(idle_base.fleet.digest);
  mix(idle_scraped.fleet.digest);

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
    row.baseline = run_cell(o, warmup_s, rate, 0.0, nullptr);
    const bench::FleetCell& base = row.baseline.fleet;
    std::printf("  baseline rate=%.2f: pooled=%.6f p99=%.6f events=%llu "
                "digest=%016llx (%.1fs)\n",
                rate, base.stats.pooled_availability,
                base.stats.availability_p99,
                static_cast<unsigned long long>(base.executed_events),
                static_cast<unsigned long long>(base.digest), base.wall);
    mix(base.digest);
    for (const double interval : intervals_s) {
      const Cell c = run_cell(o, warmup_s, rate, interval, &flight_dumps);
      const double ev_overhead =
          base.executed_events == 0
              ? 0.0
              : (static_cast<double>(c.fleet.executed_events) /
                     static_cast<double>(base.executed_events) -
                 1.0) *
                    100.0;
      const double wall_overhead =
          base.wall <= 0.0 ? 0.0 : (c.fleet.wall / base.wall - 1.0) * 100.0;
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
          c.dark_hosts, c.fleet.admission_pauses, c.detection_p99_us,
          ev_overhead, fidelity_text(fidelity).c_str(),
          static_cast<unsigned long long>(c.fleet.digest), c.fleet.wall);
      mix(c.fleet.digest);
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
    std::ofstream fj(flight_out);
    if (fj) {
      fj << "{\n  \"benchmark\": \"fig_scrape\",\n  \"records\": [\n";
      for (std::size_t i = 0; i < flight_dumps.size(); ++i) {
        fj << flight_dumps[i]
           << (i + 1 < flight_dumps.size() ? ",\n" : "\n");
      }
      fj << "  ]\n}\n";
      std::printf("  wrote %s (%zu flight records)\n", flight_out.c_str(),
                  flight_dumps.size());
    }
  }

  std::ofstream js(o.out);
  if (!js) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  o.write_json_head(js, "fig_scrape");
  js << "  \"sim_seconds\": " << o.sim_seconds << ",\n"
     << "  \"check_interval_s\": " << o.check_interval_s << ",\n"
     << "  \"base_rate\": " << base_rate << ",\n"
     << "  \"tight_interval_s\": " << tight_interval << ",\n"
     << "  \"detection_latency_p99_us\": " << headline_detection_p99 << ",\n"
     << "  \"event_overhead_pct\": " << headline_overhead_pct << ",\n"
     << "  \"wave_order_fidelity\": " << fidelity_json(headline_fidelity)
     << ",\n"
     << "  \"flight_records\": " << flight_dumps.size() << ",\n"
     << "  \"wall_seconds\": " << wall << ",\n"
     << "  \"rates\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Row& row = rows[r];
    js << "    {\"rate\": " << row.baseline.rate << ", \"baseline\": {";
    row.baseline.fleet.write_json(js, ", ");
    js << "},\n     \"scraped\": [\n";
    for (std::size_t i = 0; i < row.scraped.size(); ++i) {
      const Cell& c = row.scraped[i];
      js << "      {\"interval_s\": " << c.interval_s
         << ", \"rounds_completed\": " << c.scrape.rounds_completed
         << ", \"scrapes_ok\": " << c.scrape.scrapes_ok
         << ", \"scrapes_failed\": " << c.scrape.scrapes_failed
         << ", \"bytes_transferred\": " << c.scrape.bytes_transferred
         << ", \"detections\": " << c.scrape.detections
         << ", \"detection_p50_us\": " << c.detection_p50_us
         << ", \"detection_p99_us\": " << c.detection_p99_us
         << ", \"dark_hosts\": " << c.dark_hosts
         << ", \"burn_rate\": " << c.burn_rate
         << ", \"flight_records\": " << c.flight_records
         << ", \"event_overhead_pct\": " << row.event_overhead_pct[i]
         << ", \"wall_overhead_pct\": " << row.wall_overhead_pct[i]
         << ", \"wave_order_fidelity\": " << fidelity_json(row.fidelity[i])
         << ", ";
      c.fleet.write_json(js, ", ");
      js << "}" << (i + 1 < row.scraped.size() ? ",\n" : "\n");
    }
    js << "    ]}" << (r + 1 < rows.size() ? ",\n" : "\n");
  }
  js << "  ],\n"
     << "  \"digest\": \"" << bench::hex_digest(digest) << "\"\n"
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
