// Control-plane metrics scraper: the pull half of the telemetry plane
// (DESIGN.md §15).
//
// One MetricsExporter per host (living on the host's own partition)
// answers scrapes with the host's registry rendered as Prometheus text;
// this scraper runs rounds from the control partition, paying real link
// latency both ways through the same mailboxes every other RPC uses. A
// host that is down simply never replies -- the scraper's timeout is the
// only failure signal, so the control plane's view of the fleet is
// exactly what the telemetry shows: parsed samples in a
// TimeSeriesStore, per-host staleness, an SloEvaluator turning scrape
// outcomes into burn-rate admission gating and dark-host flags, and a
// detection-latency histogram comparing "went dark" against the
// watchdog's ground truth.
//
// All scraper state mutates on the control partition only (replies
// travel back to partition 0 with the host's link latency), so scraped
// runs are digest-identical for any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics_exporter.hpp"
#include "obs/tsdb.hpp"
#include "simcore/histogram.hpp"

namespace rh::cluster {

class MetricsScraper {
 public:
  /// Cumulative control-plane scrape accounting.
  struct Stats {
    std::uint64_t rounds_started = 0;
    std::uint64_t rounds_completed = 0;
    std::uint64_t scrapes_ok = 0;
    std::uint64_t scrapes_failed = 0;
    /// Scrape reply payload bytes carried over the links (the plane's
    /// bandwidth cost; requests are header-sized and not counted).
    std::uint64_t bytes_transferred = 0;
    /// Dark transitions that could be timed against a known outage start.
    std::uint64_t detections = 0;
  };

  /// A host whose ladder exhausted, flagged for a flight-recorder dump.
  struct FlightRecord {
    std::size_t host = 0;
    sim::SimTime at = 0;
  };

  MetricsScraper(Cluster& cluster, Cluster::ScrapeConfig config);

  /// Schedules the first round one interval out. Quiescent callers only.
  void start();

  [[nodiscard]] const Cluster::ScrapeConfig& config() const { return config_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] obs::TimeSeriesStore& tsdb() { return tsdb_; }
  [[nodiscard]] const obs::TimeSeriesStore& tsdb() const { return tsdb_; }
  [[nodiscard]] const obs::SloEvaluator& slo() const { return slo_; }
  [[nodiscard]] obs::MetricsExporter& exporter(std::size_t host) {
    return *exporters_[host];
  }

  /// (load, headroom) for the wave scheduler, from the latest scraped
  /// samples alone. Missing/never-scraped series read as unloaded
  /// (load 0) / unconstrained (headroom max) -- the scheduler acts on
  /// what the telemetry shows, not on the truth.
  [[nodiscard]] std::pair<std::uint64_t, std::int64_t> wave_signals(
      std::size_t host) const;

  /// Scrape-visible detection latency (dark transition minus the
  /// control plane's unplanned-down marker), over all timed detections.
  [[nodiscard]] const sim::LatencyHistogram& detection_latency() const {
    return detection_hist_;
  }

  /// Hosts flagged for flight-recorder dumps (ladder exhausted), in
  /// flag order, deduplicated.
  [[nodiscard]] const std::vector<FlightRecord>& flight_records() const {
    return flight_records_;
  }

  /// Dumps one host's recent telemetry as JSON: scrape state, every
  /// series' ring window and sketch percentiles, and the tail of the
  /// host's EventRing. Reads host-partition state, so call it only when
  /// the engine is quiescent (post-run, which is when a flight recorder
  /// is read anyway).
  void write_flight_record(std::ostream& os, std::size_t host) const;

  /// Control-plane notifications from the cluster's fault machinery
  /// (all on partition 0): outage ground truth for detection timing and
  /// flight-recorder flagging.
  void note_host_down(std::size_t host);
  void note_host_up(std::size_t host);
  void note_unrecovered(std::size_t host);

  /// Deterministic fold over the full scraper state for the
  /// worker-count-invariance digest grids.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  void run_round();
  void scrape_host(std::size_t host);
  /// Host-partition half of one scrape: ask the exporter, ship the body
  /// back to the control partition.
  void scrape_arrive(std::size_t host, std::uint64_t round);
  void on_reply(std::size_t host, std::uint64_t round, std::string body);
  void on_timeout(std::size_t host, std::uint64_t round);
  void finish_scrape();

  Cluster& cluster_;
  Cluster::ScrapeConfig config_;
  sim::Simulation& sim_;  ///< the cluster's control-partition calendar
  std::vector<std::unique_ptr<obs::MetricsExporter>> exporters_;
  obs::TimeSeriesStore tsdb_;
  obs::SloEvaluator slo_;
  Stats stats_;
  bool started_ = false;
  bool blocked_ = false;  ///< last admission-gate state pushed to Cluster
  std::uint64_t round_seq_ = 0;
  std::size_t outstanding_ = 0;  ///< scrapes unresolved in this round
  /// Round whose scrape of host h is unresolved (0: none). A reply and
  /// its timeout race benignly: whichever runs second sees the slot
  /// cleared and drops out, so no event cancellation is needed.
  std::vector<std::uint64_t> pending_round_;
  std::vector<std::uint64_t> ok_;      ///< per-host successful scrapes
  std::vector<std::uint64_t> failed_;  ///< per-host failed scrapes
  /// Ground truth: when the control plane learned the host went down
  /// (-1: not down). Detection latency is dark-transition minus this.
  std::vector<sim::SimTime> down_since_;
  sim::LatencyHistogram detection_hist_;
  std::vector<std::uint8_t> flagged_;  ///< flight record already queued
  std::vector<FlightRecord> flight_records_;
};

}  // namespace rh::cluster
