// A simulated cluster: m full hosts behind a load balancer, with rolling
// VMM rejuvenation (the Section 6 scenario, simulated rather than only
// analysed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/sharded_balancer.hpp"
#include "fault/fault.hpp"
#include "obs/slo.hpp"
#include "rejuv/recovery_driver.hpp"
#include "rejuv/supervisor.hpp"
#include "simcore/inline_callback.hpp"

namespace rh::cluster {

class MetricsScraper;

class Cluster {
 public:
  struct Config {
    int hosts = 3;
    int vms_per_host = 4;
    sim::Bytes vm_memory = sim::kGiB;
    int files_per_vm = 50;
    sim::Bytes file_size = 512 * sim::kKiB;
    Calibration calib;
    /// Base RNG seed; host h is seeded with `seed + h`. The default keeps
    /// the historical single-run behaviour; replicated experiments pass a
    /// per-replication seed from exp::ReplicationContext.
    std::uint64_t seed = 1000;
    /// Per-host fault plan. All-zero (the default) arms nothing and draws
    /// nothing, so fault-free clusters reproduce historical runs exactly.
    fault::FaultConfig faults;
    /// Enables every host's typed observer (events/spans/metrics) plus the
    /// cluster-level rolling-pass spans. Off by default: disabled
    /// observability is one predicted branch per site and the run stays
    /// byte-identical to pre-observability builds.
    bool observe = false;
    /// Conservative parallel-in-run engine (DESIGN.md §11), non-owning
    /// and required. It must have exactly 1 + shards + hosts partitions:
    /// partition 0 is the control plane (client fleet + rolling-pass
    /// control, driven by the engine's partition(0) Simulation, which
    /// must be the `sim` passed to the constructor), balancer shard s
    /// lives on partition 1 + s (with shards == 0 the one shard shares
    /// partition 0), and host h lives on partition 1 + shards + h. All
    /// cross-host interaction flows through the engine's mailboxes, each
    /// hop paying the calibrated link latency; results are bitwise
    /// identical for any worker count. One worker is the sequential case.
    sim::ParallelSimulation* engine = nullptr;
    /// Balancer shards (DESIGN.md §12). The cluster owns one
    /// ShardedBalancer with max(shards, 1) shards; every VM registers at
    /// construction with its host's shard (host h's backends belong to
    /// shard h % shards). 0 (default): one shard sharing partition 0 with
    /// the control plane, the paper's single balancer. > 0: each shard
    /// gets its own partition so dispatch is parallel-in-run.
    int shards = 0;
  };

  Cluster(sim::Simulation& sim, Config config);
  ~Cluster();  ///< out-of-line: scraper_ is a unique_ptr of a fwd decl
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts every host instantly, then creates and boots all VMs (taking
  /// simulated time). `on_ready` fires when every backend answers. Call
  /// while the engine is quiescent, then drive the engine: on_ready fires
  /// on the control partition once the boot events have run.
  void start(std::function<void()> on_ready);

  /// Partition carrying host `i`: 1 + shards + i.
  [[nodiscard]] std::int32_t partition_of(int i) const {
    return 1 + config_.shards + i;
  }

  [[nodiscard]] int host_count() const { return config_.hosts; }
  [[nodiscard]] vmm::Host& host(int i);
  [[nodiscard]] guest::GuestOs& guest(int host, int vm);
  [[nodiscard]] std::vector<guest::GuestOs*> guests_of(int host);
  /// The cluster's balancer, max(Config::shards, 1) shards; never null.
  [[nodiscard]] ShardedBalancer* sharded_balancer() { return &balancer_; }

  /// Where rolling_rejuvenation_waves reads its per-host ordering
  /// signals from.
  enum class WaveSignalSource : std::uint8_t {
    /// Wire-tap: probe each admitted candidate's in-process gauges over
    /// the mailboxes before each wave (the historical behaviour).
    kWireTap,
    /// Production-shaped: read the latest scraped samples from the
    /// MetricsScraper's TimeSeriesStore -- no direct gauge reads at all.
    /// Requires start_scraping(); hosts whose series are missing or
    /// stale are treated as unloaded/unconstrained (the scheduler acts
    /// on what the telemetry shows, not on the truth).
    kScraped,
  };

  /// Knobs for the wave-based rolling pass (rolling_rejuvenation_waves).
  struct WaveConfig {
    /// Hosts rejuvenated concurrently per wave. It is also the global
    /// concurrent-downtime budget: never more than this many hosts down at
    /// once, counting hosts crash-down from steady faults.
    int wave_size = 1;
    rejuv::RebootKind kind = rejuv::RebootKind::kWarm;
    /// Every wave turn runs under a rejuv::Supervisor (watchdogs, retries,
    /// the full degradation ladder incl. micro-recovery). `kind` above
    /// overrides `supervisor.preferred`, so historical call sites keep
    /// their meaning.
    rejuv::SupervisorConfig supervisor{};
    /// Signal source for the wave ordering (DESIGN.md §15).
    WaveSignalSource signals = WaveSignalSource::kWireTap;
  };

  /// Knobs for the telemetry plane (DESIGN.md §15): per-host /metrics
  /// exporters scraped by a control-plane MetricsScraper over the
  /// simulated links.
  struct ScrapeConfig {
    /// Scrape round cadence. Every host is scraped once per round.
    sim::Duration interval = 15 * sim::kSecond;
    /// A scrape unanswered for this long counts as failed; must exceed
    /// the round-trip link latency and fit inside the interval.
    sim::Duration timeout = 2 * sim::kSecond;
    obs::SloConfig slo;
    /// Let the SLO evaluator's burn-rate rule pause wave admission.
    bool gate_admission = true;
  };

  /// Arms the telemetry plane: one MetricsExporter per host (on the
  /// host's own partition) and a control-plane scraper round every
  /// `interval`, paying real link latency both ways and timing out on
  /// hosts that are down. Scraping off (the default) schedules nothing
  /// and the run stays byte-identical to pre-telemetry builds. Call
  /// while the engine is quiescent.
  void start_scraping(const ScrapeConfig& config);
  /// The telemetry plane, or null before start_scraping().
  [[nodiscard]] MetricsScraper* scraper() { return scraper_.get(); }

  /// Knobs for steady in-service faults at cluster scale (DESIGN.md §14).
  struct SteadyFaultsConfig {
    /// Per-host check cadence; the rates come from Config::faults.
    fault::SteadyFaultProcess::Config process;
    /// Ladder template for every unplanned failure (micro-recovery etc.).
    rejuv::SupervisorConfig supervisor;
  };

  /// Control-plane accounting of unplanned (steady-fault) downtime.
  struct UnplannedReport {
    std::uint64_t failures = 0;  ///< steady faults that started a ladder
    std::uint64_t absorbed = 0;  ///< arrivals covered by in-flight recovery
    std::uint64_t recoveries = 0;
    std::uint64_t micro_recoveries = 0;
    std::uint64_t unrecovered = 0;  ///< ladders that exhausted (host evicted)
    /// Ladders started but not yet reported back. Every update keeps
    /// failures == recoveries + unrecovered + in_flight.
    std::uint64_t in_flight = 0;
    /// Summed unplanned ladder durations (host-level wall of downtime).
    sim::Duration downtime = 0;
  };

  /// Arms a SteadyFaultProcess plus a rejuv::RecoveryDriver on every
  /// host's own partition: hosts crash and recover in service, each
  /// failure is answered by a fresh supervised ladder (or absorbed when a
  /// planned wave turn already owns the host), and outcomes are notified
  /// to the control plane over the mailboxes -- crash-evicting/readmitting
  /// the host's backends on every balancer shard and steering wave
  /// admission. With both steady rates zero nothing is scheduled and no
  /// RNG is drawn, so fault-free runs stay digest-identical. Call while
  /// the engine is quiescent.
  void start_steady_faults(const SteadyFaultsConfig& config);
  /// Disarms every host's steady process. Quiescent callers only.
  void stop_steady_faults();
  [[nodiscard]] const UnplannedReport& unplanned_report() const {
    return unplanned_;
  }
  /// Hosts the control plane currently believes to be crash-down: one
  /// per unplanned ladder in flight.
  [[nodiscard]] std::size_t unplanned_down_hosts() const {
    return static_cast<std::size_t>(unplanned_.in_flight);
  }

  /// Outcome of one wave-based rolling pass.
  struct WaveReport {
    struct Wave {
      /// Hosts in this wave, in the order the scheduler picked them.
      std::vector<std::size_t> hosts;
      /// Ladder outcome of each host in this wave, in *completion* order
      /// (a wave's hosts finish in signal-dependent order;
      /// outcome_hosts[i] names the host whose ladder produced
      /// outcomes[i]).
      std::vector<std::size_t> outcome_hosts;
      std::vector<rejuv::SupervisorReport> outcomes;
      sim::SimTime started = 0;
      sim::SimTime finished = 0;
    };
    std::vector<Wave> waves;
    /// Hosts whose wave turn succeeded. Every host ends the pass in
    /// exactly one of this count, recovered_hosts and unrecovered_hosts.
    std::size_t hosts_rejuvenated = 0;
    /// Hosts that came back, but on a lower rung than the wave asked for
    /// (completed != attempted: a mid-wave ladder descent).
    std::vector<std::size_t> degraded_hosts;
    /// Hosts a wave turn evicted that an end-of-pass retry brought back.
    std::vector<std::size_t> recovered_hosts;
    /// Hosts still out of rotation when the pass ended: their turn and
    /// every retry left VMs unrecovered, or (with steady faults armed) an
    /// *unplanned* ladder lost them while they were still pending -- the
    /// pass skips those instead of running a turn on a dead host.
    std::vector<std::size_t> unrecovered_hosts;
    /// One report per end-of-pass retry that ran, in execution order.
    std::vector<rejuv::SupervisorReport> retries;
    /// Planned host-level downtime: summed wave-turn ladder durations
    /// (the unplanned share lives in Cluster::unplanned_report()).
    sim::Duration planned_downtime = 0;
    /// Times wave admission paused: the SLO gate was shut, unplanned
    /// crashes exhausted the downtime budget, or every pending host was
    /// crash-down. Admission is decided before any signal is read, so
    /// every kick that finds the pass paused and the budget still spent
    /// counts once. The next unplanned recovery (or the gate opening)
    /// replans and resumes the pass.
    std::size_t admission_pauses = 0;
    /// Wave turns that arrived at a host an unplanned ladder already
    /// owned; the turn was requeued and replanned, not run.
    std::size_t deferred_turns = 0;
    [[nodiscard]] bool fully_recovered() const {
      return unrecovered_hosts.empty();
    }
  };

  /// Rolling rejuvenation (the paper's Section 6 scenario): rejuvenates
  /// wave_size hosts per wave (one by default), a barrier between waves,
  /// never more than wave_size hosts down at once. Each host's turn runs
  /// under a rejuv::Supervisor, so a mid-wave fault walks the degradation
  /// ladder (micro-recovery, warm->saved->cold) instead of aborting the
  /// pass; outcomes land in the WaveReport. A host left unrecovered is evicted
  /// from the balancer and retried after the last wave. Before each wave
  /// the scheduler decides admission (wave_admit), then gathers live
  /// signals from every admitted candidate -- served-request load and
  /// preserved-budget headroom, mirrored into the host's MetricsRegistry
  /// when observability is on -- and rejuvenates the least-loaded hosts
  /// first (tie-break: smaller headroom, then host index), so the wave
  /// drains as few active sessions as possible while prioritising
  /// memory-tight hosts. Signals are gathered over the mailboxes, so the
  /// schedule is bitwise reproducible for any worker count. Overlapping
  /// passes are an invariant violation: a second call while a pass is in
  /// flight would drop the first pass's state mid-reboot, so it fails fast
  /// instead.
  /// Invoke from control-partition context (engine.run_on(0, ...)).
  void rolling_rejuvenation_waves(
      WaveConfig config, std::function<void(const WaveReport&)> on_done);

  /// Report of the last wave-based pass (valid after it completes).
  [[nodiscard]] const WaveReport& last_wave_report() const {
    return wave_report_;
  }

  /// True while a rolling pass is in flight.
  [[nodiscard]] bool rolling_in_progress() const { return wave_ != nullptr; }

  /// Duration of each host's rejuvenation in the last rolling pass.
  [[nodiscard]] const std::vector<sim::Duration>& rejuvenation_durations() const {
    return durations_;
  }

 private:
  friend class MetricsScraper;

  /// (served-request load, preserved-budget headroom) for one host, on
  /// the host's partition; `mirror` also writes both into the host's
  /// MetricsRegistry gauges.
  [[nodiscard]] std::pair<std::uint64_t, std::int64_t> host_signals(
      std::size_t host_index, bool mirror);
  /// Exporter-side collection hook: writes the wave signals (and a few
  /// host facts) into the host's MetricsRegistry unconditionally --
  /// scraping may run with Config::observe off, where the wire-tap probe
  /// skips the mirror. Runs on the host's partition.
  void collect_host_metrics(std::size_t host_index);
  /// The scraper's SLO gate (control partition): while blocked,
  /// wave_admit admits nothing; clearing the block kicks a paused pass.
  void set_scrape_admission_blocked(bool blocked);
  /// Host-partition handler for one steady fault arrival.
  void steady_fault(std::size_t host_index, fault::FaultKind kind);
  /// Control-partition notifications from the per-host recovery drivers.
  void on_unplanned_down(std::size_t host_index);
  void on_unplanned_outcome(std::size_t host_index, bool success, bool micro,
                            sim::Duration took);
  /// ensure()s failures == recoveries + unrecovered + in_flight.
  void check_unplanned_identity() const;
  /// Runs `fn` on the control partition, posted with link latency.
  void to_control(sim::InlineCallback fn);
  /// Runs `fn` on host `host_index`'s partition, posted with link latency.
  void to_host(std::size_t host_index, sim::InlineCallback fn);
  void wave_gather();
  void wave_collect(std::size_t host_index, std::uint64_t load,
                    std::int64_t headroom);
  /// Admission for the next wave, which needs no signals: the SLO gate,
  /// then the downtime budget left after unplanned crashes, then the
  /// pending hosts not crash-down (filled into `candidates`). Returns how
  /// many hosts the wave takes; 0 pauses the pass. Both signal paths call
  /// it before reading a signal; the wire-tap path calls it again when
  /// its probes are back.
  std::size_t wave_admit(std::vector<std::size_t>& candidates);
  /// Orders `candidates` by their gathered signals and runs the first k.
  void wave_launch(std::vector<std::size_t> candidates, std::size_t k);
  void wave_run_host(std::size_t host_index);
  void wave_host_done(std::size_t host_index, rejuv::SupervisorReport report);
  /// A launched turn found its host owned by an unplanned ladder: requeue.
  void wave_host_deferred(std::size_t host_index);
  /// End-of-pass retry queue: recovers the next evicted host after a
  /// capped exponential backoff, then finishes the pass.
  void wave_retry(int attempt);
  /// Control-side outcome of one retry; null `report` means the host was
  /// down or owned by an unplanned ladder, so no retry ran.
  void wave_retry_done(std::size_t host_index, int attempt,
                       const rejuv::SupervisorReport* report);
  /// Resumes a paused pass after an unplanned recovery (replans from the
  /// next signal gather).
  void wave_kick();

  sim::Simulation& sim_;
  sim::ParallelSimulation& engine_;
  Config config_;
  std::vector<std::unique_ptr<vmm::Host>> hosts_;
  std::vector<std::vector<std::unique_ptr<guest::GuestOs>>> guests_;
  ShardedBalancer balancer_;
  /// Per-host supervisor slots, created and destroyed only in the owning
  /// host's partition context (the window barriers order those accesses
  /// against the control partition).
  std::vector<std::unique_ptr<rejuv::Supervisor>> host_supervisors_;
  std::vector<sim::Duration> durations_;
  /// In-flight wave pass. The gather fan-out and the wave barrier both
  /// count down control-side, so all mutation happens on partition 0.
  struct WaveState {
    WaveConfig config;
    std::function<void(const WaveReport&)> on_done;
    std::vector<std::uint8_t> scheduled;  ///< host already covered
    std::vector<std::uint64_t> load;
    std::vector<std::int64_t> headroom;
    std::size_t replies_pending = 0;
    std::size_t inflight = 0;
    std::size_t remaining = 0;
    /// Hosts a wave turn evicted, retried in order after the last wave.
    std::vector<std::size_t> retry_queue;
    std::size_t retry_next = 0;
    /// Admission paused on an exhausted crash budget; an unplanned
    /// recovery clears it and re-gathers.
    bool paused = false;
  };
  std::unique_ptr<WaveState> wave_;
  WaveReport wave_report_;
  /// Per-host steady fault machinery; each slot is constructed, driven and
  /// destroyed on its host's own partition.
  struct SteadySlot {
    std::unique_ptr<fault::SteadyFaultProcess> process;
    std::unique_ptr<rejuv::RecoveryDriver> driver;
  };
  std::vector<SteadySlot> steady_slots_;
  bool steady_started_ = false;
  /// Control-plane crash state (all mutated on partition 0 only).
  UnplannedReport unplanned_;
  std::vector<std::uint8_t> crash_down_;  ///< unplanned ladder in flight
  /// Hosts that just micro-recovered; deprioritised in the next wave sort
  /// (cleared once the pass schedules them).
  std::vector<std::uint8_t> recently_recovered_;
  /// Telemetry plane (DESIGN.md §15); null until start_scraping().
  std::unique_ptr<MetricsScraper> scraper_;
  /// SLO burn-rate gate: wave admission pauses while set.
  bool scrape_blocked_ = false;
};

}  // namespace rh::cluster
