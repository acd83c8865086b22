#include "cluster/cluster.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "cluster/metrics_scraper.hpp"
#include "simcore/check.hpp"

namespace rh::cluster {

namespace {

// A host whose wave turn left VMs unrecovered is evicted from the balancer
// and retried with Supervisor::recover once the last wave is done: one
// attempt, then up to kMaxHostRetries more, each after a backoff of
// min(kHostRetryCap, kHostRetryBase * 2^attempt).
constexpr int kMaxHostRetries = 2;
constexpr sim::Duration kHostRetryBase = 30 * sim::kMinute;
constexpr sim::Duration kHostRetryCap = 2 * sim::kHour;

/// The engine `config` names, checked against the cluster's partition
/// layout before any member is built on it.
sim::ParallelSimulation& checked_engine(sim::Simulation& sim,
                                        const Cluster::Config& config) {
  ensure(config.hosts >= 1, "Cluster: need at least one host");
  ensure(config.vms_per_host >= 1, "Cluster: need at least one VM per host");
  ensure(config.shards >= 0, "Cluster: negative shard count");
  ensure(config.engine != nullptr &&
             config.engine->partition_count() ==
                 1 + config.shards + config.hosts,
         "Cluster: needs an engine with 1 + shards + hosts partitions "
         "(control plane, one per balancer shard, one per host)");
  ensure(&sim == &config.engine->partition(0),
         "Cluster: sim must be the engine's control partition (0)");
  // Every host reaches the control plane over its calibrated link; the
  // minimum of those latencies is the engine's lookahead.
  config.engine->register_link(config.calib.link.latency);
  return *config.engine;
}

}  // namespace

Cluster::Cluster(sim::Simulation& sim, Config config)
    : sim_(sim),
      engine_(checked_engine(sim, config)),
      config_(config),
      // With shards == 0 the one shard shares the control partition, so
      // the client fleet's dispatches start there without a routing hop.
      balancer_(engine_, static_cast<std::size_t>(std::max(config.shards, 1)),
                config.shards > 0 ? 1 : 0, config.calib.link.latency) {
  host_supervisors_.resize(static_cast<std::size_t>(config_.hosts));
  steady_slots_.resize(static_cast<std::size_t>(config_.hosts));
  crash_down_.assign(static_cast<std::size_t>(config_.hosts), 0);
  recently_recovered_.assign(static_cast<std::size_t>(config_.hosts), 0);
  for (int h = 0; h < config_.hosts; ++h) {
    hosts_.push_back(std::make_unique<vmm::Host>(
        engine_.partition(partition_of(h)), config_.calib,
        config_.seed + static_cast<std::uint64_t>(h)));
    // Arm fault injection (a no-op drawing nothing when all rates are
    // zero) before any other per-host RNG use, so the fault substream is
    // a fixed function of the host seed alone.
    hosts_.back()->configure_faults(config_.faults);
    if (config_.observe) hosts_.back()->obs().set_enabled(true);
    guests_.emplace_back();
    for (int v = 0; v < config_.vms_per_host; ++v) {
      auto g = std::make_unique<guest::GuestOs>(
          *hosts_.back(),
          "web-h" + std::to_string(h) + "-v" + std::to_string(v),
          config_.vm_memory);
      g->add_service(std::make_unique<guest::ApacheService>());
      for (int f = 0; f < config_.files_per_vm; ++f) {
        g->vfs().create_file("doc" + std::to_string(f), config_.file_size);
      }
      // The balancer probes reachability live (a request to a
      // still-booting VM fails and the client retries), so backends
      // register at construction instead of boot completion.
      auto* apache =
          static_cast<guest::ApacheService*>(g->find_service("httpd"));
      std::vector<std::int64_t> files;
      for (int f = 0; f < config_.files_per_vm; ++f) files.push_back(f);
      balancer_.add_backend({g.get(), apache, std::move(files),
                             static_cast<std::size_t>(h), partition_of(h)});
      guests_.back().push_back(std::move(g));
    }
  }
}

Cluster::~Cluster() = default;

vmm::Host& Cluster::host(int i) {
  ensure(i >= 0 && i < config_.hosts, "Cluster::host: index out of range");
  return *hosts_[static_cast<std::size_t>(i)];
}

guest::GuestOs& Cluster::guest(int host, int vm) {
  ensure(host >= 0 && host < config_.hosts, "Cluster::guest: bad host");
  ensure(vm >= 0 && vm < config_.vms_per_host, "Cluster::guest: bad vm");
  return *guests_[static_cast<std::size_t>(host)][static_cast<std::size_t>(vm)];
}

std::vector<guest::GuestOs*> Cluster::guests_of(int host) {
  ensure(host >= 0 && host < config_.hosts, "Cluster::guests_of: bad host");
  std::vector<guest::GuestOs*> out;
  for (auto& g : guests_[static_cast<std::size_t>(host)]) out.push_back(g.get());
  return out;
}

void Cluster::start(std::function<void()> on_ready) {
  ensure(static_cast<bool>(on_ready), "Cluster::start: callback required");
  auto remaining =
      std::make_shared<std::size_t>(static_cast<std::size_t>(config_.hosts) *
                                    static_cast<std::size_t>(config_.vms_per_host));
  auto shared_ready = std::make_shared<std::function<void()>>(std::move(on_ready));
  for (int h = 0; h < config_.hosts; ++h) {
    hosts_[static_cast<std::size_t>(h)]->instant_start();
    for (auto& g : guests_[static_cast<std::size_t>(h)]) {
      // Boot completion fires on the host's partition; the countdown is
      // control-plane state, so it crosses through the mailboxes (merge
      // order makes it deterministic).
      g->create_and_boot([this, remaining, shared_ready] {
        to_control([remaining, shared_ready] {
          if (--*remaining == 0) (*shared_ready)();
        });
      });
    }
  }
}

void Cluster::to_control(sim::InlineCallback fn) {
  engine_.post(0, config_.calib.link.latency, std::move(fn));
}

void Cluster::to_host(std::size_t host_index, sim::InlineCallback fn) {
  engine_.post(partition_of(static_cast<int>(host_index)),
               config_.calib.link.latency, std::move(fn));
}

void Cluster::start_steady_faults(const SteadyFaultsConfig& config) {
  ensure(!steady_started_, "start_steady_faults: already armed");
  steady_started_ = true;
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    engine_.run_on(partition_of(static_cast<int>(h)), [this, h, config] {
      vmm::Host& host = *hosts_[h];
      SteadySlot& slot = steady_slots_[h];
      slot.driver = std::make_unique<rejuv::RecoveryDriver>(
          host, guests_of(static_cast<int>(h)), config.supervisor);
      slot.process = std::make_unique<fault::SteadyFaultProcess>(
          host.sim(), host.faults(), config.process);
      // With both steady rates zero this schedules nothing and draws
      // nothing: arming is free on fault-free runs.
      slot.process->start(
          [this, h](fault::FaultKind kind) { steady_fault(h, kind); });
    });
  }
}

void Cluster::stop_steady_faults() {
  // Each process lives on its host's partition; disarm it there.
  for (std::size_t h = 0; h < steady_slots_.size(); ++h) {
    engine_.run_on(partition_of(static_cast<int>(h)), [this, h] {
      if (steady_slots_[h].process != nullptr) steady_slots_[h].process->stop();
    });
  }
  steady_started_ = false;
}

// Runs on the host's partition: one steady fault arrival. The driver
// either absorbs it (a ladder already owns the host) or answers with a
// fresh supervised ladder; the control plane learns of the outage start
// and the outcome over the mailboxes, exactly like any other RPC.
void Cluster::steady_fault(std::size_t host_index, fault::FaultKind kind) {
  vmm::Host& host = *hosts_[host_index];
  SteadySlot& slot = steady_slots_[host_index];
  if (host.obs().enabled()) {
    host.obs().emit(host.sim().now(), obs::Category::kFault,
                    obs::EventKind::kSteadyFault, fault::to_string(kind),
                    static_cast<std::int32_t>(host_index),
                    static_cast<std::uint64_t>(kind));
    ++host.obs().metrics().counter("host.steady_faults");
  }
  if (!slot.driver->would_absorb()) {
    to_control([this, host_index] { on_unplanned_down(host_index); });
  }
  slot.driver->on_failure(
      kind, [this, host_index,
             &slot](const rejuv::RecoveryDriver::Outcome& out) {
        vmm::Host& h = *hosts_[host_index];
        if (out.absorbed) {
          if (h.obs().enabled()) {
            ++h.obs().metrics().counter("host.unplanned_absorbed");
          }
          to_control([this] { ++unplanned_.absorbed; });
          if (slot.process->running()) slot.process->resume();
          return;
        }
        const bool success = out.report->success;
        const bool micro = out.report->micro_recovered;
        const sim::Duration took = out.report->total_duration();
        if (h.obs().enabled()) {
          auto& m = h.obs().metrics();
          m.counter("host.unplanned_downtime_us") +=
              static_cast<std::uint64_t>(took);
          ++m.counter(success ? "host.unplanned_recoveries"
                              : "host.unplanned_unrecovered");
        }
        to_control([this, host_index, success, micro, took] {
          on_unplanned_outcome(host_index, success, micro, took);
        });
        // A ladder that outlived stop_steady_faults() must not re-arm the
        // dropped handler.
        if (slot.process->running()) slot.process->resume();
      });
}

void Cluster::check_unplanned_identity() const {
  ensure(unplanned_.failures == unplanned_.recoveries + unplanned_.unrecovered +
                                    unplanned_.in_flight,
         "Cluster: every unplanned ladder must be recovered, unrecovered or "
         "in flight");
}

void Cluster::on_unplanned_down(std::size_t host_index) {
  ++unplanned_.failures;
  ++unplanned_.in_flight;
  check_unplanned_identity();
  crash_down_[host_index] = 1;
  // Ground truth for the telemetry plane's detection-latency metric.
  if (scraper_ != nullptr) scraper_->note_host_down(host_index);
  // Crash-evict: federated spillover absorbs the outage like a planned
  // wave; the readmit rides the recovery outcome. The crash flag is kept
  // apart from administrative eviction, so neither cancels the other.
  balancer_.set_host_crashed(host_index, true);
}

void Cluster::on_unplanned_outcome(std::size_t host_index, bool success,
                                   bool micro, sim::Duration took) {
  crash_down_[host_index] = 0;
  --unplanned_.in_flight;
  unplanned_.downtime += took;
  if (success) {
    ++unplanned_.recoveries;
    if (micro) ++unplanned_.micro_recoveries;
    balancer_.set_host_crashed(host_index, false);
    recently_recovered_[host_index] = 1;
    if (scraper_ != nullptr) scraper_->note_host_up(host_index);
  } else {
    // The unplanned ladder exhausted: the host stays crash-evicted. If a
    // wave pass still had it pending, skip it -- running a planned turn
    // on a dead host is pointless (and the Supervisor would refuse).
    ++unplanned_.unrecovered;
    if (wave_ != nullptr && wave_->scheduled[host_index] == 0) {
      wave_->scheduled[host_index] = 1;
      --wave_->remaining;
      wave_report_.unrecovered_hosts.push_back(host_index);
    }
    // The host stays down (down_since_ keeps its mark); flag it for a
    // flight-recorder dump.
    if (scraper_ != nullptr) scraper_->note_unrecovered(host_index);
  }
  check_unplanned_identity();
  wave_kick();
}

std::pair<std::uint64_t, std::int64_t> Cluster::host_signals(
    std::size_t host_index, bool mirror) {
  vmm::Host& h = *hosts_[host_index];
  std::uint64_t load = 0;
  for (auto& g : guests_[host_index]) {
    auto* apache =
        static_cast<guest::ApacheService*>(g->find_service("httpd"));
    if (apache != nullptr) load += apache->requests_served();
  }
  const std::int64_t budget = h.preserved().frame_budget();
  // 0 == unlimited budget: headroom is effectively infinite, so those
  // hosts sort after every budget-constrained one.
  const std::int64_t headroom =
      budget == 0 ? std::numeric_limits<std::int64_t>::max()
                  : budget - h.preserved().reserved_frames();
  if (mirror) {
    auto& m = h.obs().metrics();
    m.gauge("host.load") = static_cast<double>(load);
    m.gauge("host.preserved_headroom") =
        headroom == std::numeric_limits<std::int64_t>::max()
            ? std::numeric_limits<double>::infinity()
            : static_cast<double>(headroom);
  }
  return {load, headroom};
}

// Exporter collect hook, on the host's partition. Mirrors the signals
// unconditionally: scraping may run with Config::observe off, and the
// scraped samples ARE the control plane's only view of the host.
void Cluster::collect_host_metrics(std::size_t host_index) {
  (void)host_signals(host_index, /*mirror=*/true);
  hosts_[host_index]->obs().metrics().counter("host.vmm_generation") =
      static_cast<std::uint64_t>(hosts_[host_index]->vmm_generation());
}

void Cluster::start_scraping(const ScrapeConfig& config) {
  ensure(scraper_ == nullptr, "start_scraping: already armed");
  scraper_ = std::make_unique<MetricsScraper>(*this, config);
  scraper_->start();
}

void Cluster::set_scrape_admission_blocked(bool blocked) {
  if (scrape_blocked_ == blocked) return;
  scrape_blocked_ = blocked;
  // Burn rate cooled down: resume a pass the gate paused.
  if (!blocked) wave_kick();
}

void Cluster::rolling_rejuvenation_waves(
    WaveConfig config, std::function<void(const WaveReport&)> on_done) {
  ensure(static_cast<bool>(on_done),
         "rolling_rejuvenation_waves: callback required");
  ensure(wave_ == nullptr,
         "rolling_rejuvenation_waves: a rolling pass is already in progress");
  ensure(config.wave_size >= 1, "rolling_rejuvenation_waves: wave_size >= 1");
  ensure(config.signals != WaveSignalSource::kScraped || scraper_ != nullptr,
         "rolling_rejuvenation_waves: scraped signals require "
         "start_scraping()");
  durations_.clear();
  wave_report_ = {};
  wave_ = std::make_unique<WaveState>();
  wave_->config = config;
  // The wave's reboot kind overrides the supervisor's preferred mechanism.
  wave_->config.supervisor.preferred = config.kind;
  wave_->on_done = std::move(on_done);
  const auto n = hosts_.size();
  wave_->scheduled.assign(n, 0);
  wave_->load.assign(n, 0);
  wave_->headroom.assign(n, 0);
  wave_->remaining = n;
  wave_gather();
}

// Admission needs no signals, so it is decided first on both paths: a
// paused pass reads no store and sends no probe.
void Cluster::wave_gather() {
  if (wave_->remaining == 0) {
    wave_retry(0);
    return;
  }
  std::vector<std::size_t> candidates;
  const std::size_t k = wave_admit(candidates);
  if (k == 0) return;
  if (wave_->config.signals == WaveSignalSource::kScraped) {
    // Production-shaped ordering: the latest scraped samples, read
    // straight off the control partition's TimeSeriesStore. No
    // host-partition probe at all -- the scheduler sees exactly what the
    // telemetry plane saw, up to one scrape interval old.
    for (const std::size_t h : candidates) {
      const auto [load, headroom] = scraper_->wave_signals(h);
      wave_->load[h] = load;
      wave_->headroom[h] = headroom;
    }
    wave_launch(std::move(candidates), k);
    return;
  }
  // Wire-tap: one signal probe per candidate. The probe runs on the
  // host's partition and the values travel back over the mailboxes, so
  // the schedule derived from them is worker-count invariant.
  wave_->replies_pending = candidates.size();
  for (const std::size_t h : candidates) {
    to_host(h, [this, h] {
      const auto [load, headroom] =
          host_signals(h, hosts_[h]->obs().enabled());
      to_control([this, h, load, headroom] {
        wave_collect(h, load, headroom);
      });
    });
  }
}

void Cluster::wave_collect(std::size_t host_index, std::uint64_t load,
                           std::int64_t headroom) {
  wave_->load[host_index] = load;
  wave_->headroom[host_index] = headroom;
  if (--wave_->replies_pending != 0) return;
  // Crashes or the SLO gate may have moved during the round trip, so the
  // launch takes a fresh admission decision.
  std::vector<std::size_t> candidates;
  const std::size_t k = wave_admit(candidates);
  if (k != 0) wave_launch(std::move(candidates), k);
}

std::size_t Cluster::wave_admit(std::vector<std::size_t>& candidates) {
  // SLO burn-rate gate (DESIGN.md §15): while the telemetry plane says
  // the fleet is eating error budget too fast, planned maintenance
  // admits nothing; the gate clearing kicks the pass awake.
  if (scrape_blocked_) {
    wave_->paused = true;
    ++wave_report_.admission_pauses;
    return 0;
  }
  // The wave size is the downtime budget, and unplanned crashes spend it
  // like planned turns: admission pauses when crashes alone exhaust it,
  // and the next unplanned recovery replans the remaining order from live
  // outcomes (wave_kick).
  const std::size_t budget = static_cast<std::size_t>(wave_->config.wave_size);
  const std::size_t down_now = unplanned_down_hosts();
  std::size_t k = budget > down_now ? budget - down_now : 0;
  if (k != 0) {
    // Hosts currently down from an unplanned crash are not candidates (a
    // turn cannot run on a dead host) but still count against the
    // budget above.
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      if (wave_->scheduled[h] == 0 && crash_down_[h] == 0) {
        candidates.push_back(h);
      }
    }
    k = std::min(k, candidates.size());
  }
  if (k == 0) {
    wave_->paused = true;
    ++wave_report_.admission_pauses;
  }
  return k;
}

void Cluster::wave_launch(std::vector<std::size_t> candidates, std::size_t k) {
  // Least-loaded hosts first so the wave drains as few active sessions as
  // possible; among equals, the memory-tightest (smallest preserved
  // headroom) host rejuvenates first; host index breaks remaining ties so
  // the schedule is a pure function of the gathered signals. Hosts that
  // just micro-recovered sort last: they were freshly rebuilt moments ago
  // and their sessions just finished failing over.
  std::sort(candidates.begin(), candidates.end(),
            [this](std::size_t a, std::size_t b) {
              if (recently_recovered_[a] != recently_recovered_[b]) {
                return recently_recovered_[a] < recently_recovered_[b];
              }
              if (wave_->load[a] != wave_->load[b]) {
                return wave_->load[a] < wave_->load[b];
              }
              if (wave_->headroom[a] != wave_->headroom[b]) {
                return wave_->headroom[a] < wave_->headroom[b];
              }
              return a < b;
            });
  WaveReport::Wave wave;
  wave.started = sim_.now();
  wave.hosts.assign(candidates.begin(),
                    candidates.begin() + static_cast<std::ptrdiff_t>(k));
  wave_report_.waves.push_back(std::move(wave));
  wave_->inflight = k;
  wave_->remaining -= k;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t h = wave_report_.waves.back().hosts[i];
    wave_->scheduled[h] = 1;
    recently_recovered_[h] = 0;
    wave_run_host(h);
  }
}

void Cluster::wave_kick() {
  if (wave_ == nullptr || !wave_->paused || wave_->inflight != 0) return;
  wave_->paused = false;
  wave_gather();
}

void Cluster::wave_run_host(std::size_t host_index) {
  // Every wave turn is supervised: a mid-wave VMM failure walks the
  // degradation ladder instead of aborting the pass. The supervisor lives
  // and dies on the host's partition; the reply carries the report by
  // value.
  to_host(host_index, [this, host_index, scfg = wave_->config.supervisor] {
    vmm::Host& h = *hosts_[host_index];
    if (!h.up() || h.recovery_in_progress()) {
      // An unplanned ladder took the host between launch and arrival
      // (the crash notification may still be in flight): hand the turn
      // back instead of colliding with the overlap guard.
      to_control([this, host_index] { wave_host_deferred(host_index); });
      return;
    }
    obs::SpanId turn = obs::kNoSpan;
    if (h.obs().enabled()) {
      turn = h.obs().span_open(h.sim().now(), obs::Phase::kRollingPass,
                               "wave turn host " + std::to_string(host_index));
      h.obs().set_ambient(turn);
    }
    auto& slot = host_supervisors_[host_index];
    slot = std::make_unique<rejuv::Supervisor>(
        h, guests_of(static_cast<int>(host_index)), scfg);
    slot->run([this, host_index, turn](const rejuv::SupervisorReport& report) {
      vmm::Host& done_host = *hosts_[host_index];
      done_host.obs().span_close(turn, done_host.sim().now());
      done_host.obs().set_ambient(obs::kNoSpan);
      to_control([this, host_index, report]() mutable {
        wave_host_done(host_index, std::move(report));
      });
    });
  });
}

void Cluster::wave_host_deferred(std::size_t host_index) {
  ++wave_report_.deferred_turns;
  wave_->scheduled[host_index] = 0;
  ++wave_->remaining;
  if (--wave_->inflight == 0) {
    wave_report_.waves.back().finished = sim_.now();
    wave_gather();
  }
}

void Cluster::wave_host_done(std::size_t host_index,
                             rejuv::SupervisorReport report) {
  durations_.push_back(report.total_duration());
  wave_report_.planned_downtime += report.total_duration();
  WaveReport::Wave& wave = wave_report_.waves.back();
  wave.outcome_hosts.push_back(host_index);
  if (!report.success) {
    // The ladder exhausted mid-wave: take the host's backends out of
    // rotation and queue it for an end-of-pass retry. The pass goes on.
    balancer_.set_host_evicted(host_index, true);
    wave_->retry_queue.push_back(host_index);
  } else {
    ++wave_report_.hosts_rejuvenated;
    if (report.completed != report.attempted) {
      wave_report_.degraded_hosts.push_back(host_index);
    }
  }
  wave.outcomes.push_back(std::move(report));
  if (--wave_->inflight == 0) {
    // Wave barrier: the next gather (and wave) starts only when every
    // host in this wave is back -- the budget is never exceeded.
    wave_report_.waves.back().finished = sim_.now();
    wave_gather();
  }
}

// Runs once the last wave is done: each evicted host in turn gets
// Supervisor::recover (boots only its halted VMs) after a capped
// exponential backoff, then the pass reports.
void Cluster::wave_retry(int attempt) {
  if (wave_->retry_next == wave_->retry_queue.size()) {
    ensure(wave_report_.hosts_rejuvenated +
                   wave_report_.recovered_hosts.size() +
                   wave_report_.unrecovered_hosts.size() ==
               hosts_.size(),
           "rolling_rejuvenation_waves: every host must end the pass "
           "rejuvenated, recovered or unrecovered");
    auto on_done = std::move(wave_->on_done);
    wave_.reset();
    on_done(wave_report_);
    return;
  }
  const std::size_t host_index = wave_->retry_queue[wave_->retry_next];
  const sim::Duration backoff =
      sim::capped_backoff(kHostRetryBase, kHostRetryCap,
                          static_cast<std::uint64_t>(attempt));
  sim_.after(backoff, [this, host_index, attempt,
                       scfg = wave_->config.supervisor] {
    to_host(host_index, [this, host_index, attempt, scfg] {
      vmm::Host& h = *hosts_[host_index];
      if (!h.up() || h.recovery_in_progress()) {
        // Steady faults: the host is down or an unplanned ladder owns it.
        // Supervisor::recover would trip the overlap guard, so this
        // attempt fails and backs off like any other.
        to_control([this, host_index, attempt] {
          wave_retry_done(host_index, attempt, nullptr);
        });
        return;
      }
      auto& slot = host_supervisors_[host_index];
      slot = std::make_unique<rejuv::Supervisor>(
          h, guests_of(static_cast<int>(host_index)), scfg);
      slot->recover([this, host_index,
                     attempt](const rejuv::SupervisorReport& report) {
        to_control([this, host_index, attempt, report] {
          wave_retry_done(host_index, attempt, &report);
        });
      });
    });
  });
}

void Cluster::wave_retry_done(std::size_t host_index, int attempt,
                              const rejuv::SupervisorReport* report) {
  if (report != nullptr) wave_report_.retries.push_back(*report);
  if (report != nullptr && report->success) {
    balancer_.set_host_evicted(host_index, false);
    wave_report_.recovered_hosts.push_back(host_index);
  } else if (attempt < kMaxHostRetries) {
    wave_retry(attempt + 1);
    return;
  } else {
    wave_report_.unrecovered_hosts.push_back(host_index);
  }
  ++wave_->retry_next;
  wave_retry(0);
}

}  // namespace rh::cluster
