#include "rejuv/supervisor.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "mm/balloon.hpp"
#include "simcore/check.hpp"

namespace rh::rejuv {

namespace {

// Fixed cost of one micro-recovery rebuild attempt, on top of the metadata
// copy time charged at registry bytes / Calibration::mem_copy_bps.
constexpr sim::Duration kMicroAttemptBase = 200 * sim::kMillisecond;
// Rebuild attempts before falling down to hardware reboot + cold.
constexpr int kMicroMaxAttempts = 2;
// Retries per failing step (xexec load, guest boot) before degrading.
constexpr int kMaxStepRetries = 2;
// Backoff before retry k is min(kBackoffCap, kBackoffBase * 2^k); it draws
// nothing from the host RNG.
constexpr sim::Duration kBackoffBase = 2 * sim::kSecond;
constexpr sim::Duration kBackoffCap = 5 * sim::kMinute;
// A guest boot that has not completed after this long is declared hung and
// force-powered off (kGuestBootHang never completes on its own).
constexpr sim::Duration kBootWatchdog = 10 * sim::kMinute;
// Latency before a kVmmHang is acted on: a crash announces itself, a wedged
// hypervisor is only visible once the external watchdog fires.
constexpr sim::Duration kHangDetection = sim::kSecond;

sim::Duration backoff(int attempt) {
  return sim::capped_backoff(kBackoffBase, kBackoffCap,
                             static_cast<std::uint64_t>(attempt));
}

}  // namespace

const char* to_string(RebootKind k) {
  switch (k) {
    case RebootKind::kWarm: return "warm-VM reboot";
    case RebootKind::kSaved: return "saved-VM reboot";
    case RebootKind::kCold: return "cold-VM reboot";
  }
  return "unknown";
}

const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kStepRetry: return "step-retry";
    case RecoveryAction::kWatchdogPowerOff: return "watchdog-power-off";
    case RecoveryAction::kFallbackToSaved: return "fallback-to-saved";
    case RecoveryAction::kFallbackToCold: return "fallback-to-cold";
    case RecoveryAction::kColdBootSingleVm: return "cold-boot-single-vm";
    case RecoveryAction::kHardwareRebootAfterCrash:
      return "hardware-reboot-after-crash";
    case RecoveryAction::kGaveUp: return "gave-up";
    case RecoveryAction::kBalloonReclaim: return "balloon-reclaim";
    case RecoveryAction::kDemoteToSaved: return "demote-to-saved";
    case RecoveryAction::kPreservedImageLost: return "preserved-image-lost";
    case RecoveryAction::kMicroRecoveryAttempt: return "micro-recovery-attempt";
    case RecoveryAction::kMicroRecoverySucceeded:
      return "micro-recovery-succeeded";
    case RecoveryAction::kMicroRecoveryFailed: return "micro-recovery-failed";
    case RecoveryAction::kMicroRecoveryMetadataCorrupt:
      return "micro-recovery-metadata-corrupt";
  }
  return "unknown";
}

std::size_t SupervisorReport::recovery_count(RecoveryAction a) const {
  return static_cast<std::size_t>(
      std::count(recoveries.begin(), recoveries.end(), a));
}

Supervisor::Supervisor(vmm::Host& host, std::vector<guest::GuestOs*> guests,
                       SupervisorConfig config)
    : host_(host), guests_(std::move(guests)), config_(config) {
  if (config_.micro.enabled) {
    ensure(config_.micro.success_rate >= 0.0 &&
               config_.micro.success_rate <= 1.0,
           "Supervisor: micro-recovery success rate out of [0, 1]");
  }
  for (const auto* g : guests_) ensure(g != nullptr, "Supervisor: null guest");
}

void Supervisor::record(RecoveryAction action) {
  report_.recoveries.push_back(action);
  // Mirror the recovery action into the trace stream and bump the
  // per-action counter that the availability sweeps aggregate.
  obs::Observer& obs = host_.obs();
  if (obs.enabled()) {
    obs.emit(host_.sim().now(), obs::Category::kSupervisor,
             obs::EventKind::kRecovery, to_string(action), -1,
             static_cast<std::uint64_t>(action));
    ++obs.metrics().counter(std::string("supervisor.recovery.") +
                            to_string(action));
  }
}

void Supervisor::open_rung(const char* label) {
  obs::Observer& obs = host_.obs();
  if (!obs.enabled()) return;
  if (rung_span_ != obs::kNoSpan) {
    obs.span_close(rung_span_, host_.sim().now());
  }
  rung_span_ = obs.span_open_under(host_.sim().now(), obs::Phase::kLadderRung,
                                   label, pass_span_);
  obs.set_ambient(rung_span_);
}

Supervisor::GuestList Supervisor::suspendable_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (!g->driver_domain()) out.push_back(g);
  }
  return out;
}

Supervisor::GuestList Supervisor::driver_domain_guests() const {
  GuestList out;
  for (auto* g : guests_) {
    if (g->driver_domain()) out.push_back(g);
  }
  return out;
}

void Supervisor::for_each_parallel(
    const GuestList& guests,
    const std::function<void(guest::GuestOs&, std::function<void()>)>& fn,
    std::function<void()> done) {
  if (guests.empty()) {
    host_.sim().after(0, std::move(done));
    return;
  }
  auto remaining = std::make_shared<std::size_t>(guests.size());
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (auto* g : guests) {
    fn(*g, [remaining, shared_done] {
      if (--*remaining == 0) (*shared_done)();
    });
  }
}

void Supervisor::step(const char* label, const std::function<void(Done)>& body,
                      Done next) {
  const std::size_t i = report_.steps.size();
  const sim::SimTime now = host_.sim().now();
  report_.steps.push_back({label, now, now});
  body([this, i, parent = host_.obs().ambient(), next = std::move(next)] {
    StepRecord& rec = report_.steps[i];
    rec.end = host_.sim().now();
    host_.obs().span_complete_under(rec.start, rec.end, obs::Phase::kStep,
                                    rec.label, parent);
    next();
  });
}

void Supervisor::begin_pass(const char* entry,
                            std::function<void(const SupervisorReport&)> done,
                            const std::string& pass_label,
                            bool vmm_failure_kind) {
  const auto message = [entry](const char* what) {
    return [entry, what] {
      return std::string("Supervisor::") + entry + ": " + what;
    };
  };
  ensure(static_cast<bool>(done), message("callback required"));
  ensure(!started_, message("supervisors are one-shot"));
  ensure(host_.up(), message("host is not up"));
  ensure(vmm_failure_kind, message("not a VMM failure kind"));
  host_.begin_recovery();
  started_ = true;
  done_ = std::move(done);
  report_.attempted = config_.preferred;
  report_.started_at = host_.sim().now();
  if (host_.obs().enabled()) {
    outer_ambient_ = host_.obs().ambient();
    pass_span_ = host_.obs().span_open(report_.started_at, obs::Phase::kPass,
                                       pass_label);
    host_.obs().set_ambient(pass_span_);
  }
}

void Supervisor::run(std::function<void(const SupervisorReport&)> done) {
  begin_pass("run", std::move(done),
             std::string("supervised ") + to_string(config_.preferred));

  // Aging can win the race against the rejuvenation timer: the VMM dies
  // right as (or before) the pass begins, taking every domain with it.
  // This is the quiescent point -- no mechanism is mid-flight -- so the
  // crash tears down state without leaving dangling continuations.
  if (host_.faults().roll(fault::FaultKind::kVmmCrash, host_.sim().now(),
                          "pre-rejuvenation")) {
    handle_vmm_failure(fault::FaultKind::kVmmCrash);
    return;
  }
  // A wedge instead of a clean crash: same quiescent point, but the
  // response only starts once the external watchdog notices. Zero draws
  // when the hang rate is not configured.
  if (host_.faults().roll(fault::FaultKind::kVmmHang, host_.sim().now(),
                          "pre-rejuvenation")) {
    handle_vmm_failure(fault::FaultKind::kVmmHang);
    return;
  }

  switch (config_.preferred) {
    case RebootKind::kWarm: start_warm(); return;
    case RebootKind::kSaved: start_saved(); return;
    case RebootKind::kCold: start_cold(); return;
  }
  throw InvariantViolation("Supervisor::run: bad reboot kind");
}

void Supervisor::recover(std::function<void(const SupervisorReport&)> done) {
  GuestList halted;
  for (auto* g : guests_) {
    if (g->state() == guest::OsState::kHalted) halted.push_back(g);
  }
  begin_pass("recover", std::move(done), "supervised recovery");
  boot_then_finish("halted VM boot", halted, config_.preferred);
}

// ----------------------------------------------------------- VMM failure

void Supervisor::respond_to_failure(
    fault::FaultKind kind, std::function<void(const SupervisorReport&)> done) {
  begin_pass("respond_to_failure", std::move(done),
             std::string("failure response (") + fault::to_string(kind) + ")",
             kind == fault::FaultKind::kVmmCrash ||
                 kind == fault::FaultKind::kVmmHang);
  handle_vmm_failure(kind);
}

void Supervisor::handle_vmm_failure(fault::FaultKind kind) {
  report_.vmm_crashed = true;
  auto proceed = [this, kind] {
    if (config_.micro.enabled) {
      start_micro(kind);
    } else {
      crash_fallback(/*micro_exhausted=*/false);
    }
  };
  if (kind == fault::FaultKind::kVmmHang) {
    // A crash announces itself instantly; a wedged hypervisor is only
    // visible once the external watchdog fires, so the response starts
    // after the detection latency (the teardown is modelled at the
    // detection point).
    host_.sim().after(host_.jittered(kHangDetection), std::move(proceed));
    return;
  }
  proceed();
}

void Supervisor::crash_fallback(bool micro_exhausted) {
  open_rung("hardware-reboot-after-crash");
  if (micro_exhausted) {
    // Micro-recovery gave up; whatever preserved state the attempts were
    // working over is abandoned before the power cycle.
    host_.abandon_recovery();
  } else {
    host_.crash_vmm();
  }
  // Every domain died with the hypervisor; the guest objects must observe
  // that before they can be cold-booted.
  for (auto* g : guests_) g->force_power_off();
  record(RecoveryAction::kHardwareRebootAfterCrash);
  hardware_reset_step([this] {
    boot_then_finish("guest OS boot", guests_, RebootKind::kCold);
  });
}

// -------------------------------- in-place micro-recovery (DESIGN.md §13)

sim::Bytes Supervisor::micro_repair_bytes() const {
  // The rebuild walks every crash snapshot (to re-link P2M and event-
  // channel state into the new instance) plus per-domain heap metadata.
  sim::Bytes total = 0;
  for (const auto& name : host_.preserved().names()) {
    if (name.rfind(vmm::Vmm::kRegionPrefix, 0) != 0) continue;
    if (const auto* region = host_.preserved().find(name)) {
      total += region->charged_size() + vmm::Vmm::kDomainHeapCost;
    }
  }
  return total;
}

void Supervisor::start_micro(fault::FaultKind kind) {
  open_rung("micro-recovery");
  // Cut crash snapshots and take the instance down; RAM (and with it the
  // registry) survives for the rebuild.
  host_.fail_vmm(kind);
  // The vCPUs stopped cold under every guest. Memory-preserved guests are
  // frozen in place for a later resume; driver domains lose their backend
  // hardware state with the instance, so they go down for a cold boot
  // exactly as on the warm rung.
  for (auto* g : guests_) {
    if (!g->driver_domain() && g->state() == guest::OsState::kRunning) {
      g->interrupt_for_vmm_failure();
    } else {
      g->force_power_off();
    }
  }
  micro_attempt(0);
}

void Supervisor::micro_attempt(int attempt) {
  ++report_.micro_attempts;
  record(RecoveryAction::kMicroRecoveryAttempt);
  const sim::Duration repair =
      kMicroAttemptBase +
      sim::transfer_time(micro_repair_bytes(), host_.calib().mem_copy_bps);
  const obs::SpanId span =
      host_.obs().span_open(host_.sim().now(), obs::Phase::kMicroRecovery,
                            "micro-recovery attempt");
  host_.sim().after(host_.jittered(repair), [this, attempt, span] {
    host_.obs().span_close(span, host_.sim().now());
    if (host_.rng().uniform01() >= config_.micro.success_rate) {
      record(RecoveryAction::kMicroRecoveryFailed);
      if (attempt + 1 < kMicroMaxAttempts) {
        micro_attempt(attempt + 1);
      } else {
        crash_fallback(/*micro_exhausted=*/true);
      }
      return;
    }
    const vmm::Vmm::MicroRecoveryReport vr = host_.micro_recover_vmm();
    if (!vr.ok()) {
      record(RecoveryAction::kMicroRecoveryMetadataCorrupt);
      crash_fallback(/*micro_exhausted=*/true);
      return;
    }
    record(RecoveryAction::kMicroRecoverySucceeded);
    report_.micro_recovered = true;
    micro_resume_phase();
  });
}

void Supervisor::micro_resume_phase() {
  sweep_stale_regions();
  // Driver domains never resume over a rebuilt VMM; their crash snapshots
  // are dead weight in the registry.
  for (auto* g : driver_domain_guests()) {
    if (host_.vmm().has_preserved_image(g->name())) {
      discard_preserved_image(g->name());
    }
  }
  // Same per-VM ladder as the warm resume: a missing or corrupt snapshot
  // degrades that VM alone to a cold boot while its siblings resume.
  GuestList frozen;
  for (auto* g : suspendable_guests()) {
    if (g->state() == guest::OsState::kSuspended) frozen.push_back(g);
  }
  resume_verified(frozen, [this] { boot_rest(RebootKind::kWarm); });
}

// ------------------------------------------------------------------ warm

void Supervisor::start_warm() {
  open_rung("warm-VM reboot");
  attempt_xexec(0);
}

void Supervisor::attempt_xexec(int attempt) {
  // dom0 loads the new VMM image via the xexec system call while
  // everything still runs.
  step(
      "load xexec image",
      [this](Done done) { host_.vmm().xexec_load(std::move(done)); },
      [this, attempt] {
        if (host_.vmm().xexec_loaded()) {
          warm_after_xexec();
          return;
        }
        if (attempt < kMaxStepRetries) {
          record(RecoveryAction::kStepRetry);
          host_.sim().after(backoff(attempt),
                            [this, attempt] { attempt_xexec(attempt + 1); });
          return;
        }
        // Nothing has been disturbed yet -- every guest still answers -- so
        // degrading to the saved-VM reboot is a clean restart of the ladder.
        record(RecoveryAction::kFallbackToSaved);
        start_saved();
      });
}

void Supervisor::warm_after_xexec() {
  auto proceed = [this] {
    // Driver domains cannot be suspended (Sec. 7): they get a cold
    // shutdown/boot even in the warm path.
    const GuestList drivers = driver_domain_guests();
    if (drivers.empty()) {
      warm_suspend();
      return;
    }
    step(
        "driver domain shutdown",
        [this, drivers](Done done) {
          shutdown_guests(drivers, std::move(done));
        },
        [this] { warm_suspend(); });
  };
  // Preserved-memory admission happens before anything is disturbed:
  // reclaims and demotions need xend (and for saves, the disk path)
  // while dom0 is still up. Disabled admission takes the historical path
  // verbatim -- no extra events, no extra RNG draws.
  if (config_.admission) {
    run_admission(std::move(proceed));
  } else {
    proceed();
  }
}

void Supervisor::warm_suspend() {
  const auto suspend = [this](Done next) {
    step(
        "on-memory suspend",
        [this](Done done) {
          host_.vmm().suspend_all_on_memory(std::move(done));
        },
        std::move(next));
  };
  // Quick reload: a new VMM instance without a hardware reset; RAM (and
  // the frozen images) survive. Includes the dom0 kernel + userland boot.
  const auto reload = [this] {
    step(
        "quick reload + VMM/dom0 boot",
        [this](Done done) { host_.quick_reload(std::move(done)); },
        [this] { warm_resume_phase(); });
  };
  if (host_.calib().suspend_by_vmm_after_dom0_shutdown) {
    // RootHammer ordering: dom0 shuts down first (services in domUs keep
    // answering), then the VMM itself suspends the domains.
    dom0_shutdown_step([suspend, reload] { suspend(reload); });
  } else {
    // Original-Xen ordering (ablation): domain 0 must suspend the domains
    // while it is still up, so services go down earlier.
    suspend([this, reload] { dom0_shutdown_step(reload); });
  }
}

// ------------------------------------------- preserved-memory admission

std::int64_t Supervisor::escalate_demotion(AdmissionPlan& plan) {
  if (plan.warm.empty()) return 0;
  auto [g, demand] = plan.warm.front();
  plan.warm.erase(plan.warm.begin());
  plan.demote_saved.push_back(g);
  return demand;
}

void Supervisor::run_admission(std::function<void()> done) {
  if (host_.obs().enabled()) {
    const obs::SpanId adm = host_.obs().span_open(
        host_.sim().now(), obs::Phase::kAdmission, "admission");
    done = [this, adm, inner = std::move(done)] {
      host_.obs().span_close(adm, host_.sim().now());
      inner();
    };
  }
  AdmissionController controller(host_);
  AdmissionPlan plan = controller.plan(suspendable_guests());
  report_.pressure.consulted = true;
  report_.pressure.budget_frames = plan.budget_frames;
  report_.pressure.demand_frames = plan.demand_frames;
  report_.pressure.pressured = plan.pressured();

  // Rung 1: execute the planned balloon reclaims. An injected reclaim
  // failure (or a short inflate) leaves a residual shortfall that
  // escalates into further demotions, largest surviving warm VM first.
  std::int64_t residual = 0;
  for (const auto& r : plan.reclaims) {
    if (host_.faults().roll(fault::FaultKind::kBalloonReclaimFailure,
                            host_.sim().now(),
                            "admission:" + r.guest->name())) {
      record(RecoveryAction::kBalloonReclaim);
      residual += r.frames;
      continue;
    }
    auto* d = host_.vmm().find_domain_by_name(r.guest->name());
    ensure(d != nullptr, "run_admission: reclaim target has no domain");
    mm::BalloonDriver balloon(d->id(), host_.vmm().allocator(), d->p2m());
    const std::int64_t got = balloon.inflate(r.frames);
    report_.pressure.reclaimed_frames += got;
    residual += r.frames - got;
    record(RecoveryAction::kBalloonReclaim);
  }
  while (residual > 0) {
    const std::int64_t freed = escalate_demotion(plan);
    if (freed == 0) break;  // nothing left to demote; suspend will shed
    residual -= freed;
  }

  report_.pressure.demoted_saved = plan.demote_saved.size();
  admit_saved_ = plan.demote_saved;
  for (std::size_t i = 0; i < admit_saved_.size(); ++i) {
    record(RecoveryAction::kDemoteToSaved);
  }
  save_to_disk(admit_saved_, std::move(done));
}

void Supervisor::sweep_stale_regions() {
  std::vector<std::string> stale;
  for (const auto& name : host_.preserved().names()) {
    if (name.rfind("stale/", 0) == 0) stale.push_back(name);
  }
  for (const auto& name : stale) {
    if (host_.faults().roll(fault::FaultKind::kPreservedRegionLeak,
                            host_.sim().now(), "sweep:" + name)) {
      continue;
    }
    discard_region(name);
  }
}

void Supervisor::discard_region(const std::string& region_name) {
  if (const auto* region = host_.preserved().find(region_name)) {
    // The incoming VMM re-reserved the region's frozen frames; give them
    // back so replacement boots can use the memory.
    auto& alloc = host_.vmm().allocator();
    for (const auto& run : region->frozen_frames) {
      alloc.release_owned(kVmmOwner, run);
    }
  }
  host_.preserved().erase(region_name);
}

void Supervisor::discard_preserved_image(const std::string& guest_name) {
  const std::string region_name =
      std::string(vmm::Vmm::kRegionPrefix) + guest_name;
  const auto* region = host_.preserved().find(region_name);
  if (region != nullptr &&
      host_.faults().roll(fault::FaultKind::kPreservedRegionLeak,
                          host_.sim().now(), "discard:" + guest_name)) {
    // The release is lost: the frames stay reserved and the record keeps
    // eating the preserved-frame budget until a later sweep gets to it.
    // Renaming frees the canonical slot so the guest's next suspend can
    // record a fresh image.
    mm::PreservedRegion stale;
    stale.name =
        "stale/" + guest_name + "#" + std::to_string(host_.sim().now());
    stale.payload = region->payload;
    stale.frozen_frames = region->frozen_frames;
    stale.charged_bytes = region->charged_bytes;
    host_.preserved().erase(region_name);
    host_.preserved().put(std::move(stale));
    return;
  }
  discard_region(region_name);
}

void Supervisor::warm_resume_phase() {
  // The reload rebuilt frame ownership from the registry; catch a
  // double-owned or dropped frame here, before any guest touches its
  // memory again.
  ensure(host_.vmm().frame_conservation_report().ok(),
         "Supervisor: frame conservation violated after quick reload");
  sweep_stale_regions();
  GuestList preserved;
  for (auto* g : suspendable_guests()) {
    // Demoted VMs take the disk path below.
    if (std::find(admit_saved_.begin(), admit_saved_.end(), g) ==
        admit_saved_.end()) {
      preserved.push_back(g);
    }
  }
  resume_verified(preserved, [this] { warm_restore_demoted(); });
}

void Supervisor::resume_verified(const GuestList& candidates, Done next) {
  // Verify every preserved image before resuming anything: a checksum
  // mismatch means that VM's image rotted in RAM, and resuming it would
  // hand the guest corrupted state. The ladder for that VM alone is a
  // fresh cold boot; its siblings still get the fast on-memory resume.
  GuestList intact;
  for (auto* g : candidates) {
    if (!host_.vmm().has_preserved_image(g->name())) {
      // The suspend never recorded an image (injected allocation failure
      // or a budget rejection): this VM's RAM state is gone, but only
      // this VM's.
      record(RecoveryAction::kPreservedImageLost);
      g->force_power_off();
      cold_list_.push_back(g);
    } else if (host_.vmm().preserved_image_intact(g->name())) {
      intact.push_back(g);
    } else {
      record(RecoveryAction::kColdBootSingleVm);
      discard_preserved_image(g->name());
      g->force_power_off();
      cold_list_.push_back(g);
    }
  }
  step(
      "on-memory resume",
      [this, intact](Done done) {
        const int count = static_cast<int>(intact.size());
        for_each_parallel(
            intact,
            [this](guest::GuestOs& g, Done guest_done) {
              host_.vmm().resume_domain_on_memory(
                  g.name(), &g,
                  [guest_done = std::move(guest_done)](DomainId) {
                    guest_done();
                  });
            },
            [this, count, done = std::move(done)] {
              host_.note_simultaneous_creations(count);
              report_.resumed_vms = static_cast<std::size_t>(count);
              done();
            });
      },
      std::move(next));
}

void Supervisor::warm_restore_demoted() {
  const GuestList to_restore = with_disk_image(admit_saved_);
  if (to_restore.empty()) {
    // Nothing took the disk path (in particular: admission disabled). Go
    // straight to the cold boots -- no extra event, the exact schedule
    // from before admission existed.
    boot_rest(RebootKind::kWarm);
    return;
  }
  step(
      "restore demoted VMs from disk",
      [this, to_restore](Done done) {
        restore_from_disk(to_restore, std::move(done));
      },
      [this] { boot_rest(RebootKind::kWarm); });
}

// ----------------------------------------------------------------- saved

void Supervisor::start_saved() {
  // Reached either as the preferred mechanism or as the fallback from a
  // failed warm attempt; in both cases every guest is still running.
  open_rung("saved-VM reboot");
  // Every suspendable domain is suspended (down) almost immediately; the
  // memory images then stream out through the single disk, serially.
  step(
      "save VMs to disk",
      [this](Done done) {
        save_to_disk(suspendable_guests(), std::move(done));
      },
      [this] {
        // Plain reboot: hardware reset (POST), boot loader, fresh VMM,
        // dom0; then every image is read back.
        auto reboot = [this] {
          dom0_shutdown_step([this] {
            hardware_reset_step([this] { saved_restore_phase(); });
          });
        };
        // Driver domains cannot be suspended: plain shutdown. Without any,
        // no step is recorded, but the empty shutdown keeps its zero-delay
        // hop.
        const GuestList drivers = driver_domain_guests();
        if (drivers.empty()) {
          shutdown_guests(drivers, std::move(reboot));
          return;
        }
        step(
            "driver domain shutdown",
            [this, drivers](Done done) {
              shutdown_guests(drivers, std::move(done));
            },
            std::move(reboot));
      });
}

void Supervisor::saved_restore_phase() {
  step(
      "restore VMs from disk",
      [this](Done done) {
        restore_from_disk(with_disk_image(suspendable_guests()),
                          std::move(done));
      },
      [this] { boot_rest(RebootKind::kSaved); });
}

// ------------------------------------------------------------------ cold

void Supervisor::start_cold() {
  open_rung("cold-VM reboot");
  // Every guest OS shuts down cleanly (services stop; sessions close),
  // then the whole stack reboots and every OS boots from scratch.
  step(
      "guest OS shutdown",
      [this](Done done) { shutdown_guests(guests_, std::move(done)); },
      [this] {
        dom0_shutdown_step([this] {
          hardware_reset_step([this] {
            boot_then_finish("guest OS boot", guests_, RebootKind::kCold);
          });
        });
      });
}

// ------------------------------------------------------ shared step bodies

void Supervisor::dom0_shutdown_step(Done next) {
  step(
      "dom0 shutdown",
      [this](Done done) { host_.shutdown_dom0(std::move(done)); },
      std::move(next));
}

void Supervisor::hardware_reset_step(Done next) {
  step(
      "hardware reset + VMM/dom0 boot",
      [this](Done done) { host_.hardware_reboot(std::move(done)); },
      std::move(next));
}

void Supervisor::shutdown_guests(const GuestList& guests, Done done) {
  for_each_parallel(
      guests,
      [](guest::GuestOs& g, Done guest_done) {
        g.shutdown(std::move(guest_done));
      },
      std::move(done));
}

void Supervisor::save_to_disk(const GuestList& guests, Done done) {
  for_each_parallel(
      guests,
      [this](guest::GuestOs& g, Done guest_done) {
        host_.vmm().save_domain_to_disk(
            g.domain_id(), host_.images(),
            [this, &g, guest_done = std::move(guest_done)] {
              if (host_.images().find(g.name()) == nullptr) {
                // The write failed after the domain was torn down: the
                // VM's state is gone. Next rung: cold boot that VM.
                record(RecoveryAction::kFallbackToCold);
                g.force_power_off();
                cold_list_.push_back(&g);
              }
              guest_done();
            });
      },
      std::move(done));
}

void Supervisor::restore_from_disk(const GuestList& guests, Done done) {
  // Unlike on-memory resume, restores are spread out by their (long) disk
  // reads, so the domains are not created "simultaneously" and the Xen
  // creation artifact does not trigger.
  for_each_parallel(
      guests,
      [this](guest::GuestOs& g, Done guest_done) {
        host_.vmm().restore_domain_from_disk(
            g.name(), host_.images(), &g,
            [this, &g, guest_done = std::move(guest_done)](DomainId id) {
              if (id == kNoDomain) {
                record(RecoveryAction::kFallbackToCold);
                g.force_power_off();
                cold_list_.push_back(&g);
              } else {
                ++report_.restored_vms;
              }
              guest_done();
            });
      },
      std::move(done));
}

Supervisor::GuestList Supervisor::with_disk_image(
    const GuestList& guests) const {
  GuestList out;
  for (auto* g : guests) {
    if (host_.images().find(g->name()) != nullptr) out.push_back(g);
  }
  return out;
}

void Supervisor::boot_rest(RebootKind kind) {
  GuestList to_boot = cold_list_;
  const GuestList drivers = driver_domain_guests();
  to_boot.insert(to_boot.end(), drivers.begin(), drivers.end());
  boot_then_finish(
      cold_list_.empty() ? "driver domain boot" : "degraded VM boot", to_boot,
      kind);
}

void Supervisor::boot_then_finish(const char* label, const GuestList& guests,
                                  RebootKind kind) {
  Done finish_pass = [this, kind] { finish(kind); };
  // Nothing to boot records no step, but keeps boot_cold's zero-delay hop.
  if (guests.empty()) {
    boot_cold(guests, std::move(finish_pass));
    return;
  }
  step(
      label,
      [this, guests](Done done) { boot_cold(guests, std::move(done)); },
      std::move(finish_pass));
}

// --------------------------------------------------- supervised booting

void Supervisor::supervised_boot(guest::GuestOs& g, int attempt,
                                 std::function<void(bool)> done) {
  auto settled = std::make_shared<bool>(false);
  auto shared_done =
      std::make_shared<std::function<void(bool)>>(std::move(done));
  const sim::EventId watchdog = host_.sim().after(
      kBootWatchdog, [this, &g, attempt, settled, shared_done] {
        if (*settled) return;
        *settled = true;
        record(RecoveryAction::kWatchdogPowerOff);
        g.force_power_off();
        if (attempt < kMaxStepRetries) {
          host_.sim().after(backoff(attempt), [this, &g, attempt,
                                               shared_done] {
            supervised_boot(g, attempt + 1, std::move(*shared_done));
          });
          return;
        }
        record(RecoveryAction::kGaveUp);
        report_.unrecovered_vms.push_back(g.name());
        (*shared_done)(false);
      });
  g.create_and_boot([this, settled, watchdog, shared_done] {
    if (*settled) return;
    *settled = true;
    host_.sim().cancel(watchdog);
    (*shared_done)(true);
  });
}

void Supervisor::boot_cold(const GuestList& guests, Done done) {
  // Cold boots are serialised by disk I/O (~3.4 s apart), so creation is
  // not simultaneous and the Xen creation artifact does not trigger (the
  // paper's cold-reboot dip comes from cache misses alone).
  for_each_parallel(
      guests,
      [this](guest::GuestOs& g, std::function<void()> guest_done) {
        supervised_boot(g, 0, [this, guest_done = std::move(guest_done)](
                                  bool ok) {
          if (ok) ++report_.cold_booted_vms;
          guest_done();
        });
      },
      std::move(done));
}

// ---------------------------------------------------------------- finish

void Supervisor::finish(RebootKind completed_kind) {
  report_.completed = completed_kind;
  report_.success = report_.unrecovered_vms.empty();
  report_.finished_at = host_.sim().now();
  completed_ = true;
  obs::Observer& obs = host_.obs();
  if (obs.enabled()) {
    obs.span_close(rung_span_, report_.finished_at);
    obs.span_close(pass_span_, report_.finished_at);
    obs.set_ambient(outer_ambient_);
    rung_span_ = obs::kNoSpan;
    obs::MetricsRegistry& m = obs.metrics();
    m.counter("supervisor.passes") += 1;
    m.counter("supervisor.vms_resumed") += report_.resumed_vms;
    m.counter("supervisor.vms_restored") += report_.restored_vms;
    m.counter("supervisor.vms_cold_booted") += report_.cold_booted_vms;
    m.counter("supervisor.vms_unrecovered") += report_.unrecovered_vms.size();
    if (!report_.success) m.counter("supervisor.failed_passes") += 1;
    if (report_.micro_attempts > 0) {
      m.counter("supervisor.micro_attempts") += report_.micro_attempts;
    }
    if (report_.micro_recovered) m.counter("supervisor.micro_recoveries") += 1;
    m.histogram("supervisor.pass_duration_us").add(report_.total_duration());
  }
  host_.end_recovery();
  auto done = std::move(done_);
  done(report_);
}

}  // namespace rh::rejuv
