// Rejuvenation of one host's VMM: the paper's three reboot mechanisms and
// the recovery ladder around them.
//
//  - warm-VM reboot  (RootHammer): on-memory suspend + quick reload
//  - saved-VM reboot (original Xen): save/restore via disk + hardware reset
//  - cold-VM reboot  (plain): shut down & reboot every OS + hardware reset
//
// A Supervisor runs one pass as a chain of named steps; their timing
// records (SupervisorReport::steps) are the operation breakdown the paper
// superimposes on Figure 7. A fault-free pass with `preferred = kind` is
// the plain mechanism, which is how the paper figures run it.
//
// The Supervisor does not assume a cooperating world: xexec images may
// fail to load, disks may not read back what was written, preserved
// images may rot and guests may hang while booting. It checks every
// postcondition, retries failing steps with capped exponential backoff
// (no RNG draw), arms a watchdog over every guest boot, and -- when a
// mechanism is beyond retry -- walks a graceful-degradation ladder:
//
//   warm-VM reboot   --xexec load keeps failing-->   saved-VM reboot
//   saved-VM reboot  --image lost/unreadable---->    cold boot (that VM)
//   preserved image corrupt (checksum mismatch) -->  cold boot (that VM),
//                                                    siblings still resume
//   VMM crash (aging won the race) ------------->    hardware reboot +
//                                                    cold boot of all VMs
//
// Every recovery decision is recorded as a typed RecoveryAction so tests
// (and the cluster layer) can assert the exact ladder taken, and so the
// fault-rate sweeps can attribute availability loss to causes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "guest/guest_os.hpp"
#include "rejuv/admission.hpp"
#include "vmm/host.hpp"

namespace rh::rejuv {

enum class RebootKind : std::uint8_t { kWarm, kSaved, kCold };

[[nodiscard]] const char* to_string(RebootKind k);

/// Timing record of one executed step of a pass.
struct StepRecord {
  std::string label;
  sim::SimTime start = 0;
  sim::SimTime end = 0;

  [[nodiscard]] sim::Duration duration() const { return end - start; }
};

/// What the supervisor did to keep the pass alive.
enum class RecoveryAction : std::uint8_t {
  kStepRetry,              ///< a failing step was retried after backoff
  kWatchdogPowerOff,       ///< a hung guest boot was forced off by the watchdog
  kFallbackToSaved,        ///< warm path abandoned; saved-VM reboot instead
  kFallbackToCold,         ///< saved image lost/unreadable; that VM cold boots
  kColdBootSingleVm,       ///< corrupt preserved image; that VM cold boots
  kHardwareRebootAfterCrash,  ///< VMM crashed; full reset + cold boots
  kGaveUp,                 ///< retries exhausted; VM left unrecovered
  // --- preserved-memory pressure (DESIGN.md §9) ---
  kBalloonReclaim,     ///< admission ballooned pages out of a VM pre-suspend
  kDemoteToSaved,      ///< admission sent this VM down the disk path
  kPreservedImageLost, ///< suspended VM came back with no image; cold boot
  // --- in-place micro-recovery (DESIGN.md §13) ---
  kMicroRecoveryAttempt,    ///< in-place VMM rebuild attempt started
  kMicroRecoverySucceeded,  ///< VMM rebuilt in place; preserved VMs resume
  kMicroRecoveryFailed,     ///< one rebuild attempt failed its success draw
  kMicroRecoveryMetadataCorrupt,  ///< rebuilt state unusable; fall to cold
};

[[nodiscard]] const char* to_string(RecoveryAction a);

struct SupervisorConfig {
  /// The mechanism to attempt first; the ladder only descends from here.
  RebootKind preferred = RebootKind::kWarm;
  /// Preserved-memory admission control (DESIGN.md §9). Off by default:
  /// no extra work, no extra RNG draws -- pre-pressure runs stay
  /// byte-identical.
  bool admission = false;
  /// ReHype-style in-place micro-recovery: the rung *above* warm
  /// (DESIGN.md §13). Disabled by default, so a VMM failure takes the
  /// hardware-reboot path verbatim and no extra RNG draws ever happen.
  struct MicroRecoveryConfig {
    bool enabled = false;
    /// Per-attempt probability that the heap/domain-metadata rebuild
    /// succeeds (ReHype reports ~90 %; the default is conservative).
    double success_rate = 0.85;
  };
  MicroRecoveryConfig micro;
};

/// Preserved-memory accounting of one supervised pass.
struct MemoryPressure {
  bool consulted = false;            ///< admission ran this pass
  bool pressured = false;            ///< demand exceeded the budget
  std::int64_t budget_frames = 0;    ///< frames available for new images
  std::int64_t demand_frames = 0;    ///< frames the VMs wanted
  std::int64_t reclaimed_frames = 0; ///< frames ballooned out pre-suspend
  std::size_t demoted_saved = 0;     ///< VMs sent down the disk path
};

struct SupervisorReport {
  RebootKind attempted = RebootKind::kWarm;
  /// The mechanism that actually carried the pass to completion (kSaved
  /// after a warm fallback; kCold after a VMM crash).
  RebootKind completed = RebootKind::kWarm;
  /// True iff every guest answers again (no VM left unrecovered).
  bool success = false;
  bool vmm_crashed = false;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;
  [[nodiscard]] sim::Duration total_duration() const {
    return finished_at - started_at;
  }
  std::size_t resumed_vms = 0;   ///< on-memory resumes (state kept)
  std::size_t restored_vms = 0;  ///< disk restores (state kept)
  std::size_t cold_booted_vms = 0;  ///< boots from scratch (state lost)
  std::size_t micro_attempts = 0;   ///< in-place rebuild attempts made
  /// True iff an in-place micro-recovery carried the pass (the VMM was
  /// rebuilt over preserved RAM and the frozen VMs resumed).
  bool micro_recovered = false;
  std::vector<std::string> unrecovered_vms;
  /// Every recovery decision of the pass, in order.
  std::vector<RecoveryAction> recoveries;
  MemoryPressure pressure;
  /// Every step the pass ran, in order (Fig. 7's operation breakdown).
  std::vector<StepRecord> steps;

  [[nodiscard]] std::size_t recovery_count(RecoveryAction a) const;
};

/// Runs one supervised rejuvenation pass over a host and its guests.
/// One-shot.
class Supervisor {
 public:
  Supervisor(vmm::Host& host, std::vector<guest::GuestOs*> guests,
             SupervisorConfig config);
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Runs the pass; `done` receives the report (which remains readable via
  /// report() afterwards). Requires the host to be up.
  void run(std::function<void(const SupervisorReport&)> done);

  /// Recovery-only entry point (mutually exclusive with run(), same
  /// one-shot rule): boots every guest currently halted, each under the
  /// boot watchdog, without disturbing running guests. The cluster layer
  /// uses this to retry a host whose earlier pass left VMs unrecovered.
  void recover(std::function<void(const SupervisorReport&)> done);

  /// Unplanned-failure entry point (same one-shot rule): an *in-service*
  /// VMM failure was detected (fault::SteadyFaultProcess) and this
  /// supervisor owns the response. With micro-recovery enabled the ladder
  /// starts at the in-place rung; disabled, it is the hardware-reboot +
  /// cold-boot path a pre-rejuvenation crash takes. `kind` must be
  /// kVmmCrash or kVmmHang and the host must still be up (the failure is
  /// performed here, at its detection point).
  void respond_to_failure(fault::FaultKind kind,
                          std::function<void(const SupervisorReport&)> done);

  [[nodiscard]] const SupervisorReport& report() const { return report_; }
  [[nodiscard]] bool completed() const { return completed_; }

 private:
  using GuestList = std::vector<guest::GuestOs*>;
  using Done = std::function<void()>;

  /// The entry prologue of run(), recover() and respond_to_failure(): checks
  /// the callback, the one-shot rule, that the host is up and
  /// `vmm_failure_kind` (each message names `entry`), takes the host's
  /// recovery guard, stamps the report and opens the pass span
  /// `pass_label` as the ambient parent.
  void begin_pass(const char* entry,
                  std::function<void(const SupervisorReport&)> done,
                  const std::string& pass_label, bool vmm_failure_kind = true);
  /// Runs `body` inline as the step `label`: appends {label, start, end}
  /// to report_.steps and, with the observer on, one kStep span under the
  /// current rung. `next` runs when the body calls its continuation. Adds
  /// no event and draws no random number.
  void step(const char* label, const std::function<void(Done)>& body,
            Done next);

  // ---- rungs of the ladder, each a chain of steps
  void handle_vmm_failure(fault::FaultKind kind);
  void start_warm();
  void attempt_xexec(int attempt);
  void warm_after_xexec();
  /// dom0 shutdown and on-memory suspend, in the order the calibration
  /// picks, then the quick reload.
  void warm_suspend();
  void warm_resume_phase();
  void warm_restore_demoted();
  void start_saved();
  void saved_restore_phase();
  void start_cold();
  void finish(RebootKind completed_kind);

  // ---- preserved-memory admission (DESIGN.md §9)
  /// Plans and executes admission before the warm suspend: balloon
  /// reclaims (with injected-failure escalation), then the demotions,
  /// saved to disk while dom0 is still up. `done` fires when the
  /// surviving warm set is ready to suspend.
  void run_admission(Done done);
  /// Demotes one more warm VM (largest first) to the disk path when an
  /// executed reclaim under-delivered; returns the freed demand (0 =
  /// nothing left).
  std::int64_t escalate_demotion(AdmissionPlan& plan);
  /// Post-reload housekeeping: re-attempts release of leaked stale
  /// regions (each sweep can itself leak again under fault injection).
  void sweep_stale_regions();
  /// Frees a registry region's re-reserved frames and erases the record.
  void discard_region(const std::string& region_name);

  // ---- in-place micro-recovery rung (DESIGN.md §13)
  /// Freezes the guests in RAM (fail_vmm + interrupt) and starts attempt 0.
  void start_micro(fault::FaultKind kind);
  /// One rebuild attempt: charges 200 ms + metadata/mem_copy_bps,
  /// then draws success. Failure retries up to kMicroMaxAttempts, then
  /// falls to crash_fallback; success validates metadata and resumes.
  void micro_attempt(int attempt);
  /// Resumes every frozen guest whose preserved image survived; per-VM
  /// corruption degrades that VM to a cold boot (siblings still resume).
  void micro_resume_phase();
  /// The bottom of the ladder for unplanned failures: hardware reboot and
  /// cold boot of every VM. `micro_exhausted` distinguishes "never tried
  /// micro" (the legacy crash path, byte-identical) from "micro gave up"
  /// (preserved state must be abandoned first).
  void crash_fallback(bool micro_exhausted);
  /// Bytes the rebuild must walk: every crash snapshot in the registry
  /// plus per-domain heap metadata.
  [[nodiscard]] sim::Bytes micro_repair_bytes() const;

  // ---- shared step bodies
  /// The "dom0 shutdown" step, then `next`.
  void dom0_shutdown_step(Done next);
  /// The "hardware reset + VMM/dom0 boot" step, then `next`.
  void hardware_reset_step(Done next);
  /// Gracefully shuts down guest OSes (parallel).
  void shutdown_guests(const GuestList& guests, Done done);
  /// Saves guests' domains to disk (image writes serialise on the disk). A
  /// VM whose image is lost to a write error falls to a cold boot.
  void save_to_disk(const GuestList& guests, Done done);
  /// Restores guests from their disk images. A VM whose read fails falls
  /// to a cold boot.
  void restore_from_disk(const GuestList& guests, Done done);
  /// The guests among `guests` that have a disk image.
  [[nodiscard]] GuestList with_disk_image(const GuestList& guests) const;
  /// Verifies each candidate's preserved image (or crash snapshot); a
  /// lost or corrupt one sends that VM alone to a cold boot. Then resumes
  /// the intact ones as the "on-memory resume" step and notes their
  /// simultaneous creation.
  void resume_verified(const GuestList& candidates, Done next);
  /// Boots the degraded VMs plus the driver domains, then finishes as
  /// `kind`.
  void boot_rest(RebootKind kind);
  /// Boots `guests` as the step `label` (no step when the list is empty),
  /// then finishes as `kind`.
  void boot_then_finish(const char* label, const GuestList& guests,
                        RebootKind kind);

  // ---- supervised building blocks
  /// Boots one guest under a watchdog; retries hung boots with backoff.
  /// `done(false)` means retries were exhausted (VM left unrecovered).
  void supervised_boot(guest::GuestOs& g, int attempt,
                       std::function<void(bool)> done);
  /// Boots a list in parallel (each under its own watchdog); successful
  /// boots are counted as cold-booted VMs.
  void boot_cold(const GuestList& guests, Done done);
  /// Drops a corrupt preserved image: frees the frozen frames the new VMM
  /// re-reserved for it and erases the registry record.
  void discard_preserved_image(const std::string& guest_name);

  /// Runs `fn(guest, done)` for every guest in parallel; `done` fires when
  /// the last completes (after a zero-delay hop when there are none).
  void for_each_parallel(
      const GuestList& guests,
      const std::function<void(guest::GuestOs&, Done)>& fn, Done done);
  /// Guests whose images can be preserved (everything but driver domains).
  [[nodiscard]] GuestList suspendable_guests() const;
  /// Driver domains: must be shut down and rebooted even by warm/saved
  /// reboots (they cannot be suspended; Sec. 7).
  [[nodiscard]] GuestList driver_domain_guests() const;
  void record(RecoveryAction action);
  /// Closes the current ladder-rung span (if any) and opens a new one
  /// under the pass span; every mechanism the ladder descends through gets
  /// its own kLadderRung window.
  void open_rung(const char* label);

  vmm::Host& host_;
  GuestList guests_;
  SupervisorConfig config_;
  std::function<void(const SupervisorReport&)> done_;
  SupervisorReport report_;
  GuestList cold_list_;  ///< accumulated per-VM degradations this pass
  GuestList admit_saved_;  ///< demoted to the disk path by admission
  obs::SpanId pass_span_ = obs::kNoSpan;
  obs::SpanId rung_span_ = obs::kNoSpan;
  obs::SpanId outer_ambient_ = obs::kNoSpan;
  bool started_ = false;
  bool completed_ = false;
};

}  // namespace rh::rejuv
