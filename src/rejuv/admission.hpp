// Preserved-memory admission control: the resource rung of the ladder.
//
// A warm-VM reboot only works if every frozen memory image, P2M table and
// execution-state record actually fits in preserved memory across the
// quick reload (paper Sec. 4.1 calls out ballooning-driven overcommit as
// the stress case). The AdmissionController is consulted by the
// Supervisor before each warm pass: it compares the preserved-frame
// demand of every suspendable VM against the budget the incoming VMM can
// honour, and -- under shortfall -- plans a graceful degradation:
//
//   1. balloon-reclaim: inflate the balloon of the largest VMs, shrinking
//      their frozen images (reclaim-safe pages only -- never a kernel or
//      page-cache page), by at most half of each VM's reclaim-safe pages;
//   2. demote-to-saved: the largest VMs take the slow disk path this
//      pass, freeing their whole preserved demand; state is kept and
//      their siblings stay warm.
//
// plan() is pure: it mutates nothing and draws nothing from any RNG, so a
// disabled admission controller leaves runs byte-identical. The
// Supervisor executes the plan and records a typed RecoveryAction for each
// step (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "guest/guest_os.hpp"
#include "vmm/host.hpp"

namespace rh::rejuv {

/// Per-VM slice of an admission plan.
struct AdmissionReclaim {
  guest::GuestOs* guest = nullptr;
  std::int64_t frames = 0;  ///< balloon pages to reclaim from this VM
};

/// What the Supervisor should do before suspending for a warm reboot.
struct AdmissionPlan {
  std::int64_t budget_frames = 0;  ///< frames available for new images
  std::int64_t demand_frames = 0;  ///< frames all candidates would need
  std::vector<AdmissionReclaim> reclaims;  ///< rung 1, largest VMs first
  std::vector<guest::GuestOs*> demote_saved;  ///< rung 2
  /// Warm survivors with their (post-reclaim) preserved-frame demand,
  /// largest first -- the escalation order if an executed reclaim
  /// under-delivers (e.g. an injected balloon-reclaim failure).
  std::vector<std::pair<guest::GuestOs*, std::int64_t>> warm;

  [[nodiscard]] bool pressured() const { return demand_frames > budget_frames; }
};

/// Plans (but never executes) preserved-memory admission for one host.
class AdmissionController {
 public:
  explicit AdmissionController(vmm::Host& host) : host_(host) {}

  /// Preserved frames domain `name`'s warm image would reserve right now:
  /// its populated pages (frozen in place) plus a conservative estimate
  /// of the serialised-metadata frames. Slightly over-estimating is safe
  /// (admission refuses a fit the registry would have accepted); under-
  /// estimating would let a suspend fail its budget check and silently
  /// lose the image.
  [[nodiscard]] std::int64_t preserved_frames_for(
      const guest::GuestOs& g) const;

  /// Populated pages of `g` that can be ballooned out without touching
  /// the kernel image or the page-cache region.
  [[nodiscard]] std::int64_t reclaim_safe_pages(const guest::GuestOs& g) const;

  /// Frames the incoming VMM can devote to preserved regions: the
  /// configured registry budget (if any) capped by physical capacity
  /// (total - VMM-reserved - dom0), minus what the registry already
  /// holds (leaked stale regions eat the budget).
  [[nodiscard]] std::int64_t available_budget_frames() const;

  /// Pure planning over the running, non-driver candidates. No mutation,
  /// no RNG draws.
  [[nodiscard]] AdmissionPlan plan(
      const std::vector<guest::GuestOs*>& candidates) const;

 private:
  vmm::Host& host_;
};

}  // namespace rh::rejuv
