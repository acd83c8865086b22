#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "rejuv/supervisor.hpp"

namespace rh::guest {
class GuestOs;
}  // namespace rh::guest
namespace rh::vmm {
class Host;
}  // namespace rh::vmm

namespace rh::rejuv {

/// Long-lived in-service recovery entry for one host (DESIGN.md §14).
///
/// Supervisor is deliberately one-shot -- run / recover /
/// respond_to_failure are mutually exclusive and a finished ladder cannot
/// be rearmed -- so a host that must survive an arbitrary number of
/// steady-state VMM failures needs a fresh supervised ladder per arrival.
/// The driver owns that lifecycle: each failure either starts a new
/// Supervisor::respond_to_failure ladder or is *absorbed* when a ladder
/// (planned wave turn or a previous unplanned one) already owns the host,
/// which is exactly the host-level recovery overlap guard from PR 8.
///
/// The completed ladder is retired lazily: it is destroyed when the next
/// failure arrives, never from inside its own completion callback.
class RecoveryDriver {
 public:
  /// What on_failure did with one arrival. `report` is only valid for the
  /// duration of the callback and only when `absorbed` is false.
  struct Outcome {
    fault::FaultKind kind = fault::FaultKind::kVmmCrash;
    bool absorbed = false;
    const SupervisorReport* report = nullptr;
  };

  /// `host` and the guests must outlive the driver. `supervisor` is the
  /// ladder template used for every unplanned failure.
  RecoveryDriver(vmm::Host& host, std::vector<guest::GuestOs*> guests,
                 SupervisorConfig supervisor);

  /// Whether the next arrival would be absorbed instead of starting a
  /// ladder (host already down, or a recovery already in flight).
  [[nodiscard]] bool would_absorb() const;

  /// Handles one steady fault arrival. Absorbed arrivals invoke `done`
  /// synchronously with absorbed = true; otherwise a fresh Supervisor
  /// responds to the failure and `done` fires with its report when the
  /// ladder completes. `done` typically re-arms the SteadyFaultProcess.
  void on_failure(fault::FaultKind kind,
                  std::function<void(const Outcome&)> done);

 private:
  vmm::Host& host_;
  std::vector<guest::GuestOs*> guests_;
  SupervisorConfig config_;
  std::unique_ptr<Supervisor> active_;   ///< ladder in flight, if any
  std::unique_ptr<Supervisor> retired_;  ///< completed, freed on next arrival
};

}  // namespace rh::rejuv
