#include "rejuv/recovery_driver.hpp"

#include <utility>

#include "simcore/check.hpp"
#include "vmm/host.hpp"

namespace rh::rejuv {

RecoveryDriver::RecoveryDriver(vmm::Host& host,
                               std::vector<guest::GuestOs*> guests,
                               SupervisorConfig supervisor)
    : host_(host), guests_(std::move(guests)), config_(supervisor) {}

bool RecoveryDriver::would_absorb() const {
  return !host_.up() || host_.recovery_in_progress();
}

void RecoveryDriver::on_failure(fault::FaultKind kind,
                                std::function<void(const Outcome&)> done) {
  ensure(static_cast<bool>(done), "RecoveryDriver::on_failure: callback required");
  if (would_absorb()) {
    // A ladder already owns the host (a planned wave turn, or the previous
    // unplanned one): this arrival is covered by the in-flight recovery.
    Outcome out;
    out.kind = kind;
    out.absorbed = true;
    done(out);
    return;
  }
  // Retire the previous ladder now, outside its own completion callback.
  retired_.reset();
  active_ = std::make_unique<Supervisor>(host_, guests_, config_);
  active_->respond_to_failure(
      kind, [this, kind, done = std::move(done)](const SupervisorReport& r) {
        retired_ = std::move(active_);
        Outcome out;
        out.kind = kind;
        out.report = &r;
        done(out);
      });
}

}  // namespace rh::rejuv
