#include "rejuv/policy.hpp"

#include <algorithm>
#include <utility>

#include "simcore/check.hpp"

namespace rh::rejuv {

RejuvenationPolicy::RejuvenationPolicy(vmm::Host& host,
                                       std::vector<guest::GuestOs*> guests,
                                       Config config)
    : host_(host), guests_(std::move(guests)), config_(config) {
  ensure(config_.os_interval > 0 && config_.vmm_interval > 0,
         "RejuvenationPolicy: intervals must be positive");
  ensure(config_.retry_delay > 0 &&
             config_.retry_delay_cap >= config_.retry_delay,
         "RejuvenationPolicy: retry cap must be >= delay > 0");
  os_timers_.assign(guests_.size(), sim::kInvalidEventId);
  os_deferrals_.assign(guests_.size(), 0);
}

sim::Duration RejuvenationPolicy::retry_backoff(std::uint64_t k) {
  // min(cap, delay * 2^k) without overflow: stop doubling at the cap.
  sim::Duration d = config_.retry_delay;
  for (std::uint64_t i = 0; i < k && d < config_.retry_delay_cap; ++i) d *= 2;
  d = std::min(d, config_.retry_delay_cap);
  if (config_.retry_jitter > 0.0) {
    const double u = host_.rng().uniform01();
    d = std::max<sim::Duration>(
        1, static_cast<sim::Duration>(
               static_cast<double>(d) *
               (1.0 + config_.retry_jitter * (2.0 * u - 1.0))));
  }
  return d;
}

void RejuvenationPolicy::start() {
  const sim::SimTime now = host_.sim().now();
  for (std::size_t i = 0; i < guests_.size(); ++i) {
    schedule_os(i, now + config_.os_interval +
                       static_cast<sim::Duration>(i) * config_.os_stagger);
  }
  schedule_vmm(now + config_.vmm_interval);
  if (config_.heap_pressure_threshold > 0.0) {
    host_.sim().after(config_.heap_check_interval, [this] { check_heap(); });
  }
}

void RejuvenationPolicy::schedule_os(std::size_t i, sim::SimTime when) {
  os_timers_[i] = host_.sim().at(when, [this, i] { run_os_rejuvenation(i); });
}

void RejuvenationPolicy::run_os_rejuvenation(std::size_t i) {
  os_timers_[i] = sim::kInvalidEventId;
  if (vmm_busy_ || guests_[i]->state() != guest::OsState::kRunning) {
    // A VMM rejuvenation is running (or the guest is mid-transition); back
    // off exponentially so repeated collisions do not poll every 10 min.
    schedule_os(i, host_.sim().now() + retry_backoff(os_deferrals_[i]++));
    return;
  }
  guest::GuestOs& g = *guests_[i];
  ++os_busy_count_;
  const sim::SimTime start = host_.sim().now();
  const std::uint64_t deferrals = os_deferrals_[i];
  os_deferrals_[i] = 0;
  g.shutdown([this, i, start, deferrals, &g] {
    g.create_and_boot([this, i, start, deferrals] {
      --os_busy_count_;
      ++os_count_;
      events_.push_back({start, host_.sim().now() - start, /*is_vmm=*/false, i,
                         /*heap_triggered=*/false, deferrals});
      schedule_os(i, host_.sim().now() + config_.os_interval);
    });
  });
}

void RejuvenationPolicy::schedule_vmm(sim::SimTime when) {
  vmm_timer_ = host_.sim().at(when, [this] {
    run_vmm_rejuvenation(/*heap_triggered=*/false);
  });
}

void RejuvenationPolicy::run_vmm_rejuvenation(bool heap_triggered) {
  vmm_timer_ = sim::kInvalidEventId;
  if (vmm_busy_ || os_busy_count_ > 0) {
    schedule_vmm(host_.sim().now() + retry_backoff(vmm_deferrals_++));
    return;
  }
  // Load-aware deferral: wait for a trough, but not forever. Unlike busy
  // collisions, load polling keeps its *fixed* cadence: the point is to
  // catch the trough promptly, and max_load_defer already bounds the
  // total wait.
  if (config_.load_probe) {
    if (vmm_due_since_ < 0) vmm_due_since_ = host_.sim().now();
    const bool overdue =
        host_.sim().now() - vmm_due_since_ >= config_.max_load_defer;
    if (!overdue && config_.load_probe() > config_.load_defer_threshold) {
      ++load_deferrals_;
      schedule_vmm(host_.sim().now() + config_.retry_delay);
      return;
    }
  }
  vmm_due_since_ = -1;
  vmm_busy_ = true;
  const sim::SimTime start = host_.sim().now();
  const std::uint64_t deferrals = vmm_deferrals_;
  vmm_deferrals_ = 0;
  SupervisorConfig supervisor;
  supervisor.preferred = config_.vmm_reboot_kind;
  vmm_supervisor_ = std::make_unique<Supervisor>(host_, guests_, supervisor);
  vmm_supervisor_->run([this, start, heap_triggered, deferrals](
                           const SupervisorReport&) {
    vmm_busy_ = false;
    ++vmm_count_;
    events_.push_back({start, host_.sim().now() - start, /*is_vmm=*/true, 0,
                       heap_triggered, deferrals});
    // A cold-VM reboot rebooted every OS, so the OS timers restart from
    // now (Fig. 2b); warm/saved reboots leave the OS timers untouched.
    if (config_.vmm_reboot_kind == RebootKind::kCold) {
      for (std::size_t i = 0; i < guests_.size(); ++i) {
        if (os_timers_[i] != sim::kInvalidEventId) {
          host_.sim().cancel(os_timers_[i]);
        }
        schedule_os(i, host_.sim().now() + config_.os_interval +
                           static_cast<sim::Duration>(i) * config_.os_stagger);
      }
    }
    schedule_vmm(host_.sim().now() + config_.vmm_interval);
  });
}

void RejuvenationPolicy::check_heap() {
  if (host_.vmm_running() && !vmm_busy_ &&
      host_.vmm().heap().pressure() >= config_.heap_pressure_threshold) {
    if (vmm_timer_ != sim::kInvalidEventId) {
      host_.sim().cancel(vmm_timer_);
      vmm_timer_ = sim::kInvalidEventId;
    }
    run_vmm_rejuvenation(/*heap_triggered=*/true);
  }
  host_.sim().after(config_.heap_check_interval, [this] { check_heap(); });
}

}  // namespace rh::rejuv
