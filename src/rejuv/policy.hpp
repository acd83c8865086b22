// Time-based rejuvenation policy (Garg et al.; the paper's Sec. 3.2 usage
// model): each guest OS is rejuvenated on its own fixed interval, and the
// VMM on a longer one. The policy reproduces the scheduling interaction
// the downtime model captures: a cold-VM reboot doubles as an OS
// rejuvenation and *reschedules* the OS timers (Fig. 2b), while a warm or
// saved reboot leaves them alone (Fig. 2a).
//
// Optionally, the policy also watches hypervisor heap pressure and
// triggers an early VMM rejuvenation (proactive aging counteraction).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "rejuv/supervisor.hpp"

namespace rh::rejuv {

class RejuvenationPolicy {
 public:
  struct Config {
    sim::Duration os_interval = sim::kWeek;
    sim::Duration vmm_interval = 4 * sim::kWeek;
    RebootKind vmm_reboot_kind = RebootKind::kWarm;
    /// Offset between successive guests' OS timers so single-OS reboots do
    /// not contend with each other (matches the paper's measurement of
    /// one-VM-at-a-time OS rejuvenation).
    sim::Duration os_stagger = sim::kHour;
    /// Base retry delay when a rejuvenation must wait for another in
    /// progress. Consecutive deferrals of the same rejuvenation back off
    /// exponentially: the k-th retry waits min(retry_delay_cap,
    /// retry_delay * 2^k), times a jitter factor in [1-j, 1+j]. The first
    /// retry always waits exactly retry_delay, and retry_jitter == 0
    /// draws nothing from the host RNG, so existing seeds reproduce
    /// their pre-backoff schedules exactly.
    sim::Duration retry_delay = 10 * sim::kMinute;
    sim::Duration retry_delay_cap = 80 * sim::kMinute;
    double retry_jitter = 0.0;
    /// If > 0, rejuvenate the VMM early when heap pressure reaches this
    /// fraction (checked every heap_check_interval).
    double heap_pressure_threshold = 0.0;
    sim::Duration heap_check_interval = sim::kHour;
    /// Optional load probe in [0, 1]. When set, a due VMM rejuvenation is
    /// deferred while load exceeds `load_defer_threshold` (Garg et al.'s
    /// time-AND-load policy: rejuvenate on schedule, but in a trough).
    std::function<double()> load_probe;
    double load_defer_threshold = 1.0;
    /// Bound on deferral: after waiting this long past the due time, the
    /// rejuvenation proceeds regardless of load.
    sim::Duration max_load_defer = sim::kDay;
  };

  struct Event {
    sim::SimTime start = 0;
    sim::Duration duration = 0;
    bool is_vmm = false;      ///< false: OS rejuvenation
    std::size_t guest = 0;    ///< index, for OS rejuvenations
    bool heap_triggered = false;
    /// Times this rejuvenation was deferred (busy peer, load) before it
    /// finally ran; each deferral waited one backoff step.
    std::uint64_t deferrals = 0;
  };

  RejuvenationPolicy(vmm::Host& host, std::vector<guest::GuestOs*> guests,
                     Config config);
  RejuvenationPolicy(const RejuvenationPolicy&) = delete;
  RejuvenationPolicy& operator=(const RejuvenationPolicy&) = delete;

  /// Arms all timers, measured from now.
  void start();

  [[nodiscard]] std::uint64_t os_rejuvenations() const { return os_count_; }
  [[nodiscard]] std::uint64_t vmm_rejuvenations() const { return vmm_count_; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] bool vmm_rejuvenation_in_progress() const { return vmm_busy_; }
  /// Times a due VMM rejuvenation was deferred because of load.
  [[nodiscard]] std::uint64_t load_deferrals() const { return load_deferrals_; }

 private:
  void schedule_os(std::size_t i, sim::SimTime when);
  void run_os_rejuvenation(std::size_t i);
  void schedule_vmm(sim::SimTime when);
  void run_vmm_rejuvenation(bool heap_triggered);
  void check_heap();
  /// Delay before the (k+1)-th consecutive retry of the same rejuvenation.
  [[nodiscard]] sim::Duration retry_backoff(std::uint64_t k);

  vmm::Host& host_;
  std::vector<guest::GuestOs*> guests_;
  Config config_;
  std::vector<sim::EventId> os_timers_;
  /// Consecutive deferrals of each guest's pending OS rejuvenation (reset
  /// when it runs); drives the exponential backoff and the Event record.
  std::vector<std::uint64_t> os_deferrals_;
  std::uint64_t vmm_deferrals_ = 0;
  sim::EventId vmm_timer_ = sim::kInvalidEventId;
  std::unique_ptr<Supervisor> vmm_supervisor_;
  bool vmm_busy_ = false;
  std::size_t os_busy_count_ = 0;
  std::uint64_t os_count_ = 0;
  std::uint64_t vmm_count_ = 0;
  std::uint64_t load_deferrals_ = 0;
  sim::SimTime vmm_due_since_ = -1;  ///< -1: not currently deferring
  std::vector<Event> events_;
};

}  // namespace rh::rejuv
