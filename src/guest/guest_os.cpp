#include "guest/guest_os.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::guest {

const char* to_string(OsState s) {
  switch (s) {
    case OsState::kHalted: return "halted";
    case OsState::kBooting: return "booting";
    case OsState::kRunning: return "running";
    case OsState::kShuttingDown: return "shutting-down";
    case OsState::kSuspending: return "suspending";
    case OsState::kSuspended: return "suspended";
    case OsState::kResuming: return "resuming";
    case OsState::kCrashed: return "crashed";
  }
  return "unknown";
}

namespace {

std::int64_t cache_capacity_blocks(const Calibration& calib, sim::Bytes memory) {
  const auto usable = static_cast<sim::Bytes>(
      static_cast<double>(memory) * calib.page_cache_fraction);
  return std::max<sim::Bytes>(1, usable / calib.cache_block_size);
}

}  // namespace

GuestOs::GuestOs(vmm::Host& host, std::string name, sim::Bytes memory)
    : host_(&host),
      name_(std::move(name)),
      memory_(memory),
      vfs_(*this),
      cache_(*this, kCacheRegionStart,
             cache_capacity_blocks(host.calib(), memory),
             host.calib().cache_block_size / sim::kPageSize) {
  const auto cache_pages =
      cache_capacity_blocks(host.calib(), memory) *
      (host.calib().cache_block_size / sim::kPageSize);
  ensure(kCacheRegionStart + cache_pages <= memory / sim::kPageSize,
         "GuestOs: cache region exceeds domain memory");
}

void GuestOs::set_boot_allocation(sim::Bytes bytes) {
  ensure(state_ == OsState::kHalted,
         "GuestOs::set_boot_allocation: OS must be halted");
  ensure(bytes >= 0 && bytes <= memory_,
         "GuestOs::set_boot_allocation: out of [0, memory]");
  if (bytes > 0) {
    ensure(cache_region_end_pfn() <= bytes / sim::kPageSize,
           "GuestOs::set_boot_allocation: kernel + page cache do not fit");
  }
  boot_allocation_ = bytes;
}

mm::Pfn GuestOs::cache_region_end_pfn() const {
  return kCacheRegionStart +
         cache_capacity_blocks(host_->calib(), memory_) *
             (host_->calib().cache_block_size / sim::kPageSize);
}

void GuestOs::trace(const std::string& msg) {
  if (!host_->tracer().enabled()) return;
  host_->tracer().emit(host_->sim().now(), "guest/" + name_, msg);
}

Service& GuestOs::add_service(std::unique_ptr<Service> service) {
  ensure(service != nullptr, "GuestOs::add_service: null service");
  services_.push_back(std::move(service));
  return *services_.back();
}

Service* GuestOs::find_service(const std::string& name) {
  for (auto& s : services_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

bool GuestOs::service_reachable(const Service& service) const {
  // During the early shutdown grace phase the OS still answers requests;
  // the service itself goes down when its stop begins.
  const bool os_executing =
      state_ == OsState::kRunning || state_ == OsState::kShuttingDown;
  return host_->network_path_up() && os_executing && service.running();
}

bool GuestOs::memory_accessible() const {
  // The guest only touches its memory while its virtual CPUs execute; a
  // suspended, halted or crashed guest cannot (late I/O-completion
  // callbacks land here and are dropped).
  const bool executing =
      state_ == OsState::kBooting || state_ == OsState::kRunning ||
      state_ == OsState::kShuttingDown || state_ == OsState::kResuming;
  if (!executing || domain_id_ == kNoDomain || !host_->vmm_running()) {
    return false;
  }
  return host_->vmm().find_domain(domain_id_) != nullptr;
}

void GuestOs::mem_write(mm::Pfn pfn, hw::ContentToken token) {
  // A guest that is not executing cannot touch memory; late I/O completion
  // callbacks land here harmlessly.
  if (!memory_accessible()) return;
  host_->vmm().guest_write(domain_id_, pfn, token);
}

hw::ContentToken GuestOs::mem_read(mm::Pfn pfn) const {
  if (!memory_accessible()) return hw::kScrubbed;
  return host_->vmm().guest_read(domain_id_, pfn);
}

void GuestOs::rebind_host(vmm::Host& new_host) {
  ensure(state_ == OsState::kSuspended, [this] {
    return "rebind_host: guest must be suspended for migration (is " +
           std::string(to_string(state_)) + ")";
  });
  ensure(new_host.up(), "rebind_host: destination host is not up");
  host_ = &new_host;
  domain_id_ = kNoDomain;  // the destination assigns a new domain id
  trace("switched to destination host");
}

void GuestOs::create_and_boot(std::function<void()> on_up) {
  ensure(static_cast<bool>(on_up), "create_and_boot: callback required");
  ensure(state_ == OsState::kHalted, [this] {
    return "create_and_boot: OS must be halted (is " +
           std::string(to_string(state_)) + ")";
  });
  ensure(host_->up(), "create_and_boot: host is not up");
  state_ = OsState::kBooting;
  host_->vmm().create_domain(name_, memory_, this,
                            [this, on_up = std::move(on_up)](DomainId id) {
                              domain_id_ = id;
                              boot_sequence(std::move(on_up));
                            },
                            boot_allocation_);
}

void GuestOs::boot_sequence(std::function<void()> on_up) {
  trace("kernel booting");
  // Injected boot hang: the kernel wedges before init (bad device handshake,
  // a driver spinning on a lost interrupt). Nothing further is scheduled --
  // the OS sits in kBooting until a watchdog force-powers it off.
  if (host_->faults().roll(fault::FaultKind::kGuestBootHang,
                           host_->sim().now(), "boot:" + name_)) {
    trace("kernel boot HUNG (injected); only a power-off can recover");
    return;
  }
  // A fresh boot starts with a cold cache and a new kernel image layout.
  cache_.clear();
  const Calibration& calib = host_->calib();
  const auto epoch = epoch_;
  host_->machine().cpu().run(calib.os_kernel_boot_cpu, [this, &calib, epoch,
                                                       on_up = std::move(on_up)]() mutable {
    if (epoch != epoch_) return;
    // Boot-time disk reads (kernel modules, init, service binaries) go
    // through the shared host disk -- the source of parallel-boot
    // contention.
    host_->machine().disk().read(
        calib.os_boot_io, hw::Disk::Access::kSequential,
        [this, &calib, epoch, on_up = std::move(on_up)]() mutable {
          if (epoch != epoch_) return;
          host_->sim().after(host_->jittered(calib.os_userland_wait), [this, epoch,
                                                     on_up = std::move(on_up)]() mutable {
            if (epoch != epoch_) return;
            // Stamp the integrity signature.
            signature_ = host_->rng().next() | 1;
            integrity_ok_ = true;
            mem_write(kSignaturePfn, signature_);
            start_services_from(0, [this, epoch, on_up = std::move(on_up)] {
              if (epoch != epoch_) return;
              state_ = OsState::kRunning;
              if (host_->tracer().enabled()) {
                trace("up (" + std::to_string(services_.size()) + " services)");
              }
              on_up();
            });
          });
        });
  });
}

void GuestOs::start_services_from(std::size_t index, std::function<void()> done) {
  if (index == services_.size()) {
    done();
    return;
  }
  Service& svc = *services_[index];
  svc.start(*this, [this, index, done = std::move(done)]() mutable {
    start_services_from(index + 1, std::move(done));
  });
}

void GuestOs::stop_services_from(std::size_t index, std::function<void()> done) {
  if (index == services_.size()) {
    done();
    return;
  }
  Service& svc = *services_[index];
  svc.stop(*this, [this, index, done = std::move(done)]() mutable {
    stop_services_from(index + 1, std::move(done));
  });
}

void GuestOs::shutdown(std::function<void()> on_halted) {
  ensure(static_cast<bool>(on_halted), "shutdown: callback required");
  ensure(state_ == OsState::kRunning || state_ == OsState::kCrashed, [this] {
    return "shutdown: OS not running (is " + std::string(to_string(state_)) +
           ")";
  });
  state_ = OsState::kShuttingDown;
  trace("shutting down");
  const Calibration& calib = host_->calib();
  const auto epoch = epoch_;
  // Early shutdown scripts run before services are stopped; requests are
  // still answered during the grace phase (the OS is merely state-changed,
  // services remain up).
  host_->sim().after(calib.os_shutdown_grace, [this, &calib, epoch,
                                              on_halted = std::move(on_halted)]() mutable {
  if (epoch != epoch_) return;
  stop_services_from(0, [this, &calib, epoch, on_halted = std::move(on_halted)]() mutable {
    if (epoch != epoch_) return;
    host_->sim().after(host_->jittered(calib.os_shutdown_wait), [this, &calib, epoch,
                                               on_halted = std::move(on_halted)]() mutable {
      if (epoch != epoch_) return;
      host_->machine().cpu().run(
          calib.os_shutdown_cpu,
          [this, &calib, epoch, on_halted = std::move(on_halted)]() mutable {
            host_->machine().disk().write(
                calib.os_shutdown_io, hw::Disk::Access::kSequential,
                [this, epoch, on_halted = std::move(on_halted)] {
                  if (epoch != epoch_) return;
                  state_ = OsState::kHalted;
                  trace("halted");
                  // The VMM tears the halted domain down (xm destroy).
                  if (host_->vmm_running() &&
                      host_->vmm().find_domain(domain_id_) != nullptr) {
                    host_->vmm().destroy_domain(domain_id_);
                  }
                  domain_id_ = kNoDomain;
                  on_halted();
                });
          });
    });
  });
  });
}

void GuestOs::force_power_off() {
  if (state_ == OsState::kHalted) return;
  if (host_->tracer().enabled()) {
    trace("forced power-off (state was " + std::string(to_string(state_)) + ")");
  }
  ++epoch_;
  for (auto& s : services_) s->force_stop();
  if (host_->vmm_running() && domain_id_ != kNoDomain &&
      host_->vmm().find_domain(domain_id_) != nullptr) {
    host_->vmm().destroy_domain(domain_id_);
  }
  domain_id_ = kNoDomain;
  state_ = OsState::kHalted;
}

void GuestOs::interrupt_for_vmm_failure() {
  ensure(state_ == OsState::kRunning, [this] {
    return "interrupt_for_vmm_failure: OS not running (is " +
           std::string(to_string(state_)) + ")";
  });
  ++epoch_;  // abandon in-flight continuations; the vCPUs stopped cold
  domain_id_ = kNoDomain;  // the domain object died with the VMM
  state_ = OsState::kSuspended;
  trace("frozen mid-flight: VMM failed, memory image preserved");
}

void GuestOs::on_suspend_event(std::function<void()> suspend_hypercall) {
  ensure(state_ == OsState::kRunning, [this] {
    return "on_suspend_event: OS not running (is " +
           std::string(to_string(state_)) + ")";
  });
  state_ = OsState::kSuspending;
  trace("suspend handler: detaching devices");
  host_->sim().after(host_->calib().suspend_handler,
                    [this, hypercall = std::move(suspend_hypercall)] {
                      state_ = OsState::kSuspended;
                      hypercall();
                    });
}

void GuestOs::on_resume(DomainId new_id, std::function<void()> done) {
  ensure(state_ == OsState::kSuspended, [this] {
    return "on_resume: OS not suspended (is " +
           std::string(to_string(state_)) + ")";
  });
  domain_id_ = new_id;
  state_ = OsState::kResuming;
  host_->sim().after(host_->calib().resume_handler, [this, done = std::move(done)] {
    // Verify the memory image survived. If the VMM failed to preserve the
    // frozen frames, the kernel's own pages are gone and the guest
    // crashes rather than running on corrupted state.
    if (mem_read(kSignaturePfn) != signature_) {
      integrity_ok_ = false;
      state_ = OsState::kCrashed;
      trace("RESUME FAILED: memory image corrupted");
      done();
      return;
    }
    // Re-establish the communication channels to the VMM (resume handler
    // re-binds its event channels) and reattach devices.
    if (memory_accessible()) {
      auto& evch = host_->vmm().domain(domain_id_).event_channels();
      const auto port = evch.alloc_unbound(kDomain0);
      evch.bind(port);
      evch.close(port);  // transient re-handshake port
    }
    state_ = OsState::kRunning;
    trace("resumed; services continue without restart");
    done();
  });
}

}  // namespace rh::guest
