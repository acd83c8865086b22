#include "vmm/vmm.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "simcore/check.hpp"

namespace rh::vmm {

void XendQueue::enqueue(sim::Duration d, sim::InlineCallback done) {
  ensure(d >= 0, "XendQueue: negative duration");
  ensure(static_cast<bool>(done), "XendQueue: callback required");
  const sim::SimTime start = std::max(sim_.now(), busy_until_);
  busy_until_ = start + d;
  sim_.at(busy_until_, std::move(done));
}

Vmm::Vmm(sim::Simulation& sim, const Calibration& calib, hw::Machine& machine,
         mm::PreservedRegionRegistry& preserved, sim::Rng& rng,
         fault::FaultInjector& faults, BootMode mode)
    : sim_(sim),
      calib_(calib),
      machine_(machine),
      preserved_(preserved),
      rng_(rng),
      faults_(faults),
      mode_(mode),
      allocator_(machine.memory().frame_count()),
      heap_(calib.vmm_heap_size),
      xend_(sim) {
  // Hypervisor text/data and static tables occupy machine frames.
  allocator_.allocate(kVmmOwner,
                      calib_.vmm_reserved_memory / sim::kPageSize);
}

sim::Duration Vmm::create_duration(sim::Bytes memory) const {
  return calib_.domain_create_base +
         static_cast<sim::Duration>(
             sim::to_gib(memory) *
             static_cast<double>(calib_.domain_create_per_gib));
}

void Vmm::reserve_preserved_regions() {
  // Re-reserve preserved memory before anything else can take it. A fresh
  // boot finds the registry empty (RAM was power-cycled). If the registry
  // is dishonoured (ablation), frozen frames stay free and are handed out
  // or scrubbed -- the corruption quick reload exists to prevent.
  if (mode_ != BootMode::kQuickReload || !calib_.honor_preserved_regions) return;
  // Claim every region's frozen frames before allocating any metadata
  // frames: a metadata allocation placed first could grab a later region's
  // still-free frozen frames and turn a healthy reload into a claim
  // conflict.
  for (const auto& name : preserved_.names()) {
    allocator_.claim(kVmmOwner, preserved_.find(name)->frozen_frames);
  }
  // Frames backing the serialised metadata itself, as many as the region
  // is charged for. Whatever those frames held before is overwritten by
  // the metadata copy. Under pressure this allocation can fail (stale
  // leaked regions); the region is then dropped: its frozen claim is
  // released and the record erased, and the resume path reports the VM as
  // having lost its image rather than the whole reload failing.
  std::vector<std::string> dropped;
  for (const auto& name : preserved_.names()) {
    const auto* region = preserved_.find(name);
    const auto meta_frames =
        (region->charged_size() + sim::kPageSize - 1) / sim::kPageSize;
    try {
      for (const auto& run : allocator_.allocate(kVmmOwner, meta_frames)) {
        machine_.memory().scrub(run);
      }
    } catch (const mm::OutOfMachineMemory&) {
      for (const auto& run : region->frozen_frames) {
        ensure(allocator_.release_owned(kVmmOwner, run) == run.count,
               "Vmm: a frozen frame claimed at reload is not the VMM's");
      }
      dropped.push_back(name);
    }
  }
  for (const auto& name : dropped) preserved_.erase(name);
}

void Vmm::build_dom0() {
  // Domain 0 is built by the VMM at boot (its userland boot timing is the
  // Host's concern).
  Domain& dom0 = make_domain("Domain-0", calib_.dom0_memory,
                             /*hooks=*/nullptr, /*privileged=*/true);
  dom0.set_state(DomainState::kRunning);
}

void Vmm::scrub_free_memory() {
  // Frozen frames are owned (claimed by reserve_preserved_regions), so the
  // scrubber never touches them.
  auto& memory = machine_.memory();
  for (const auto& run : allocator_.runs()) {
    if (run.value != kNoDomain) continue;
    memory.scrub(hw::FrameRun{run.first, run.count});
  }
}

void Vmm::finish_boot() {
  ready_ = true;
  machine_.set_running();
}

void Vmm::boot(std::function<void()> on_ready) {
  ensure(!ready_, "Vmm::boot: already booted");
  ensure(static_cast<bool>(on_ready), "Vmm::boot: callback required");
  sim_.after(calib_.vmm_core_init, [this, on_ready = std::move(on_ready)]() mutable {
    reserve_preserved_regions();
    build_dom0();
    const auto scrub_bytes = allocator_.free_frames() * sim::kPageSize;
    scrub_duration_ = sim::transfer_time(scrub_bytes, calib_.scrub_bps);
    sim_.after(scrub_duration_, [this, on_ready = std::move(on_ready)]() mutable {
      scrub_free_memory();
      sim_.after(calib_.dom0_kernel_boot,
                 [this, on_ready = std::move(on_ready)] {
                   finish_boot();
                   on_ready();
                 });
    });
  });
}

void Vmm::boot_instantly() {
  ensure(!ready_, "Vmm::boot_instantly: already booted");
  reserve_preserved_regions();
  build_dom0();
  scrub_free_memory();
  scrub_duration_ = 0;
  finish_boot();
}

Domain& Vmm::make_domain(const std::string& name, sim::Bytes memory,
                         GuestHooks* hooks, bool privileged,
                         sim::Bytes initial_allocation) {
  ensure(find_domain_by_name(name) == nullptr,
         [&] { return "Vmm: domain '" + name + "' already exists"; });
  ensure(initial_allocation >= 0 && initial_allocation <= memory,
         "Vmm: initial_allocation out of [0, memory]");
  const DomainId id = next_domain_id_++;
  // Per-domain hypervisor structures live on the (small) VMM heap; this is
  // the allocation that an aged, leaking heap eventually fails.
  heap_.allocate("domain/" + name, kDomainHeapCost);
  auto dom = std::make_unique<Domain>(id, name, memory, privileged);
  const auto pages = Domain::pages_for(memory);
  // Xen's memory= < maxmem= boot: the P2M spans all `pages` nominal PFNs
  // but only the lowest `populated` get machine frames; the top PFNs start
  // as balloon holes (0 == populate everything).
  const auto populated =
      initial_allocation == 0 ? pages : Domain::pages_for(initial_allocation);
  // PFN i is backed by the i-th frame allocated. Pages are scrubbed
  // before being handed to a domain (isolation: no stale data crosses
  // domains).
  const auto frames = allocator_.allocate(id, populated);
  for (const auto& run : frames) machine_.memory().scrub(run);
  const mm::PfnRange pfns[] = {{0, populated}};
  dom->p2m().add(pfns, frames);
  // Fresh execution state: unique tokens per instantiation.
  dom->exec().cpu_context = rng_.next();
  dom->exec().shared_info = rng_.next();
  dom->exec().device_config = rng_.next();
  if (!privileged) {
    const EventPort port = dom->event_channels().alloc_unbound(kDomain0);
    dom->event_channels().bind(port);
  }
  dom->exec().event_channels = dom->event_channels().state_token();
  dom->set_hooks(hooks);
  Domain& ref = *dom;
  domains_[id] = std::move(dom);
  return ref;
}

void Vmm::create_domain(const std::string& name, sim::Bytes memory,
                        GuestHooks* hooks, std::function<void(DomainId)> done,
                        sim::Bytes initial_allocation) {
  ensure(static_cast<bool>(done), "Vmm::create_domain: callback required");
  xend_.enqueue(create_duration(memory),
                [this, name, memory, hooks, initial_allocation,
                 done = std::move(done)] {
                  Domain& d =
                      make_domain(name, memory, hooks, false, initial_allocation);
                  d.set_state(DomainState::kRunning);
                  done(d.id());
                });
}

DomainId Vmm::create_domain_now(const std::string& name, sim::Bytes memory,
                                GuestHooks* hooks,
                                sim::Bytes initial_allocation) {
  Domain& d = make_domain(name, memory, hooks, false, initial_allocation);
  d.set_state(DomainState::kRunning);
  return d.id();
}

void Vmm::destroy_domain(DomainId id) {
  Domain& d = domain(id);
  ensure(!d.privileged(), "Vmm::destroy_domain: cannot destroy domain 0");
  allocator_.release_all(id);
  heap_.free("domain/" + d.name(), kDomainHeapCost);
  // Aging injection: buggy teardown paths leak hypervisor heap (the Xen
  // changeset-9392 class of bug).
  if (calib_.heap_leak_per_domain_cycle > 0) {
    heap_.leak(calib_.heap_leak_per_domain_cycle);
  }
  d.set_state(DomainState::kDead);
  domains_.erase(id);
}

Domain& Vmm::domain(DomainId id) {
  return const_cast<Domain&>(std::as_const(*this).domain(id));
}

const Domain& Vmm::domain(DomainId id) const {
  const auto it = domains_.find(id);
  ensure(it != domains_.end(), [id] {
    return "Vmm::domain: no such domain " + std::to_string(id);
  });
  return *it->second;
}

Domain* Vmm::find_domain(DomainId id) {
  const auto it = domains_.find(id);
  return it == domains_.end() ? nullptr : it->second.get();
}

Domain* Vmm::find_domain_by_name(const std::string& name) {
  for (auto& [id, dom] : domains_) {
    if (dom->name() == name) return dom.get();
  }
  return nullptr;
}

std::vector<DomainId> Vmm::unprivileged_domain_ids() const {
  std::vector<DomainId> out;
  for (const auto& [id, dom] : domains_) {
    if (!dom->privileged() && dom->state() != DomainState::kDead) {
      out.push_back(id);
    }
  }
  return out;
}

sim::Bytes Vmm::trigger_error_path() {
  const sim::Bytes leak = calib_.heap_leak_per_error_path;
  if (leak > 0) heap_.leak(leak);
  return leak;
}

Vmm::ConservationReport Vmm::frame_conservation_report() const {
  ConservationReport r;
  r.allocator_consistent = allocator_.accounting_ok();
  r.registry_frames = preserved_.reserved_frames();
  // Every frozen frame recorded in the registry must be held by the VMM
  // itself -- neither free (the scrubber would eat it) nor handed to a
  // domain (double ownership).
  r.frozen_frames_reserved = true;
  for (const auto& name : preserved_.names()) {
    const auto& frozen = preserved_.find(name)->frozen_frames;
    r.frozen_frames_reserved =
        std::all_of(frozen.begin(), frozen.end(), [this](hw::FrameRun run) {
          return allocator_.holds(kVmmOwner, run);
        });
    if (!r.frozen_frames_reserved) break;
  }
  // Every live domain's mapped MFNs must be owned by that domain, and its
  // allocator count must equal its populated page count -- no orphaned or
  // shared frames.
  r.p2m_ownership_consistent = true;
  for (const auto& [id, dom] : domains_) {
    if (dom->state() == DomainState::kDead) continue;
    const DomainId owner = id;
    const auto& runs = dom->p2m().runs();
    r.p2m_ownership_consistent =
        allocator_.owned_frames(owner) == dom->p2m().populated() &&
        std::all_of(runs.begin(), runs.end(),
                    [this, owner](const mm::P2mTable::Runs::Run& run) {
                      return allocator_.holds(owner, {run.value, run.count});
                    });
    if (!r.p2m_ownership_consistent) break;
  }
  return r;
}

void Vmm::guest_write(DomainId id, mm::Pfn pfn, hw::ContentToken token) {
  Domain& d = domain(id);
  const auto mfn = d.p2m().mfn_of(pfn);
  ensure(mfn != mm::kNoFrame, "Vmm::guest_write: PFN is ballooned out");
  machine_.memory().write(mfn, token);
}

hw::ContentToken Vmm::guest_read(DomainId id, mm::Pfn pfn) const {
  const Domain& d = domain(id);
  const auto mfn = d.p2m().mfn_of(pfn);
  ensure(mfn != mm::kNoFrame, "Vmm::guest_read: PFN is ballooned out");
  return machine_.memory().read(mfn);
}

}  // namespace rh::vmm
