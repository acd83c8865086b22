// On-memory suspend/resume: the first of the paper's two mechanisms.
//
// Suspend "freezes" a domain's memory image in place: no page is copied
// anywhere. Only the 16 KiB execution state, the event-channel status and
// the P2M table are serialised into the preserved-region registry, along
// with the runs of frozen machine frames. Resume (typically in a *new* VMM
// instance after quick reload) re-creates the domain shell, re-claims the
// exact frozen frames via the preserved P2M table, restores the execution
// state and runs the guest's resume handler.
#include <memory>
#include <utility>

#include "simcore/check.hpp"
#include "vmm/vmm.hpp"

namespace rh::vmm {

namespace {

/// Parsed preserved-domain record.
struct PreservedDomainRecord {
  std::string name;
  sim::Bytes memory_size = 0;
  ExecState exec;
  EventChannelTable event_channels;
  mm::P2mTable p2m;
};

PreservedDomainRecord parse_record(const mm::PreservedRegion& region) {
  mm::ByteReader r(region.payload);
  PreservedDomainRecord rec;
  rec.name = r.str();
  rec.memory_size = r.i64();
  rec.exec = ExecState::deserialize(r);
  rec.event_channels = EventChannelTable::deserialize(r);
  rec.p2m = mm::P2mTable::deserialize(r);
  ensure(r.exhausted(), "preserved domain record: trailing bytes");
  return rec;
}

}  // namespace

mm::PreservedRegion Vmm::preserved_record(Domain& d) {
  // Capture the live event-channel status into the execution state.
  d.exec().event_channels = d.event_channels().state_token();
  mm::ByteWriter w;
  w.str(d.name());
  w.i64(d.memory_size());
  d.exec().serialize(w);
  d.event_channels().serialize(w);
  mm::PreservedRegion region;
  // Charged as if the P2M were written one 8-byte MFN per PFN behind an
  // 8-byte count, as the paper's VMM stores it; the runs actually written
  // take a few dozen bytes.
  region.charged_bytes =
      static_cast<sim::Bytes>(w.size()) + 8 + d.p2m().size_bytes();
  d.p2m().serialize(w);
  region.name = std::string(kRegionPrefix) + d.name();
  region.payload = w.take();
  region.frozen_frames = d.p2m().frame_runs();
  return region;
}

void Vmm::suspend_domain_on_memory(DomainId id, std::function<void()> done) {
  ensure(static_cast<bool>(done), "suspend: callback required");
  Domain& d = domain(id);
  ensure(!d.privileged(), "suspend: cannot suspend domain 0");
  ensure(d.running(),
         [&] { return "suspend: domain '" + d.name() + "' is not running"; });
  ensure(d.hooks() != nullptr, "suspend: domain has no guest hooks");
  d.set_state(DomainState::kSuspending);

  sim_.after(calib_.suspend_event_delivery, [this, id, done = std::move(done)] {
    // The guest runs its suspend handler (detaching devices) and then
    // issues the suspend hypercall, which we receive as this continuation.
    domain(id).hooks()->on_suspend_event([this, id, done] {
      Domain& d = domain(id);
      const auto freeze =
          calib_.suspend_freeze_base +
          static_cast<sim::Duration>(
              sim::to_gib(d.memory_size()) *
              static_cast<double>(calib_.suspend_freeze_per_gib));
      sim_.after(freeze, [this, id, done] {
        Domain& d = domain(id);
        mm::PreservedRegion region = preserved_record(d);
        const std::string region_name = region.name;
        // The suspend path itself needs frames (region bookkeeping, the
        // metadata copy). Two ways that can fail: an injected allocation
        // failure, or the registry's preserved-frame budget. Either way
        // the domain still ends up suspended -- the guest already ran its
        // suspend handler -- but with NO preserved image, so only a
        // restore or cold boot can bring it back. Supervisors detect this
        // via has_preserved_image().
        bool recorded = false;
        if (!faults_.roll(fault::FaultKind::kFrameAllocFailure, sim_.now(),
                          "suspend:" + d.name())) {
          try {
            preserved_.put(std::move(region));
            recorded = true;
          } catch (const mm::PreservedBudgetExceeded&) {
            // Over budget: the domain suspends without an image.
          }
        }
        // Bit-rot injection: the image is recorded but a payload byte flips
        // in RAM before anyone reads it back. The stamped checksum still
        // reflects the original bytes, so resume-time verification catches
        // it (preserved_image_intact() goes false).
        if (recorded &&
            faults_.roll(fault::FaultKind::kCorruptPreservedImage, sim_.now(),
                         "suspend:" + d.name())) {
          preserved_.corrupt_payload(region_name);
        }

        d.set_state(DomainState::kSuspendedInMemory);
        done();
      });
    });
  });
}

void Vmm::suspend_all_on_memory(std::function<void()> done) {
  ensure(static_cast<bool>(done), "suspend_all: callback required");
  std::vector<DomainId> targets;
  for (const auto id : unprivileged_domain_ids()) {
    if (domain(id).running()) targets.push_back(id);
  }
  if (targets.empty()) {
    sim_.after(0, std::move(done));
    return;
  }
  // All domains receive their suspend events in parallel; completion when
  // the last hypercall finishes.
  auto remaining = std::make_shared<std::size_t>(targets.size());
  auto shared_done = std::make_shared<std::function<void()>>(std::move(done));
  for (const auto id : targets) {
    suspend_domain_on_memory(id, [remaining, shared_done] {
      if (--*remaining == 0) (*shared_done)();
    });
  }
}

std::size_t Vmm::snapshot_domains_for_recovery() {
  std::size_t recorded = 0;
  for (const auto id : unprivileged_domain_ids()) {
    Domain& d = domain(id);
    if (!d.running()) continue;
    // Same record format as a suspend, cut at the instant of death: the
    // frozen frames are wherever the P2M says they are, the execution
    // state is whatever the vCPUs held when scheduling stopped.
    mm::PreservedRegion region = preserved_record(d);
    const std::string region_name = region.name;
    // A stale record (leaked by an earlier incarnation) would block the
    // fresh snapshot; the crash handler overwrites it.
    if (preserved_.contains(region_name)) preserved_.erase(region_name);
    bool put_ok = false;
    if (!faults_.roll(fault::FaultKind::kFrameAllocFailure, sim_.now(),
                      "crash:" + d.name())) {
      try {
        preserved_.put(std::move(region));
        put_ok = true;
        ++recorded;
      } catch (const mm::PreservedBudgetExceeded&) {
        // Over budget: the snapshot is lost.
      }
    }
    if (put_ok &&
        faults_.roll(fault::FaultKind::kCorruptPreservedImage, sim_.now(),
                     "crash:" + d.name())) {
      preserved_.corrupt_payload(region_name);
    }
  }
  return recorded;
}

Vmm::MicroRecoveryReport Vmm::micro_recover() const {
  MicroRecoveryReport out;
  const std::string prefix = kRegionPrefix;
  for (const auto& name : preserved_.names()) {
    if (name.rfind(prefix, 0) != 0) continue;
    ++out.regions_checked;
    const auto* region = preserved_.find(name);
    ensure(region != nullptr, "micro_recover: region vanished mid-walk");
    if (!preserved_.intact(name)) {
      out.corrupt_domains.push_back(name.substr(prefix.size()));
      continue;
    }
    // Re-parse the record end to end: this is the metadata rebuild -- heap
    // shadow, P2M, event channels -- the recovered VMM will resume from.
    const PreservedDomainRecord rec = parse_record(*region);
    ensure(rec.name == name.substr(prefix.size()),
           "micro_recover: record/region name mismatch");
    ++out.intact_regions;
    out.metadata_bytes += region->charged_size();
  }
  out.frames_consistent = frame_conservation_report().ok();
  return out;
}

bool Vmm::has_preserved_image(const std::string& name) const {
  return preserved_.contains(std::string(kRegionPrefix) + name);
}

bool Vmm::preserved_image_intact(const std::string& name) const {
  return preserved_.intact(std::string(kRegionPrefix) + name);
}

void Vmm::resume_domain_on_memory(const std::string& name, GuestHooks* hooks,
                                  std::function<void(DomainId)> done) {
  ensure(static_cast<bool>(done), "resume: callback required");
  ensure(hooks != nullptr, "resume: guest hooks required");
  const std::string region_name = std::string(kRegionPrefix) + name;
  ensure(preserved_.find(region_name) != nullptr,
         [&] { return "resume: no preserved image for domain '" + name + "'"; });

  // Domain re-creation and state restoration are serialised through the
  // management stack in domain 0 -- the resume(n) ~ 0.43 n slope.
  xend_.enqueue(
      calib_.domain_create_base + calib_.resume_state_restore,
      [this, name, region_name, hooks, done = std::move(done)] {
        const auto* region = preserved_.find(region_name);
        ensure(region != nullptr, "resume: preserved image vanished");
        ensure(mm::payload_checksum(region->payload) == region->checksum, [&] {
          return "resume: preserved image for domain '" + name +
                 "' failed its checksum (corrupted in RAM); a supervisor "
                 "must check preserved_image_intact() and cold-boot instead";
        });
        PreservedDomainRecord rec = parse_record(*region);

        // Resuming within the same VMM instance (no reload in between):
        // the suspended domain's shell still exists and owns the frozen
        // frames; retire it so its successor can claim them.
        if (Domain* old_dom = find_domain_by_name(name)) {
          ensure(old_dom->state() == DomainState::kSuspendedInMemory, [&] {
            return "resume: domain '" + name + "' exists and is not suspended";
          });
          const DomainId old_id = old_dom->id();
          allocator_.release_all(old_id);
          heap_.free("domain/" + name, kDomainHeapCost);
          domains_.erase(old_id);
        }

        const DomainId id = next_domain_id_++;
        heap_.allocate("domain/" + name, kDomainHeapCost);
        auto dom = std::make_unique<Domain>(id, name, rec.memory_size,
                                            /*privileged=*/false);
        // Re-attach the frozen frames. If the incoming VMM did not honour
        // the preserved regions, these frames were handed out or scrubbed
        // and this claim (or the guest's later integrity check) fails --
        // the corruption the quick reload mechanism exists to prevent.
        const auto frames = rec.p2m.frame_runs();
        for (const auto& run : frames) allocator_.release_owned(kVmmOwner, run);
        allocator_.claim(id, frames);
        dom->p2m() = std::move(rec.p2m);
        dom->exec() = rec.exec;
        dom->event_channels() = rec.event_channels;
        dom->set_hooks(hooks);
        dom->set_state(DomainState::kCreated);
        Domain& ref = *dom;
        domains_[id] = std::move(dom);
        preserved_.erase(region_name);

        // Re-attaching memory scales (mildly) with image size and runs
        // outside the management queue; the guest resume handler follows.
        const auto claim_walk = static_cast<sim::Duration>(
            sim::to_gib(ref.memory_size()) *
            static_cast<double>(calib_.resume_claim_per_gib));
        sim_.after(claim_walk, [this, id, hooks, done] {
          hooks->on_resume(id, [this, id, done] {
            domain(id).set_state(DomainState::kRunning);
            done(id);
          });
        });
      });
}

}  // namespace rh::vmm
