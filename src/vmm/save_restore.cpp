// Xen-style disk-backed save/restore -- the saved-VM baseline.
//
// Unlike the on-memory mechanism, save writes the domain's *entire* memory
// image through the single disk, and restore reads it back: both costs are
// proportional to domain memory and serialise across domains on the disk
// queue. These are the curves the paper's Figures 4 and 5 compare against.
#include <utility>

#include "simcore/check.hpp"
#include "vmm/vmm.hpp"

namespace rh::vmm {

void ImageStore::put(SavedImage image) {
  ensure(!image.domain_name.empty(), "ImageStore: image needs a name");
  images_[image.domain_name] = std::move(image);
}

const SavedImage* ImageStore::find(const std::string& name) const {
  const auto it = images_.find(name);
  return it == images_.end() ? nullptr : &it->second;
}

bool ImageStore::erase(const std::string& name) { return images_.erase(name) > 0; }

void Vmm::save_domain_to_disk(DomainId id, ImageStore& store,
                              std::function<void()> done) {
  ensure(static_cast<bool>(done), "save: callback required");
  Domain& d = domain(id);
  ensure(!d.privileged(), "save: cannot save domain 0");
  ensure(d.running(),
         [&] { return "save: domain '" + d.name() + "' is not running"; });
  ensure(d.hooks() != nullptr, "save: domain has no guest hooks");
  d.set_state(DomainState::kSuspending);
  if (tracer_.enabled()) trace("xm save -> domain '" + d.name() + "'");

  sim_.after(calib_.suspend_event_delivery, [this, id, &store,
                                             done = std::move(done)] {
    domain(id).hooks()->on_suspend_event([this, id, &store, done] {
      Domain& d = domain(id);
      d.set_state(DomainState::kSavedToDisk);
      // Whole-image write at the effective save rate; the device queue
      // serialises concurrent saves. Related-work variants: optional
      // compression (smaller image, CPU cost) and/or a RAM-disk target.
      const auto image_bytes = static_cast<sim::Bytes>(
          static_cast<double>(d.memory_size()) * calib_.xen_save_compression_ratio);
      const bool compressed = calib_.xen_save_compression_ratio < 1.0;
      const auto compress_cpu =
          compressed && calib_.xen_save_compress_bps > 0
              ? sim::transfer_time(d.memory_size(), calib_.xen_save_compress_bps)
              : 0;
      hw::Disk& device =
          calib_.save_to_ram_disk ? machine_.ram_disk() : machine_.disk();
      const auto write_rate = calib_.save_to_ram_disk
                                  ? device.model().sequential_write_bps
                                  : calib_.xen_save_bps;
      const auto service =
          calib_.xen_save_prep + sim::transfer_time(image_bytes, write_rate);
      machine_.cpu().run(compress_cpu, [this, id, &store, dev = &device,
                                        service, done] {
      dev->occupy(service, [this, id, &store, done] {
        // An injected write error loses the image partway through: the
        // domain was already quiesced and torn down, but no usable save
        // file exists. The caller must check the store before restoring.
        if (faults_.roll(fault::FaultKind::kDiskWriteError, sim_.now(),
                         "save:" + domain(id).name())) {
          if (tracer_.enabled()) {
            trace("domain '" + domain(id).name() +
                  "' save FAILED: disk write error (injected)");
          }
          destroy_domain(id);
          done();
          return;
        }
        store.put(capture_image(id));
        if (tracer_.enabled()) {
          trace("domain '" + domain(id).name() + "' image written to disk");
        }
        destroy_domain(id);
        done();
      });
      });
    });
  });
}

void Vmm::restore_domain_from_disk(const std::string& name, ImageStore& store,
                                   GuestHooks* hooks,
                                   std::function<void(DomainId)> done) {
  ensure(static_cast<bool>(done), "restore: callback required");
  ensure(hooks != nullptr, "restore: guest hooks required");
  const SavedImage* img = store.find(name);
  ensure(img != nullptr,
         [&] { return "restore: no saved image for domain '" + name + "'"; });
  const sim::Bytes memory = img->memory_size;

  // Domain creation is serialised through xend; the image read then
  // occupies the disk.
  // Populate only as many pages as the image actually carries (its holes
  // stay holes): a ballooned-down VM restores onto a host that cannot back
  // its nominal size -- the overcommit case.
  const sim::Bytes initial_allocation =
      static_cast<sim::Bytes>(img->pages.size()) * sim::kPageSize;
  xend_.enqueue(create_duration(memory), [this, name, &store, hooks, memory,
                                          initial_allocation,
                                          done = std::move(done)] {
    Domain& d = make_domain(name, memory, hooks, /*privileged=*/false,
                            initial_allocation);
    const DomainId id = d.id();
    const auto image_bytes = static_cast<sim::Bytes>(
        static_cast<double>(memory) * calib_.xen_save_compression_ratio);
    hw::Disk& device =
        calib_.save_to_ram_disk ? machine_.ram_disk() : machine_.disk();
    const auto read_rate = calib_.save_to_ram_disk
                               ? device.model().sequential_read_bps
                               : calib_.xen_restore_bps;
    // Decompression streams roughly twice as fast as compression.
    const auto decompress_cpu =
        calib_.xen_save_compression_ratio < 1.0 &&
                calib_.xen_save_compress_bps > 0
            ? sim::transfer_time(memory, 2.0 * calib_.xen_save_compress_bps)
            : 0;
    const auto service = calib_.xen_restore_prep + decompress_cpu +
                         sim::transfer_time(image_bytes, read_rate);
    device.occupy(service, [this, id, name, &store, hooks, done] {
      // An injected read error means the save file is unreadable: tear the
      // half-built domain back down, drop the dead image, and report
      // failure via kNoDomain so a supervisor can fall back to cold boot.
      if (faults_.roll(fault::FaultKind::kDiskReadError, sim_.now(),
                       "restore:" + name)) {
        if (tracer_.enabled()) {
          trace("domain '" + name +
                "' restore FAILED: disk read error (injected)");
        }
        destroy_domain(id);
        store.erase(name);
        done(kNoDomain);
        return;
      }
      const SavedImage* img = store.find(name);
      ensure(img != nullptr, "restore: saved image vanished mid-restore");
      apply_image(id, *img);
      store.erase(name);
      if (tracer_.enabled()) {
        trace("domain '" + name + "' image read from disk");
      }
      hooks->on_resume(id, [this, id, done] {
        domain(id).set_state(DomainState::kRunning);
        if (tracer_.enabled()) {
          trace("domain '" + domain(id).name() + "' restored from disk");
        }
        done(id);
      });
    });
  });
}

SavedImage Vmm::capture_image(DomainId id) const {
  const Domain& d = domain(id);
  SavedImage img;
  img.domain_name = d.name();
  img.memory_size = d.memory_size();
  img.pfn_count = d.p2m().pfn_count();
  img.exec = d.exec();
  img.exec.event_channels = d.event_channels().state_token();
  img.event_channels = d.event_channels();
  const auto entries = d.p2m().entries();
  const auto& memory = machine_.memory();
  img.pages.reserve(static_cast<std::size_t>(d.p2m().populated()));
  for (std::size_t pfn = 0; pfn < entries.size(); ++pfn) {
    if (entries[pfn] != mm::kNoFrame) {
      img.pages.emplace_back(static_cast<mm::Pfn>(pfn), memory.read(entries[pfn]));
    }
  }
  return img;
}

void Vmm::apply_image(DomainId id, const SavedImage& img) {
  Domain& d = domain(id);
  // Rebuild pseudo-physical shape symmetrically: balloon out pages that
  // were holes at capture time, populate pages the fresh domain started
  // without (a reduced-allocation shell restoring a bigger image), then
  // write back every captured page's contents. Releases run before
  // allocations so the net frame demand is only the true delta.
  ensure(img.pfn_count == d.p2m().pfn_count(), "apply_image: shape mismatch");
  std::vector<bool> populated(static_cast<std::size_t>(img.pfn_count), false);
  for (const auto& [pfn, token] : img.pages) {
    populated[static_cast<std::size_t>(pfn)] = true;
  }
  for (mm::Pfn pfn = 0; pfn < img.pfn_count; ++pfn) {
    if (!populated[static_cast<std::size_t>(pfn)] && !d.p2m().is_hole(pfn)) {
      allocator_.release(d.p2m().remove(pfn));
    }
  }
  std::vector<mm::Pfn> missing;
  for (mm::Pfn pfn = 0; pfn < img.pfn_count; ++pfn) {
    if (populated[static_cast<std::size_t>(pfn)] && d.p2m().is_hole(pfn)) {
      missing.push_back(pfn);
    }
  }
  if (!missing.empty()) {
    const auto frames =
        allocator_.allocate(id, static_cast<std::int64_t>(missing.size()));
    for (std::size_t i = 0; i < missing.size(); ++i) {
      machine_.memory().scrub(frames[i]);
      d.p2m().add(missing[i], frames[i]);
    }
  }
  // Write the contents back through the P2M (guest_write's path, without
  // looking the domain up again for every page).
  auto& memory = machine_.memory();
  for (const auto& [pfn, token] : img.pages) {
    const auto mfn = d.p2m().mfn_of(pfn);
    ensure(mfn != mm::kNoFrame, "apply_image: PFN is ballooned out");
    memory.write(mfn, token);
  }
  d.exec() = img.exec;
  d.event_channels() = img.event_channels;
}

void Vmm::restore_domain_from_image(const SavedImage& image, GuestHooks* hooks,
                                    std::function<void(DomainId)> done) {
  ensure(static_cast<bool>(done), "restore_from_image: callback required");
  ensure(hooks != nullptr, "restore_from_image: guest hooks required");
  // Copy the image: the caller's buffer need not outlive the operation.
  auto img = std::make_shared<SavedImage>(image);
  xend_.enqueue(create_duration(img->memory_size),
                [this, img, hooks, done = std::move(done)] {
                  Domain& d = make_domain(
                      img->domain_name, img->memory_size, hooks,
                      /*privileged=*/false,
                      static_cast<sim::Bytes>(img->pages.size()) * sim::kPageSize);
                  const DomainId id = d.id();
                  apply_image(id, *img);
                  if (tracer_.enabled()) {
                    trace("domain '" + img->domain_name +
                          "' rebuilt from migrated image");
                  }
                  hooks->on_resume(id, [this, id, done] {
                    domain(id).set_state(DomainState::kRunning);
                    if (tracer_.enabled()) {
                      trace("domain '" + domain(id).name() +
                            "' live on destination");
                    }
                    done(id);
                  });
                });
}

}  // namespace rh::vmm
