// Xen-style disk-backed save/restore -- the saved-VM baseline.
//
// Unlike the on-memory mechanism, save writes the domain's *entire* memory
// image through the single disk, and restore reads it back: both costs are
// proportional to domain memory and serialise across domains on the disk
// queue. These are the curves the paper's Figures 4 and 5 compare against.
#include <algorithm>
#include <utility>

#include "simcore/check.hpp"
#include "vmm/vmm.hpp"

namespace rh::vmm {

namespace {

/// The PFNs of `a` that are not in `b`; both ascending and disjoint.
std::vector<mm::PfnRange> subtract(const std::vector<mm::PfnRange>& a,
                                   const std::vector<mm::PfnRange>& b) {
  std::vector<mm::PfnRange> out;
  std::size_t j = 0;
  for (const auto& range : a) {
    mm::Pfn at = range.first;
    // Skip the ranges of b that end before this one starts; a later range
    // of a starts higher still, so they are done with for good.
    while (j < b.size() && b[j].end() <= at) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < range.end(); ++k) {
      if (b[k].first > at) out.push_back({at, b[k].first - at});
      at = std::max(at, b[k].end());
    }
    if (at < range.end()) out.push_back({at, range.end() - at});
  }
  return out;
}

}  // namespace

std::int64_t SavedImage::populated_pages() const {
  std::int64_t total = 0;
  for (const auto& range : populated) total += range.count;
  return total;
}

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
          destroy_domain(id);
          done();
          return;
        }
        store.put(capture_image(id));
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
  const sim::Bytes initial_allocation = img->populated_pages() * sim::kPageSize;
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
        destroy_domain(id);
        store.erase(name);
        done(kNoDomain);
        return;
      }
      const SavedImage* img = store.find(name);
      ensure(img != nullptr, "restore: saved image vanished mid-restore");
      apply_image(id, *img);
      store.erase(name);
      hooks->on_resume(id, [this, id, done] {
        domain(id).set_state(DomainState::kRunning);
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
  img.populated = d.p2m().populated_ranges();
  // Within a mapping run the MFN rises with the PFN, so tokens come out
  // in PFN order.
  for (const auto& run : d.p2m().runs()) {
    machine_.memory().for_each_token(
        {run.value, run.count},
        [&img, &run](hw::FrameNumber mfn, hw::ContentToken token) {
          img.tokens.emplace_back(run.first + (mfn - run.value), token);
        });
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
  const auto now = d.p2m().populated_ranges();
  for (const auto& range : subtract(now, img.populated)) {
    for (const auto& run : d.p2m().remove(range)) {
      ensure(allocator_.release_owned(id, run) == run.count,
             "apply_image: a page being ballooned out is not the domain's");
    }
  }
  const auto missing = subtract(img.populated, now);
  std::int64_t count = 0;
  for (const auto& range : missing) count += range.count;
  d.p2m().add(missing, allocator_.allocate(id, count));
  // Write the contents back through the P2M (guest_write's path, without
  // looking the domain up again for every page): every page the image
  // holds is scrubbed, then the pages with tokens get them back.
  auto& memory = machine_.memory();
  for (const auto& run : d.p2m().frame_runs()) memory.scrub(run);
  for (const auto& [pfn, token] : img.tokens) {
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
                      img->populated_pages() * sim::kPageSize);
                  const DomainId id = d.id();
                  apply_image(id, *img);
                  hooks->on_resume(id, [this, id, done] {
                    domain(id).set_state(DomainState::kRunning);
                    done(id);
                  });
                });
}

}  // namespace rh::vmm
