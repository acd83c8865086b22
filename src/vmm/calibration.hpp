// Calibration: every physical constant of the simulated testbed.
//
// Defaults reproduce the paper's machine (dual dual-core Opteron 280,
// 12 GB PC3200, one 15 krpm Ultra320 SCSI disk, gigabit Ethernet) closely
// enough that the evaluation's fitted functions emerge from the model:
//
//   reboot_vmm(n) ~= -0.55 n + 43      (Sec. 5.6)
//   resume(n)     ~=  0.43 n - 0.07
//   reboot_os(n)  ~=  3.8 n + 13
//   boot(n)       ~=  3.4 n + 2.8
//   reset_hw      ~=  47
//
// Each constant documents which measurement pins it down. Experiments
// mutate copies of this struct (e.g. the ablation flags at the bottom).
#pragma once

#include "hw/machine.hpp"
#include "net/network.hpp"
#include "simcore/types.hpp"

namespace rh {

struct Calibration {
  // ------------------------------------------------------------------ hw
  hw::MachineSpec machine{
      /*ram=*/12 * sim::kGiB,
      /*cpu_cores=*/4,
      // 15 krpm Ultra320 SCSI: the paper's Xen save/restore rates imply
      // ~85 MB/s writes and ~88 MB/s reads (Fig. 4); 8 ms random access
      // reproduces the 69 % uncached web-throughput drop (Fig. 8b).
      hw::DiskModel{88.0e6, 85.0e6, 8 * sim::kMillisecond},
      // Gigabit Ethernet, ~117 MB/s usable payload: caps cached web
      // throughput at ~220 req/s for 512 KiB files (Fig. 8b baseline).
      hw::NicModel{117.0e6, 50},
      // POST(12 GiB) = 8 + 3 + 12*2.7 = 43.4 s (Fig. 7 shows 43 s); adding
      // the boot loader gives reset_hw ~= 48 s (Sec. 5.6 fits 47 s).
      hw::BiosModel{8 * sim::kSecond, 3 * sim::kSecond, 2700 * sim::kMillisecond},
  };
  net::LinkModel link{200, 117.0e6};

  // ----------------------------------------------------------------- vmm
  /// Xen's default hypervisor heap (the aging-critical resource, Sec. 2).
  sim::Bytes vmm_heap_size = 16 * sim::kMiB;
  /// Hypervisor text/data + static reservations.
  sim::Bytes vmm_reserved_memory = 64 * sim::kMiB;
  /// Hypervisor init before memory scrub begins.
  sim::Duration vmm_core_init = 2 * sim::kSecond;
  /// Boot-time scrub rate of *free* memory. 1 GiB / 0.55 s gives the paper's
  /// -0.55 s/VM slope of reboot_vmm(n): frozen frames are skipped.
  double scrub_bps = 1.95e9;
  /// GRUB etc. between POST handoff and VMM entry (hardware path only).
  sim::Duration bootloader = 5 * sim::kSecond;

  // -------------------------------------------------------------- dom0
  sim::Bytes dom0_memory = 512 * sim::kMiB;
  sim::Duration dom0_kernel_boot = 2700 * sim::kMillisecond;
  /// Userland boot of the control domain (xend, drivers, network).
  sim::Duration dom0_userland_boot = 31500 * sim::kMillisecond;
  sim::Duration dom0_shutdown = 10 * sim::kSecond;

  // ------------------------------------------------------------- xexec
  /// New VMM+dom0-kernel+initrd image loaded by the xexec hypercall.
  sim::Bytes xexec_image_size = 20 * sim::kMiB;
  sim::Duration xexec_hypercall = 150 * sim::kMillisecond;
  /// CPU handoff + copy of the loaded image to its boot address.
  sim::Duration xexec_jump = 400 * sim::kMillisecond;

  // ------------------------------------------- domain management (xend)
  /// Domain creation is serialised through the management daemon in dom0;
  /// this is the paper's resume(n) ~ 0.43 n slope (with state restore).
  sim::Duration domain_create_base = 310 * sim::kMillisecond;
  sim::Duration domain_create_per_gib = 30 * sim::kMillisecond;
  sim::Duration domain_destroy = 150 * sim::kMillisecond;

  // -------------------------------------------- on-memory suspend/resume
  sim::Duration suspend_event_delivery = 2 * sim::kMillisecond;
  /// Guest suspend handler: detach virtual devices.
  sim::Duration suspend_handler = 30 * sim::kMillisecond;
  /// Freeze = reserve frames + save 16 KiB exec state; walking the
  /// P2M table costs ~4 ms/GiB, giving Fig. 4's near-flat suspend line
  /// (0.08 s at 11 GiB).
  sim::Duration suspend_freeze_base = 5 * sim::kMillisecond;
  sim::Duration suspend_freeze_per_gib = 4 * sim::kMillisecond;
  /// Restoring exec state, serialised in dom0 after domain re-creation.
  sim::Duration resume_state_restore = 60 * sim::kMillisecond;
  /// Re-attaching preserved frames from the P2M table.
  sim::Duration resume_claim_per_gib = 45 * sim::kMillisecond;
  /// Guest resume handler: reattach devices, re-establish event channels.
  sim::Duration resume_handler = 120 * sim::kMillisecond;

  // ------------------------------------------ Xen save/restore (to disk)
  /// Per-domain fixed overhead of xm save / xm restore (fork xc_save,
  /// header, canonicalise page tables...). Fig. 5's per-VM Xen cost.
  sim::Duration xen_save_prep = 5 * sim::kSecond;
  sim::Duration xen_restore_prep = 1500 * sim::kMillisecond;
  /// Effective image throughput (format overhead on top of raw disk).
  double xen_save_bps = 75.0e6;
  double xen_restore_bps = 80.0e6;

  // ---------------------- saved-VM variants (related work, Sec. 7)
  /// Image compression before writing (Windows XP hibernation style):
  /// bytes on disk = memory * ratio. 1.0 disables compression.
  double xen_save_compression_ratio = 1.0;
  /// CPU cost of (de)compression; 0 disables the charge.
  double xen_save_compress_bps = 200.0e6;
  /// Save to a battery-backed RAM disk (GIGABYTE i-RAM style) instead of
  /// the rotating disk. Faster medium, but the image is still copied both
  /// ways -- unlike the on-memory mechanism, which copies nothing.
  bool save_to_ram_disk = false;

  // ------------------------------------------------------------ guest OS
  sim::Duration os_kernel_boot_cpu = 800 * sim::kMillisecond;
  /// Disk reads during boot; serialisation on the shared disk produces the
  /// paper's boot(n) ~ 3.4 n slope.
  sim::Bytes os_boot_io = 280 * sim::kMiB;
  sim::Duration os_userland_wait = 2 * sim::kSecond;
  /// Early shutdown-script phase before services are stopped; services
  /// keep answering during it. Its absence from the warm-reboot path (the
  /// VMM suspends domains only after dom0 is down) is part of Fig. 7's
  /// "stopped 7 s later" observation.
  sim::Duration os_shutdown_grace = 3 * sim::kSecond;
  /// Remaining shutdown: mostly waiting on service stop and sync, not CPU.
  sim::Duration os_shutdown_wait = 6500 * sim::kMillisecond;
  sim::Duration os_shutdown_cpu = 500 * sim::kMillisecond;
  sim::Bytes os_shutdown_io = 8 * sim::kMiB;
  /// Fraction of domain memory usable as page cache.
  double page_cache_fraction = 0.85;
  sim::Bytes cache_block_size = 64 * sim::kKiB;
  /// Effective rate of serving file data out of the page cache; the ratio
  /// to disk throughput yields Fig. 8a's 91 % first-read degradation.
  double mem_copy_bps = 1.0e9;

  // ------------------------------------------------------------- aging
  /// Hypervisor heap bytes leaked per domain create/destroy cycle
  /// (models the Xen changeset-9392 bug class). 0 = no aging.
  sim::Bytes heap_leak_per_domain_cycle = 0;
  /// Heap bytes leaked when an error path runs (changeset-11752 class).
  sim::Bytes heap_leak_per_error_path = 0;

  // ------------------------------------------------- artifacts/ablations
  /// If false, the post-reload VMM ignores the preserved-region registry
  /// and scrubs everything -- the bug quick reload exists to prevent.
  bool honor_preserved_regions = true;
  /// Cap on total preserved-region frames (frozen + metadata) the registry
  /// will record; 0 = unlimited (historical behaviour). A suspend whose
  /// image would exceed it completes without recording an image -- the
  /// pressure the admission controller exists to relieve (DESIGN.md §9).
  std::int64_t preserved_frame_budget = 0;
  /// Xen 3.0.0 degraded network performance for ~25 s after creating many
  /// VMs simultaneously (the paper's Fig. 7 warm-reboot artifact).
  bool model_xen_creation_artifact = true;
  sim::Duration creation_artifact_duration = 25 * sim::kSecond;
  double creation_artifact_nic_factor = 0.45;
  /// RootHammer suspends domains from the VMM *after* dom0 has shut down,
  /// keeping services up ~7 s longer (Fig. 7). false = original-Xen
  /// ordering (suspend first, then shut dom0 down).
  bool suspend_by_vmm_after_dom0_shutdown = true;
  /// Server-throughput loss on a host while it sources a live migration
  /// (Clark et al.: 12 % for Apache; the paper's Sec. 6 analysis).
  double migration_degradation = 0.12;

  // -------------------------------------------------- measurement noise
  /// Run-to-run timing variation as a fraction (stddev/nominal) applied to
  /// the wait-dominated phases (userland boots, shutdown waits) through
  /// Host::jittered(). 0 (the default) keeps every duration at its exact
  /// calibrated constant -- the historical single-run behaviour. The
  /// replicated benches set it (~2 %, the paper's testbed showed seconds
  /// of spread on ~40 s reboots) so confidence intervals across seeds are
  /// non-degenerate.
  double timing_jitter = 0.0;

  /// Paper-testbed defaults (same as value-initialisation; named for
  /// readability at call sites).
  [[nodiscard]] static Calibration paper_testbed() { return {}; }

  /// Throws InvariantViolation if any constant is nonsensical.
  void validate() const;
};

}  // namespace rh
