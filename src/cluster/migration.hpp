// Pre-copy live migration model (Clark et al., NSDI'05), the alternative
// the paper's Section 6 compares the warm-VM reboot against.
//
// Round 0 pushes the whole memory image while the VM runs and dirties
// pages; each subsequent round pushes the pages dirtied during the
// previous round, until the residue is small enough for a brief
// stop-and-copy. The paper quotes 72 s for one 800 MB VM and a 12 %
// throughput degradation during migration; the defaults reproduce the
// 72 s, and ClusterThroughputParams::migration_degradation carries the
// 12 %.
// This file holds the closed-form estimate; cluster::VmMigrator runs the
// same rounds event by event between two simulated hosts.
#pragma once

#include "simcore/types.hpp"

namespace rh::cluster {

struct MigrationConfig {
  /// Effective transfer rate (rate-limited adaptive algorithm; the 72 s /
  /// 800 MB data point gives ~11.6 MB/s).
  double effective_bps = 11.6e6;
  /// Rate at which the running guest dirties memory.
  double dirty_bps = 1.2e6;
  /// Stop-and-copy once the residue falls below this.
  sim::Bytes stop_threshold = 8 * sim::kMiB;
  int max_rounds = 30;
};

/// Closed-form per-VM migration outcome.
struct MigrationEstimate {
  sim::Duration total = 0;              ///< start -> VM running on target
  sim::Duration stop_and_copy = 0;      ///< the actual service downtime
  int rounds = 0;                       ///< pre-copy rounds (excl. stop-and-copy)
  sim::Bytes bytes_transferred = 0;

  [[nodiscard]] double overhead_factor(sim::Bytes memory) const {
    return static_cast<double>(bytes_transferred) / static_cast<double>(memory);
  }
};

/// Analytic pre-copy iteration.
[[nodiscard]] MigrationEstimate estimate_migration(sim::Bytes memory,
                                                   const MigrationConfig& config);

/// Sequential migration of `vm_count` VMs of `memory` each (the paper's
/// 17-minute estimate for 11 x 1 GiB).
[[nodiscard]] sim::Duration estimate_host_evacuation(int vm_count, sim::Bytes memory,
                                                     const MigrationConfig& config);

}  // namespace rh::cluster
