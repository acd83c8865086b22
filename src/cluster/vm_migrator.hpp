// Full live migration of a VM between two simulated hosts.
//
// Implements Clark et al.'s pre-copy algorithm end to end on this
// simulator's real mechanisms: iterative image pushes over the source
// host's link while the guest keeps running (and its host's services lose
// ~12 % throughput), then a stop-and-copy built from the *same* on-memory
// suspend machinery RootHammer uses -- the domain is suspended, its image
// captured and shipped, and the GuestOs object rebinds to the destination
// host, where the domain is rebuilt and the guest's resume handler runs.
//
// This is the paper's Section 6 comparison point made concrete: per-VM
// downtime is just the stop-and-copy (sub-second), but evacuating a host
// takes minutes and requires a second machine.
#pragma once

#include <functional>

#include "cluster/migration.hpp"
#include "guest/guest_os.hpp"
#include "vmm/host.hpp"

namespace rh::cluster {

class VmMigrator {
 public:
  explicit VmMigrator(MigrationConfig config = {}) : config_(config) {}

  struct Result {
    MigrationEstimate estimate;
    DomainId destination_domain = kNoDomain;
    /// Service downtime: suspend on the source -> running on destination.
    sim::Duration observed_downtime = 0;
    /// False when an injected fault aborted the migration mid-pre-copy.
    /// The VM is untouched on the source (pre-copy never disturbs it);
    /// the bandwidth already spent is recorded in the estimate.
    bool success = false;
  };

  /// Live-migrates `vm` from its current host to `dst`. The VM must be
  /// running, both hosts up and distinct, and `dst` must have room.
  /// One migration at a time per migrator.
  void migrate(guest::GuestOs& vm, vmm::Host& dst,
               std::function<void(const Result&)> done);

  [[nodiscard]] bool in_progress() const { return in_progress_; }
  [[nodiscard]] int rounds_completed() const { return rounds_; }

 private:
  void precopy_round(sim::Bytes to_send);
  void stop_and_copy(sim::Bytes residue);
  void finish();
  void abort();

  MigrationConfig config_;
  bool in_progress_ = false;
  guest::GuestOs* vm_ = nullptr;
  vmm::Host* src_ = nullptr;
  vmm::Host* dst_ = nullptr;
  std::function<void(const Result&)> done_;
  sim::SimTime started_at_ = 0;
  sim::SimTime suspended_at_ = 0;
  sim::Bytes transferred_ = 0;
  int rounds_ = 0;
  obs::SpanId migration_span_ = obs::kNoSpan;
  obs::SpanId stop_copy_span_ = obs::kNoSpan;
  obs::SpanId outer_ambient_ = obs::kNoSpan;
  Result result_;
};

}  // namespace rh::cluster
