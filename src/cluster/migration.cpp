#include "cluster/migration.hpp"

#include "simcore/check.hpp"

namespace rh::cluster {

namespace {

sim::Bytes dirtied_during(sim::Duration d, const MigrationConfig& c) {
  return static_cast<sim::Bytes>(sim::to_seconds(d) * c.dirty_bps);
}

}  // namespace

MigrationEstimate estimate_migration(sim::Bytes memory,
                                     const MigrationConfig& config) {
  ensure(memory > 0, "estimate_migration: memory must be positive");
  ensure(config.effective_bps > config.dirty_bps,
         "estimate_migration: dirty rate exceeds transfer rate (never converges)");
  MigrationEstimate est;
  sim::Bytes to_send = memory;
  while (est.rounds < config.max_rounds && to_send > config.stop_threshold) {
    const sim::Duration round = sim::transfer_time(to_send, config.effective_bps);
    est.total += round;
    est.bytes_transferred += to_send;
    to_send = dirtied_during(round, config);
    ++est.rounds;
  }
  est.stop_and_copy = sim::transfer_time(to_send, config.effective_bps);
  est.total += est.stop_and_copy;
  est.bytes_transferred += to_send;
  return est;
}

sim::Duration estimate_host_evacuation(int vm_count, sim::Bytes memory,
                                       const MigrationConfig& config) {
  ensure(vm_count > 0, "estimate_host_evacuation: need VMs");
  return static_cast<sim::Duration>(vm_count) *
         estimate_migration(memory, config).total;
}

}  // namespace rh::cluster
