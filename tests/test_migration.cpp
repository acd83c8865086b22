// Pre-copy live migration model (Section 6's comparison point).
#include <gtest/gtest.h>

#include "cluster/migration.hpp"
#include "simcore/check.hpp"

namespace rh::test {
namespace {

TEST(Migration, ReproducesClarkDataPoint) {
  // One 800 MB VM migrates in ~72 s (Clark et al., as cited by the paper).
  const auto est = cluster::estimate_migration(800 * sim::kMiB, {});
  EXPECT_NEAR(sim::to_seconds(est.total), 72.0, 12.0);
  // Stop-and-copy downtime is tiny compared to any reboot technique.
  EXPECT_LT(est.stop_and_copy, sim::kSecond);
  EXPECT_GE(est.rounds, 1);
}

TEST(Migration, EvacuationOfElevenVmsTakesSeventeenMinutes) {
  const auto evac = cluster::estimate_host_evacuation(11, sim::kGiB, {});
  EXPECT_NEAR(sim::to_seconds(evac) / 60.0, 17.0, 3.0);
}

TEST(Migration, ConvergesFasterWithLowerDirtyRate) {
  cluster::MigrationConfig quiet;
  quiet.dirty_bps = 0.1e6;
  cluster::MigrationConfig busy;
  busy.dirty_bps = 8.0e6;
  const auto q = cluster::estimate_migration(sim::kGiB, quiet);
  const auto b = cluster::estimate_migration(sim::kGiB, busy);
  EXPECT_LT(q.total, b.total);
  EXPECT_LE(q.rounds, b.rounds);
  EXPECT_LT(q.bytes_transferred, b.bytes_transferred);
}

TEST(Migration, TransferOverheadBounded) {
  const auto est = cluster::estimate_migration(sim::kGiB, {});
  const double overhead = est.overhead_factor(sim::kGiB);
  EXPECT_GE(overhead, 1.0);   // at least the whole image
  EXPECT_LT(overhead, 1.5);   // pre-copy converges quickly at this ratio
}

TEST(Migration, DivergentDirtyRateRejected) {
  cluster::MigrationConfig c;
  c.dirty_bps = c.effective_bps * 2;
  EXPECT_THROW((void)cluster::estimate_migration(sim::kGiB, c), InvariantViolation);
  EXPECT_THROW((void)cluster::estimate_migration(0, {}), InvariantViolation);
}

}  // namespace
}  // namespace rh::test
