// The paper's Fig. 6 grid on the host model: warm, saved and cold reboots
// x {ssh, JBoss} x n VMs of 1 GiB on the paper's 12 GB testbed, each
// replication a sequential single-calendar Simulation run on the exp
// replication runner. Same testbeds, seeds and prober method as
// bench/fig6_downtime, so a run at the fig6 defaults reproduces its table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct PaperOptions {
  std::uint64_t seed = 7;
  /// Sizes the run: two passes of the grid at max(1, seconds / 5)
  /// replications per grid point (one pass at 2 replications takes about
  /// 5 s of wall time on a 4-core box at 4 threads).
  double seconds = 10;
  std::size_t threads = 1;
};

/// The paper_host workload: times two passes of the Fig. 6 grid (same
/// root seed both times), checks the passes agree bitwise and keep the
/// paper's warm < cold < saved order at n = 11. Returns the reboots
/// attempted.
std::uint64_t run_paper_host(const PaperOptions& o, Tracer& tracer,
                             Report& report);

/// The fidelity probe the fleet workloads carry, because every workload
/// prints every end-to-end metric: one jitter-free replication of the two
/// n = 11 points (the six cells paper_error_pct is defined on). Reports
/// paper_error_pct and checks the n = 11 ordering. The host.* and exp.*
/// layer metrics read 0: the probe guards fidelity, it does not measure
/// the host model.
void run_paper_probe(std::uint64_t seed, std::size_t threads, Tracer& tracer,
                     Report& report);

}  // namespace perfbench
