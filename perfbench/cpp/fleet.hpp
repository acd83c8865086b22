// The fleet workloads on the partitioned engine: fig9's slim-host
// datacenter (hosts x 2 VMs behind sharded balancers, a closed-loop
// SessionFleet, warm rolling waves), fault-free (fleet_steady) or with
// fig_scrape's rate-0.4 steady crashes, micro ladder and scraped SLO gate
// (fleet_crash).
#pragma once

#include <cstddef>
#include <cstdint>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct FleetOptions {
  bool crash = false;
  int hosts = 1000;
  /// Engine workers of the parallel side of the digest self-check (the
  /// measured fleet always runs on one).
  std::size_t workers = 1;
  std::uint64_t seed = 7;
  /// Sizes the measured window: a fixed simulated span that takes about
  /// this many CPU seconds on a 4-core box (see fleet.cpp).
  double seconds = 10;
};

struct FleetOutcome {
  std::uint64_t requests = 0;  ///< simulated requests attempted
  std::uint64_t digest = 0;
};

/// Sets the fleet up several times, measures the last one from
/// begin_window over a fixed simulated span in fixed simulated-time
/// slices, reads every layer's public counters, and runs the digest
/// self-check (1 engine worker twice, `workers` once) on a small topology
/// of the same workload.
FleetOutcome run_fleet(const FleetOptions& o, Tracer& tracer, Report& report);

/// The fleet-layer metrics of a workload that runs no fleet (all zero),
/// so every workload prints the same metric names.
void report_fleet_layers_idle(Report& report);

}  // namespace perfbench
