// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints (a) what the paper reports and (b) what this
// simulation measures, so EXPERIMENTS.md can be regenerated by running
// the bench binaries.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "flags.hpp"
#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "guest/jboss.hpp"
#include "guest/sshd.hpp"
#include "rejuv/supervisor.hpp"
#include "vmm/host.hpp"
#include "workload/prober.hpp"

namespace rh::bench {

/// The seed historically hardwired into every bench; still the default so
/// a bare single-run Testbed reproduces the pre-replication output.
inline constexpr std::uint64_t kLegacyBenchSeed = 7;

/// Calibration::timing_jitter used by testbeds built inside replication
/// bodies (the seed-taking Testbed constructor and the cluster helpers).
/// SweepOptions::parse stores its --jitter value here (default 2 %) before
/// any worker thread starts, so reads from the runner's threads are
/// race-free.
/// Single-run Testbeds (default constructor) stay jitter-free and keep
/// reproducing the historical single-seed outputs exactly.
inline double g_replication_jitter = 0.0;

/// A paper-testbed calibration with the replication jitter applied.
inline Calibration replication_calibration() {
  Calibration c;
  c.timing_jitter = g_replication_jitter;
  return c;
}

/// A started host plus `n` booted VMs (service mix chosen by the caller).
/// Replicated sweeps pass the per-replication seed from the
/// exp::ReplicationContext; the default keeps single runs unchanged.
struct Testbed {
  sim::Simulation sim;
  std::unique_ptr<vmm::Host> host;
  std::vector<std::unique_ptr<guest::GuestOs>> guests;

  explicit Testbed(Calibration calib = {}, std::uint64_t seed = kLegacyBenchSeed) {
    host = std::make_unique<vmm::Host>(sim, calib, seed);
    host->instant_start();
  }

  explicit Testbed(std::uint64_t seed) : Testbed(replication_calibration(), seed) {}

  enum class ServiceMix { kSsh, kJboss, kApache };

  guest::GuestOs& add_vm(const std::string& name, sim::Bytes memory,
                         ServiceMix mix) {
    auto g = std::make_unique<guest::GuestOs>(*host, name, memory);
    g->add_service(std::make_unique<guest::SshService>());
    if (mix == ServiceMix::kJboss) {
      g->add_service(std::make_unique<guest::JbossService>());
    }
    if (mix == ServiceMix::kApache) {
      g->add_service(std::make_unique<guest::ApacheService>());
    }
    guest::GuestOs& ref = *g;
    guests.push_back(std::move(g));
    bool up = false;
    ref.create_and_boot([&up] { up = true; });
    sim.run_until(sim.now() + sim::kHour);
    if (!up) throw InvariantViolation("bench: VM failed to boot");
    return ref;
  }

  void add_vms(int n, sim::Bytes memory, ServiceMix mix) {
    for (int i = 0; i < n; ++i) {
      add_vm("vm" + std::to_string(i), memory, mix);
    }
  }

  std::vector<guest::GuestOs*> guest_ptrs() {
    std::vector<guest::GuestOs*> out;
    for (auto& g : guests) out.push_back(g.get());
    return out;
  }

  /// Runs a fault-free rejuvenation of the given kind to completion;
  /// returns the finished pass's report. The calendar runs until the
  /// pass's last event, which stops it, so probers may sleep through the
  /// reboot's quiet stretches.
  rejuv::SupervisorReport rejuvenate(rejuv::RebootKind kind) {
    rejuv::SupervisorConfig config;
    config.preferred = kind;
    rejuv::Supervisor pass(*host, guest_ptrs(), config);
    bool done = false;
    pass.run([this, &done](const rejuv::SupervisorReport&) {
      done = true;
      sim.stop();
    });
    if (!done) sim.run();
    if (!done) throw InvariantViolation("bench: rejuvenation stalled");
    return pass.report();
  }
};

/// The recovery ladders of the unplanned-crash sweeps (tab_microrecovery,
/// fig_crashscale, fig_scrape). micro differs from warm only once a crash
/// actually happens, so a rate-0 column is the control.
struct Ladder {
  const char* name;
  rejuv::RebootKind kind;  ///< the planned pass's reboot kind
  bool micro;              ///< crashes try in-place micro-recovery first
};
inline constexpr Ladder kLadders[] = {
    {"micro", rejuv::RebootKind::kWarm, true},
    {"warm", rejuv::RebootKind::kWarm, false},
    {"saved", rejuv::RebootKind::kSaved, false},
    {"cold", rejuv::RebootKind::kCold, false},
};

/// The supervisor config of `ladder`'s passes and recoveries.
inline rejuv::SupervisorConfig ladder_config(const Ladder& ladder) {
  rejuv::SupervisorConfig c;
  c.preferred = ladder.kind;
  if (ladder.micro) {
    c.micro.enabled = true;
    c.micro.success_rate = 0.85;  // ReHype's reported recovery rate
  }
  return c;
}

/// Steady VMM faults at `rate` per check: crashes at the rate, hangs at
/// half of it -- rarer, and costlier to detect.
inline fault::FaultConfig steady_vmm_faults(double rate) {
  fault::FaultConfig f;
  f.vmm_crash_rate = rate;
  f.vmm_hang_rate = rate / 2.0;
  return f;
}

/// Shared CLI for the replicated figure/table benches:
///   --reps N       replications per sweep point (default 5; 0 means 1)
///   --threads N    worker threads (default 0 = one per hardware thread)
///   --seed S       root seed of the replication grid (default 7)
///   --jitter F     Calibration::timing_jitter for replication testbeds
///                  (default 0.02; 0 makes every replication identical)
struct SweepOptions {
  std::size_t reps = 5;
  std::size_t threads = 0;
  std::uint64_t root_seed = kLegacyBenchSeed;
  double jitter = 0.02;

  static SweepOptions parse(int argc, char** argv) {
    Flags flags;
    return parse(argc, argv, flags);
  }

  /// Parses the four sweep flags plus the bench's own `flags`.
  static SweepOptions parse(int argc, char** argv, Flags& flags) {
    SweepOptions opt;
    flags.integer("--reps", opt.reps)
        .integer("--threads", opt.threads)
        .integer("--seed", opt.root_seed)
        .number("--jitter", opt.jitter)
        .parse(argc, argv);
    if (opt.reps == 0) opt.reps = 1;
    g_replication_jitter = opt.jitter;
    return opt;
  }

  [[nodiscard]] exp::GridSpec grid(std::size_t points) const {
    exp::GridSpec spec;
    spec.points = points;
    spec.replications = reps;
    spec.root_seed = root_seed;
    spec.threads = threads;
    return spec;
  }
};

/// Formats "mean±ci" with the given per-part printf format (e.g. "%.2f").
inline std::string fmt_ci(double mean, double ci, const char* fmt = "%.2f") {
  char part[64], out[144];
  std::snprintf(part, sizeof part, fmt, mean);
  std::string s = part;
  std::snprintf(part, sizeof part, fmt, ci);
  std::snprintf(out, sizeof out, "%s±%s", s.c_str(), part);
  return out;
}

/// One-line banner describing a replicated sweep.
inline void print_sweep_banner(const exp::GridResult& result,
                               const SweepOptions& opt) {
  std::printf("  [%zu points x %zu reps, %zu threads, root seed %llu, "
              "jitter %.1f%%, %.2f s wall; cells are mean±95%% CI]\n",
              result.points.size(), opt.reps, result.threads_used,
              static_cast<unsigned long long>(opt.root_seed),
              opt.jitter * 100.0, result.wall_seconds);
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::string& label, double paper, double measured,
                      const std::string& unit) {
  std::printf("  %-44s paper: %8.2f %-5s measured: %8.2f %s\n", label.c_str(),
              paper, unit.c_str(), measured, unit.c_str());
}

}  // namespace rh::bench
