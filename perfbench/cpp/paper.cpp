#include "paper.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fleet.hpp"

namespace perfbench {

namespace {

using namespace rh;
using bench::Testbed;
using Clock = Tracer::Clock;

constexpr std::array<rejuv::RebootKind, 3> kKinds = {
    rejuv::RebootKind::kWarm, rejuv::RebootKind::kSaved,
    rejuv::RebootKind::kCold};
constexpr std::array<const char*, 3> kKindNames = {"warm", "saved", "cold"};
constexpr std::array<const char*, 2> kServiceNames = {"ssh", "jboss"};

/// Fig. 6 at n = 11 (paper Sec. 5.3): warm, saved, cold downtime in s.
constexpr std::array<double, 3> kPaperSsh = {42, 429, 157};
constexpr std::array<double, 3> kPaperJboss = {42, 429, 241};

/// fig6_downtime's replication jitter (its --jitter default).
constexpr double kFig6Jitter = 0.02;
/// Passes of the grid per run, all with the same root seed. In a traced
/// run the first pass runs untraced, so the two passes, the same work,
/// give the tracing overhead.
constexpr std::size_t kPasses = 2;

struct Cell {
  Testbed::ServiceMix mix;
  int n;
};

std::vector<Cell> fig6_cells() {
  std::vector<Cell> cells;
  for (const auto mix : {Testbed::ServiceMix::kSsh, Testbed::ServiceMix::kJboss}) {
    for (int n = 1; n <= 11; n += 2) cells.push_back({mix, n});
  }
  return cells;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string cell_metric(const char* svc, std::size_t kind) {
  return std::string("host.") + svc + "_" + kKindNames[kind] +
         "_downtime_s_n11";
}

/// Host-side timings of one replication, written only by its own task
/// into a slot preallocated before the pool starts.
struct TaskTiming {
  Clock::time_point start, end;
  std::array<Clock::time_point, 3> build_start, build_end;
  std::array<Clock::time_point, 3> reboot_start, reboot_end;
  std::array<std::uint64_t, 3> reboot_events{};
  double build_cpu_s = 0;  ///< the task thread's CPU time in testbed builds
  std::uint64_t sim_events = 0;
  double sim_s = 0;  ///< simulated seconds of the measured parts
};

/// fig6_downtime's mean_downtime, with the Testbed build and the
/// rejuvenate() call timed from outside.
double mean_downtime(const Cell& c, std::size_t k, std::uint64_t seed,
                     TaskTiming& t) {
  t.build_start[k] = Clock::now();
  const double cpu0 = thread_cpu_s();
  Testbed tb(seed);
  tb.add_vms(c.n, sim::kGiB, c.mix);
  t.build_cpu_s += thread_cpu_s() - cpu0;
  t.build_end[k] = Clock::now();

  const char* svc_name =
      c.mix == Testbed::ServiceMix::kJboss ? "jboss" : "sshd";
  std::vector<std::unique_ptr<workload::Prober>> probers;
  for (auto& g : tb.guests) {
    auto* svc = g->find_service(svc_name);
    probers.push_back(std::make_unique<workload::Prober>(
        tb.sim, workload::Prober::Config{},
        [g = g.get(), svc] { return g->service_reachable(*svc); }));
    probers.back()->start();
  }
  const sim::SimTime measured_from = tb.sim.now();
  tb.sim.run_for(2 * sim::kSecond);
  const sim::SimTime reboot_start = tb.sim.now();
  const std::uint64_t events_before = tb.sim.executed_events();
  t.reboot_start[k] = Clock::now();
  tb.rejuvenate(kKinds[k]);
  t.reboot_end[k] = Clock::now();
  t.reboot_events[k] = tb.sim.executed_events() - events_before;
  tb.sim.run_for(5 * sim::kSecond);
  t.sim_events += tb.sim.executed_events();
  // Simulated span of the measured part (probers up .. 5 s after the
  // reboot); the build's boot waits are set-up, not measured.
  t.sim_s += sim::to_seconds(tb.sim.now() - measured_from);

  double total = 0;
  int counted = 0;
  for (auto& p : probers) {
    p->stop();
    if (const auto outage = p->outage_after(reboot_start)) {
      total += sim::to_seconds(*outage);
      ++counted;
    }
  }
  return counted > 0 ? total / counted : 0.0;
}

struct Pass {
  exp::GridResult grid;
  std::vector<TaskTiming> tasks;
  double cpu_s = 0;  ///< process CPU time of the whole pass
};

/// One pass of the grid. values = {warm, saved, cold} mean downtime, with
/// the same per-replication seed draws as fig6_downtime.
Pass run_pass(const std::vector<Cell>& cells, std::size_t reps,
              std::uint64_t seed, std::size_t threads) {
  Pass pass;
  pass.tasks.resize(cells.size() * reps);
  exp::GridSpec spec;
  spec.points = cells.size();
  spec.replications = reps;
  spec.root_seed = seed;
  spec.threads = threads;
  const double cpu0 = cpu_s();
  pass.grid = exp::run_grid(spec, [&](const exp::ReplicationContext& ctx) {
    TaskTiming& t = pass.tasks[ctx.point_index * reps + ctx.replication_index];
    t.start = Clock::now();
    sim::Rng rng = ctx.rng;
    exp::ReplicationResult out;
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      out.values.push_back(
          mean_downtime(cells[ctx.point_index], k, rng.next(), t));
    }
    t.end = Clock::now();
    return out;
  });
  pass.cpu_s = cpu_s() - cpu0;
  return pass;
}

/// Replication spans (with their testbed and reboot children) under the
/// pass span.
void trace_pass(Tracer& tracer, int pass_span, const Pass& pass) {
  if (!tracer.enabled()) return;
  for (const TaskTiming& t : pass.tasks) {
    const int rep = tracer.add("replication", pass_span, t.start, t.end);
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      tracer.add("testbed.build_boot", rep, t.build_start[k], t.build_end[k]);
      tracer.add(std::string("reboot.") + kKindNames[k], rep,
                 t.reboot_start[k], t.reboot_end[k]);
    }
  }
}

/// Accumulated host-model and runner layer numbers over every pass. A
/// value-initialised instance reports all zeros.
struct HostLayer {
  std::vector<double> build_ms;
  std::array<std::vector<double>, 3> reboot_ms;
  std::uint64_t reboot_events = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t replications = 0;
  double build_cpu_s = 0;
  double sim_s = 0;
  double task_host_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double thread_s = 0;  ///< sum over passes of wall x threads used
  std::size_t threads = 0;

  void add(const Pass& p) {
    for (const TaskTiming& t : p.tasks) {
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        build_ms.push_back(ms_between(t.build_start[k], t.build_end[k]));
        reboot_ms[k].push_back(ms_between(t.reboot_start[k], t.reboot_end[k]));
        reboot_events += t.reboot_events[k];
      }
      sim_events += t.sim_events;
      build_cpu_s += t.build_cpu_s;
      sim_s += t.sim_s;
      task_host_s += std::chrono::duration<double>(t.end - t.start).count();
    }
    replications += p.tasks.size();
    wall_s += p.grid.wall_seconds;
    cpu_s += p.cpu_s;
    thread_s += p.grid.wall_seconds * static_cast<double>(p.grid.threads_used);
    threads = p.grid.threads_used;
  }
  [[nodiscard]] std::uint64_t reboots() const {
    return replications * kKinds.size();
  }

  void report(Report& r) const {
    const auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (const double x : v) s += x;
      return ratio(s, static_cast<double>(v.size()));
    };
    r.metric("host.build_boot_ms", mean(build_ms), "ms");
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      r.metric(std::string("host.") + kKindNames[k] + "_ms", mean(reboot_ms[k]),
               "ms");
    }
    r.metric("host.events_per_reboot",
             ratio(static_cast<double>(reboot_events),
                   static_cast<double>(reboots())),
             "count");
    r.metric("exp.replications", static_cast<double>(replications), "count");
    r.metric("exp.threads_used", static_cast<double>(threads), "count");
    r.metric("exp.parallel_efficiency", ratio(task_host_s, thread_s), "ratio");
  }
};

/// Reports paper_error_pct and the warm < cold < saved check from the
/// grid's n = 11 point means; with `cell_metrics`, also each n = 11 mean
/// as a host.* metric.
void report_fidelity(Report& r, const std::vector<Cell>& cells,
                     const exp::GridResult& grid, const char* check_name,
                     bool cell_metrics) {
  double err_sum = 0;
  bool ordered = true;
  std::string detail;
  for (std::size_t p = 0; p < cells.size(); ++p) {
    if (cells[p].n != 11) continue;
    const bool jboss = cells[p].mix == Testbed::ServiceMix::kJboss;
    const auto& paper = jboss ? kPaperJboss : kPaperSsh;
    const char* svc = kServiceNames[jboss ? 1 : 0];
    std::array<double, 3> dt{};
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      dt[k] = grid.point(p).mean(k);
      err_sum += std::fabs(dt[k] - paper[k]) / paper[k];
      if (cell_metrics) r.metric(cell_metric(svc, k), dt[k], "s");
    }
    // warm < cold < saved (indices 0 < 2 < 1).
    ordered = ordered && dt[0] < dt[2] && dt[2] < dt[1];
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s warm %.1f cold %.1f saved %.1f; ", svc,
                  dt[0], dt[2], dt[1]);
    detail += buf;
  }
  r.metric("paper_error_pct", err_sum / 6.0 * 100.0, "%");
  r.check(check_name, ordered, detail);
}

}  // namespace

std::uint64_t run_paper_host(const PaperOptions& o, Tracer& tracer,
                             Report& report) {
  const std::vector<Cell> cells = fig6_cells();
  const std::size_t reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(o.seconds / 5.0 + 0.5));
  bench::g_replication_jitter = kFig6Jitter;

  // No shared set-up: each replication builds its own testbeds. setup_s
  // is the CPU time of every testbed build + boot of one pass; the builds
  // are spread over the whole pass, so a slow second of the machine moves
  // it little.
  HostLayer layer;
  exp::GridResult first;
  std::array<double, kPasses> pass_cpu_s{};
  bool identical = true;
  Tracer off(false);
  for (std::size_t i = 0; i < kPasses; ++i) {
    Tracer& t = i == 0 ? off : tracer;
    Scope span(t, "grid.pass");
    Pass pass = run_pass(cells, reps, o.seed, o.threads);
    trace_pass(t, span.id(), pass);
    layer.add(pass);
    pass_cpu_s[i] = pass.cpu_s;
    if (i == 0) {
      first = std::move(pass.grid);
      continue;
    }
    for (std::size_t p = 0; p < cells.size(); ++p) {
      for (std::size_t k = 0; k < kKinds.size(); ++k) {
        identical = identical &&
                    pass.grid.point(p).mean(k) == first.point(p).mean(k);
      }
    }
  }

  report.metric("setup_s", layer.build_cpu_s / double(kPasses), "s");
  report.metric("sim_s_per_s", layer.sim_s / layer.cpu_s, "sim_s/s");
  report.metric("reboots_per_s",
                static_cast<double>(layer.reboots()) / layer.cpu_s, "1/s");
  report_fidelity(report, cells, first, "paper.order_n11", true);
  layer.report(report);
  report.metric("simcore.events", static_cast<double>(layer.sim_events),
                "count");
  report.metric("simcore.events_per_s",
                static_cast<double>(layer.sim_events) / layer.cpu_s, "1/s");
  report.metric("run.sim_s", layer.sim_s, "s");
  report.metric("run.cpu_s", layer.cpu_s, "s");
  report.metric("run.wall_s", layer.wall_s, "s");
  report.metric("trace.overhead_pct",
                tracer.enabled()
                    ? (pass_cpu_s[1] / pass_cpu_s[0] - 1.0) * 100.0
                    : 0.0,
                "%");
  report_fleet_layers_idle(report);

  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu passes of %zu replications, seed %llu",
                kPasses, cells.size() * reps,
                static_cast<unsigned long long>(o.seed));
  report.check("paper.grid_means_identical", identical, buf);
  return layer.reboots();
}

void run_paper_probe(std::uint64_t seed, std::size_t threads, Tracer& tracer,
                     Report& report) {
  const std::vector<Cell> cells = {{Testbed::ServiceMix::kSsh, 11},
                                   {Testbed::ServiceMix::kJboss, 11}};
  // Jitter-free: the probe is a fixed fidelity guard, not a sample.
  bench::g_replication_jitter = 0.0;
  Scope span(tracer, "paper.probe");
  const Pass pass = run_pass(cells, 1, seed, threads);
  report_fidelity(report, cells, pass.grid, "probe.order_n11", false);
  HostLayer{}.report(report);
  for (const char* svc : kServiceNames) {
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      report.metric(cell_metric(svc, k), 0.0, "s");
    }
  }
}

}  // namespace perfbench
