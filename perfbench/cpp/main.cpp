// perfbench: the repository benchmark's measuring program. One workload
// per process (perfbench/run.py starts it once per run):
//
//   perfbench --workload fleet_steady|fleet_crash|paper_host
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//             [--workers W] [--hosts H]
//
// Prints a human-readable table, then one JSON line with every metric the
// workload measured, every self-check, and the run's digest. Exit 0 when
// the run completed (the JSON says whether its self-checks passed), 2 on
// a bad command line, 1 on a simulator error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "fleet.hpp"
#include "paper.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_steady|fleet_crash|paper_host\n"
               "          [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n"
               "          [--workers W] [--hosts H]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  bool trace = false;
  perfbench::FleetOptions fo;
  perfbench::PaperOptions po;
  const unsigned hw = std::thread::hardware_concurrency();
  fo.workers = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const char* v = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(flag, "--seed") == 0) {
      fo.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      fo.seconds = std::atof(v);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = v;
    } else if (std::strcmp(flag, "--workers") == 0) {
      fo.workers = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(flag, "--hosts") == 0) {
      fo.hosts = std::atoi(v);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  const bool fleet = workload == "fleet_steady" || workload == "fleet_crash";
  if ((!fleet && workload != "paper_host") || fo.workers < 1 ||
      fo.hosts < 1 || fo.seconds <= 0) {
    usage(argv[0]);
    return 2;
  }
  fo.crash = workload == "fleet_crash";
  po.seed = fo.seed;
  po.seconds = fo.seconds;
  po.threads = fo.workers;

  perfbench::Tracer tracer(trace);
  perfbench::Report report;
  std::uint64_t attempted = 0;
  std::uint64_t digest = 0;
  try {
    if (fleet) {
      const perfbench::FleetOutcome out = perfbench::run_fleet(fo, tracer, report);
      attempted = out.requests;
      digest = out.digest;
      perfbench::run_paper_probe(fo.seed, fo.workers, tracer, report);
    } else {
      attempted = perfbench::run_paper_host(po, tracer, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  report.metric("trace.spans", double(tracer.spans().size()), "count");
  if (trace) {
    report.check("trace.spans_closed", tracer.all_closed(),
                 std::to_string(tracer.spans().size()) + " spans");
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      tracer.write_json(os);
      if (!os) {
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }
  }
  // A failed self-check counts every operation of the run as failed.
  report.print(workload, fo.seed, attempted, report.all_ok() ? 0 : attempted,
               digest);
  return 0;
}
