// Metric and self-check collection for one benchmark run, plus the small
// process helpers (resident memory, medians) the workloads share.
//
// A run prints one JSON object as its last stdout line: every metric the
// workload measured (name, value, unit), every self-check with its
// outcome, and the run's digest. perfbench/run.py picks the end-to-end or
// the per-layer set out of it, as BENCHMARK.json names them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  [[nodiscard]] bool all_ok() const;
  /// Human-readable summary (stdout), then the JSON result line.
  void print(const std::string& workload, std::uint64_t seed,
             std::uint64_t attempted, std::uint64_t failed,
             std::uint64_t digest) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
};

/// Current resident set of this process, in MB (/proc/self/statm).
double rss_mb();
/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();
/// CPU seconds this process has used so far, user + system, summed over
/// its threads (CLOCK_PROCESS_CPUTIME_ID). The benchmark's throughput and
/// set-up figures are timed with it rather than with a wall clock, so
/// that time the process spends descheduled by other load on the machine
/// is left out.
double cpu_s();
/// CPU seconds the calling thread has used so far
/// (CLOCK_THREAD_CPUTIME_ID), for work timed on a pool thread.
double thread_cpu_s();
/// Median / nearest-rank percentile of `v` (0 when empty).
double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);
/// Same mixing step fig_crashscale folds its cell digests with.
inline void mix(std::uint64_t& digest, std::uint64_t v) {
  digest ^= v + 0x9e3779b97f4a7c15ull + (digest << 6) + (digest >> 2);
}
std::string hex(std::uint64_t v);

}  // namespace perfbench
