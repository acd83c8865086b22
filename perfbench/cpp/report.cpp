#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

}  // namespace

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print(const std::string& workload, std::uint64_t seed,
                   std::uint64_t attempted, std::uint64_t failed,
                   std::uint64_t digest) const {
  std::printf("perfbench %s seed=%llu digest=%s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), hex(digest).c_str());
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Check& c : checks_) {
    std::printf("  check %-28s %s  %s\n", c.name.c_str(),
                c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"digest\": \"%s\", "
              "\"metrics\": {",
              workload.c_str(), static_cast<unsigned long long>(seed),
              all_ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), hex(digest).c_str());
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}, \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    std::printf("%s{\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                i == 0 ? "" : ", ", c.name.c_str(), c.ok ? "true" : "false",
                json_escape(c.detail).c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i =
      std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size()) - 1;
  return v[i];
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
