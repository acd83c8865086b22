// Closed-loop HTTP client fleet (the paper's httperf).
//
// Ten concurrent connections each issue the next request as soon as the
// previous response arrives; completions are recorded for throughput
// time series. Failed requests (service unreachable) are retried after a
// one-second delay, which is what produces the zero-throughput trough
// during a reboot in Fig. 7.
#pragma once

#include <cstdint>
#include <vector>

#include "guest/apache.hpp"
#include "guest/guest_os.hpp"
#include "simcore/histogram.hpp"
#include "simcore/time_series.hpp"

namespace rh::workload {

class HttpClientFleet {
 public:
  struct Config {
    /// true: cycle the file list forever (Fig. 7); false: request each
    /// file exactly once across the fleet (Fig. 8b).
    bool cycle = true;
  };

  HttpClientFleet(guest::GuestOs& os, guest::ApacheService& apache,
                  std::vector<std::int64_t> files, Config config);
  HttpClientFleet(const HttpClientFleet&) = delete;
  HttpClientFleet& operator=(const HttpClientFleet&) = delete;

  void start();
  void stop();

  /// True when (non-cycle mode) all files have been served.
  [[nodiscard]] bool finished() const { return active_connections_ == 0 && started_; }

  [[nodiscard]] const sim::RateRecorder& completions() const { return completions_; }
  [[nodiscard]] std::uint64_t requests_ok() const { return ok_; }
  [[nodiscard]] std::uint64_t requests_failed() const { return failed_; }

  /// Per-request latency distribution of successful requests.
  [[nodiscard]] const sim::LatencyHistogram& latencies() const { return latencies_; }

 private:
  void issue();

  guest::GuestOs& os_;
  guest::ApacheService& apache_;
  std::vector<std::int64_t> files_;
  Config config_;
  sim::RateRecorder completions_;
  sim::LatencyHistogram latencies_;
  std::size_t next_index_ = 0;
  int active_connections_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace rh::workload
