#include "workload/http_client.hpp"

#include <utility>

#include "simcore/check.hpp"

namespace rh::workload {

namespace {

// Concurrent connections, each with one request in flight.
constexpr int kConnections = 10;
// Back-off before a failed request is retried.
constexpr sim::Duration kRetryInterval = sim::kSecond;

}  // namespace

HttpClientFleet::HttpClientFleet(guest::GuestOs& os,
                                 guest::ApacheService& apache,
                                 std::vector<std::int64_t> files, Config config)
    : os_(os), apache_(apache), files_(std::move(files)), config_(config) {
  ensure(!files_.empty(), "HttpClientFleet: need at least one file");
}

void HttpClientFleet::start() {
  ensure(!started_, "HttpClientFleet::start: already started");
  started_ = true;
  active_connections_ = kConnections;
  for (int c = 0; c < kConnections; ++c) issue();
}

void HttpClientFleet::stop() { stopped_ = true; }

void HttpClientFleet::issue() {
  if (stopped_) {
    --active_connections_;
    return;
  }
  if (!config_.cycle && next_index_ >= files_.size()) {
    --active_connections_;
    return;
  }
  const std::int64_t file = files_[next_index_ % files_.size()];
  ++next_index_;
  const sim::SimTime issued_at = os_.host().sim().now();
  apache_.serve_file(os_, file, [this, issued_at](bool served) {
    if (stopped_) {
      --active_connections_;
      return;
    }
    if (served) {
      ++ok_;
      completions_.record(os_.host().sim().now());
      latencies_.add(os_.host().sim().now() - issued_at);
      issue();
    } else {
      ++failed_;
      // Service unreachable: back off and retry (the request slot is not
      // consumed in once-mode accounting terms -- a refused request served
      // nothing).
      if (!config_.cycle) --next_index_;
      os_.host().sim().after(kRetryInterval, [this] { issue(); });
    }
  });
}

}  // namespace rh::workload
