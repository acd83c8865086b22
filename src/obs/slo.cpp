#include "obs/slo.hpp"

#include "simcore/check.hpp"
#include "simcore/hash.hpp"

namespace rh::obs {

namespace {

// Scrape-availability objective (fraction of scrapes that answer).
constexpr double kAvailabilityTarget = 0.99;
// Trailing scrape rounds in the burn-rate window.
constexpr std::size_t kWindowRounds = 8;
// Consecutive missed scrapes before a host is flagged dark.
constexpr int kDarkAfterMisses = 3;

}  // namespace

SloEvaluator::SloEvaluator(std::size_t instances, SloConfig config)
    : config_(config) {
  ensure(config_.pause_burn_rate > 0.0,
         "SloEvaluator: pause burn rate must be positive");
  misses_.assign(instances, 0);
  dark_.assign(instances, 0);
  window_.resize(kWindowRounds);
}

bool SloEvaluator::record(std::size_t instance, bool ok) {
  ensure(instance < misses_.size(), "SloEvaluator: bad instance");
  if (ok) {
    ++current_.ok;
    misses_[instance] = 0;
    dark_[instance] = 0;
    return false;
  }
  ++current_.miss;
  ++misses_[instance];
  if (dark_[instance] == 0 && misses_[instance] >= kDarkAfterMisses) {
    dark_[instance] = 1;
    ++dark_transitions_;
    return true;
  }
  return false;
}

void SloEvaluator::end_round() {
  window_[window_head_] = current_;
  window_head_ = (window_head_ + 1) % window_.size();
  if (window_filled_ < window_.size()) ++window_filled_;
  current_ = {};
  ++completed_rounds_;
}

double SloEvaluator::burn_rate() const {
  std::uint64_t ok = 0, miss = 0;
  for (std::size_t i = 0; i < window_filled_; ++i) {
    ok += window_[i].ok;
    miss += window_[i].miss;
  }
  const std::uint64_t total = ok + miss;
  if (total == 0) return 0.0;
  const double error_rate =
      static_cast<double>(miss) / static_cast<double>(total);
  return error_rate / (1.0 - kAvailabilityTarget);
}

std::size_t SloEvaluator::dark_hosts() const {
  std::size_t n = 0;
  for (const auto d : dark_) n += d != 0 ? 1 : 0;
  return n;
}

std::uint64_t SloEvaluator::state_digest() const {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { sim::hash_mix(h, v); };
  for (std::size_t i = 0; i < misses_.size(); ++i) {
    mix(static_cast<std::uint64_t>(misses_[i]));
    mix(dark_[i]);
  }
  for (std::size_t i = 0; i < window_filled_; ++i) {
    mix(window_[i].ok);
    mix(window_[i].miss);
  }
  mix(current_.ok);
  mix(current_.miss);
  mix(completed_rounds_);
  mix(dark_transitions_);
  return h;
}

}  // namespace rh::obs
