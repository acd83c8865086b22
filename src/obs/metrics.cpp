#include "obs/metrics.hpp"

#include "simcore/check.hpp"

namespace rh::obs {

MetricsRegistry::Slot& MetricsRegistry::slot(std::string_view name, Type type) {
  auto it = index_.find(std::string(name));
  if (it != index_.end()) {
    ensure(it->second.type == type,
           "MetricsRegistry: name already registered with another type");
    return it->second;
  }
  std::size_t idx = 0;
  switch (type) {
    case Type::kCounter:
      idx = counters_.size();
      counters_.push_back({std::string(name), 0});
      break;
    case Type::kGauge:
      idx = gauges_.size();
      gauges_.push_back({std::string(name), 0.0});
      break;
    case Type::kHistogram:
      idx = histograms_.size();
      histograms_.push_back({std::string(name), {}});
      break;
    case Type::kSummary:
      idx = summaries_.size();
      summaries_.push_back({std::string(name), {}});
      break;
  }
  return index_.emplace(std::string(name), Slot{type, idx}).first->second;
}

std::uint64_t& MetricsRegistry::counter(std::string_view name) {
  return counters_[slot(name, Type::kCounter).index].value;
}

double& MetricsRegistry::gauge(std::string_view name) {
  return gauges_[slot(name, Type::kGauge).index].value;
}

sim::LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  return histograms_[slot(name, Type::kHistogram).index].value;
}

sim::Summary& MetricsRegistry::summary(std::string_view name) {
  return summaries_[slot(name, Type::kSummary).index].value;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end() || it->second.type != Type::kCounter) return 0;
  return counters_[it->second.index].value;
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  if (it == index_.end() || it->second.type != Type::kGauge) return 0.0;
  return gauges_[it->second.index].value;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& e : other.counters_) counter(e.name) += e.value;
  for (const auto& e : other.gauges_) gauge(e.name) += e.value;
  for (const auto& e : other.histograms_) histogram(e.name).merge(e.value);
  for (const auto& e : other.summaries_) summary(e.name).merge(e.value);
}

}  // namespace rh::obs
