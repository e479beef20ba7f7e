#include "obs/metrics_registry.h"

#include <algorithm>

namespace wasp::obs {
namespace {

template <typename Map>
auto* find_in(const Map& map, std::string_view name) {
  auto it = map.find(name);
  return it == map.end() ? nullptr : &it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter{}).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), Gauge{}).first;
  }
  return it->second;
}

WeightedHistogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), WeightedHistogram{}).first;
  }
  return it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(counters_, name);
}

const WeightedHistogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  return find_in(histograms_, name);
}

std::vector<std::pair<std::string, double>> MetricsRegistry::snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(size());
  for (const auto& [name, metric] : counters_) {
    out.emplace_back(name, metric.value());
  }
  for (const auto& [name, metric] : gauges_) {
    out.emplace_back(name, metric.value());
  }
  for (const auto& [name, metric] : histograms_) {
    out.emplace_back(name + ".count", metric.total_weight());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wasp::obs
