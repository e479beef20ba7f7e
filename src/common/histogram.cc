#include "common/histogram.h"

#include <algorithm>

namespace wasp {

void WeightedHistogram::add(double value, double weight) {
  if (weight <= 0.0) return;
  samples_.emplace_back(value, weight);
  total_weight_ += weight;
  sorted_ = false;
}

void WeightedHistogram::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double WeightedHistogram::percentile(double pct) const {
  if (samples_.empty() || total_weight_ <= 0.0) return 0.0;
  sort_if_needed();
  const double target = std::clamp(pct, 0.0, 100.0) / 100.0 * total_weight_;
  double cum = 0.0;
  for (const auto& [value, weight] : samples_) {
    cum += weight;
    if (cum >= target) return value;
  }
  return samples_.back().first;
}

}  // namespace wasp
