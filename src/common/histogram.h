// Weighted sample accumulator with percentile queries.
//
// The paper reports delay *distributions* (CDFs, 95th/99th percentiles) where
// each simulated tick contributes a delay value weighted by the number of
// events emitted during that tick. This class stores (value, weight) samples
// and answers percentile queries over the weighted distribution; the figure
// drivers print their CDFs as percentiles.
#pragma once

#include <utility>
#include <vector>

namespace wasp {

class WeightedHistogram {
 public:
  // Adds a sample `value` with the given weight (e.g. events in the tick).
  // Non-positive weights are ignored.
  void add(double value, double weight = 1.0);

  // Weighted percentile in [0, 100]. Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double pct) const;

  [[nodiscard]] double total_weight() const { return total_weight_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

 private:
  void sort_if_needed() const;

  // (value, weight); kept lazily sorted by value.
  mutable std::vector<std::pair<double, double>> samples_;
  mutable bool sorted_ = true;
  double total_weight_ = 0.0;
};

}  // namespace wasp
