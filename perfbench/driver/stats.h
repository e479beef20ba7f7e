// Order statistics for the benchmark's timings.
//
// Every timing the benchmark reports is a median or a tail percentile of many
// samples. A tail percentile is only reported when at least `min_beyond`
// samples lie above it (the p99 of 500 samples would be decided by 5 values),
// and every result carries its sample count so a reader can judge it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples strictly above the rank
};

// Nearest-rank percentile (rank = ceil(pct/100 * n), 1-based) of `samples`.
// Returns nullopt when n == 0 or fewer than `min_beyond` samples lie beyond
// the rank. Takes the vector by value: it is partially reordered.
[[nodiscard]] std::optional<Percentile> tail_percentile(
    std::vector<double> samples, double pct,
    std::size_t min_beyond = kMinSamplesBeyond);

// Median (mean of the two middle values for even n); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
