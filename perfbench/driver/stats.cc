#include "driver/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<Percentile> tail_percentile(std::vector<double> samples,
                                          double pct, std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || pct <= 0.0 || pct > 100.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, n - rank};
}

double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
