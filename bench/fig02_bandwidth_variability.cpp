// Figure 2: WAN bandwidth variability (Oregon -> Ohio, one day, 30-minute
// intervals).
//
// The paper measured pair-wise EC2 bandwidth with iperf every 5 minutes for
// a day and plotted the Oregon -> Ohio link at 30-minute granularity,
// observing 25%-93% deviation from the mean. We regenerate the link's
// factor series from the bandwidth model calibrated to those statistics.
#include <iostream>

#include "bench_common.h"
#include "bench_options.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/bandwidth_model.h"
#include "net/topology.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // `--topology=SPEC` swaps the measured link's substrate (the plotted pair
  // stays sites 0 -> 1: the first two DCs of any generated topology).
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout, "Figure 2: bandwidth variability, oregon -> ohio");

  Rng topology_rng(opts.base.seed);
  const net::Topology topology = opts.base.topology.build(topology_rng);
  Rng rng(opts.base.seed);
  net::RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 24.0 * 3600.0;
  cfg.period_sec = 30.0 * 60.0;  // 30-minute plot granularity
  cfg.min_factor = 0.25;
  cfg.max_factor = 1.75;
  cfg.sigma = 0.35;
  net::RandomWalkBandwidth model(topology.num_sites(), cfg, rng);

  const SiteId oregon(0), ohio(1);  // first two DC sites by construction
  const double base = topology.base_bandwidth(oregon, ohio);

  TimeSeries series("bandwidth_mbps");
  RunningStats stats;
  const auto& factors = model.link_series(oregon, ohio);
  for (std::size_t k = 0; k < 48 && k < factors.size(); ++k) {
    const double mbps = base * factors[k];
    series.add(static_cast<double>(k), mbps);
    stats.add(mbps);
  }
  print_series(std::cout, "interval(30min)", {series}, 1);

  const double below = 100.0 * (stats.mean() - stats.min()) / stats.mean();
  const double above = 100.0 * (stats.max() - stats.mean()) / stats.mean();
  std::cout << "\nmean = " << stats.mean() << " Mbps, min = " << stats.min()
            << ", max = " << stats.max() << "\n";
  std::cout << "deviation from mean: " << below << "% to " << above << "%\n";
  expected_shape(
      "irregular variation at ~30-minute granularity with deviations of "
      "tens of percent from the mean (paper: 25%-93%), never settling at a "
      "constant value");
  return check_claims(
      opts,
      {{"the link deviates >= 25% from its mean both ways (paper: 25-93%)",
        below >= 25.0 && above >= 25.0,
        TextTable::fmt(below, 1) + "% below, " + TextTable::fmt(above, 1) +
            "% above"}});
}
