// Figure 7: inter-site bandwidth and latency distributions of the testbed,
// split into edge-attached links and data-center-to-data-center links.
//
// The paper configured DC links from a 1-day EC2 measurement and edge links
// from Akamai public-Internet statistics; Fig. 7 shows the resulting CDFs.
// We print the CDFs of the generated testbed.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "bench_options.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "net/topology.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // `--topology=SPEC` prints the generated topology's CDFs instead -- the
  // quickest way to eyeball a planet-scale spec against Fig. 7's shapes.
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  Rng rng(opts.base.seed);
  const net::Topology topology = opts.base.topology.build(rng);
  WeightedHistogram edge_bw, dc_bw, edge_lat, dc_lat;
  double dc_bw_min = 1e300, dc_bw_max = 0.0, lat_min = 1e300, lat_max = 0.0;
  for (const auto& a : topology.sites()) {
    for (const auto& b : topology.sites()) {
      if (a.id == b.id) continue;
      const double bw = topology.base_bandwidth(a.id, b.id);
      const double lat = topology.latency_ms(a.id, b.id);
      lat_min = std::min(lat_min, lat);
      lat_max = std::max(lat_max, lat);
      if (a.type == net::SiteType::kDataCenter &&
          b.type == net::SiteType::kDataCenter) {
        dc_bw.add(bw);
        dc_lat.add(lat);
        dc_bw_min = std::min(dc_bw_min, bw);
        dc_bw_max = std::max(dc_bw_max, bw);
      } else {
        edge_bw.add(bw);
        edge_lat.add(lat);
      }
    }
  }

  auto print_cdf = [](const char* title, const char* x_label,
                      const WeightedHistogram& edge,
                      const WeightedHistogram& dc) {
    print_section(std::cout, title);
    TextTable table({"cdf", std::string("edge ") + x_label,
                     std::string("datacenter ") + x_label});
    for (int pct = 5; pct <= 100; pct += 5) {
      table.add_row({TextTable::fmt(pct / 100.0, 2),
                     TextTable::fmt(edge.percentile(pct), 1),
                     TextTable::fmt(dc.percentile(pct), 1)});
    }
    table.print(std::cout);
  };

  print_cdf("Figure 7(a): bandwidth distribution", "bandwidth(Mbps)", edge_bw,
            dc_bw);
  print_cdf("Figure 7(b): latency distribution", "latency(ms)", edge_lat,
            dc_lat);

  expected_shape(
      "DC links span the paper's 25-250 Mbps; edge links (public Internet) "
      "are slower, their median below the DC median; latency spans over an "
      "order of magnitude across site pairs, up to ~300 ms as in the paper");
  const auto mbps = [](double v) { return TextTable::fmt(v, 1) + " Mbps"; };
  const auto ms = [](double v) { return TextTable::fmt(v, 1) + " ms"; };
  return check_claims(
      opts,
      {{"data-center links span 25-250 Mbps",
        dc_bw_min >= 25.0 && dc_bw_max <= 250.0,
        mbps(dc_bw_min) + " to " + mbps(dc_bw_max)},
       {"edge links are slower: their median is below the DC median",
        edge_bw.percentile(50) < dc_bw.percentile(50),
        "edge " + mbps(edge_bw.percentile(50)) + ", DC " +
            mbps(dc_bw.percentile(50))},
       {"latency spans over an order of magnitude, up to <= 300 ms",
        lat_max >= 10.0 * lat_min && lat_max <= 300.0,
        ms(lat_min) + " to " + ms(lat_max)}});
}
