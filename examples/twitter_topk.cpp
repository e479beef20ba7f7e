// Top-K Popular Topics example: spatially skewed, diurnal Twitter-like
// workload over a full (compressed) day.
//
// The tweet workload is split across the edge sites with a Zipf distribution
// (busy metros vs quiet regions) and modulated by a day/night pattern with
// per-site phase shifts (time zones), per the Twitter measurements the paper
// cites [37]: day hours carry ~2x the night workload. WASP follows the
// shifting load, scaling the aggregation out toward the peak and back down
// at night.
//
// The one example that composes the library by hand (topology, network,
// query, workload pattern, system) rather than through runtime::build_run:
// a diurnal, Zipf-split workload is not a RunSpec value.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/twitter_topk
#include <iostream>
#include <memory>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/run_spec.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

int main() {
  using namespace wasp;
  set_log_level(LogLevel::kInfo);

  Rng rng(23);
  net::Topology topo = net::Topology::make_paper_testbed(rng);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());

  const runtime::SiteRoles roles = runtime::site_roles(topo);

  workload::QuerySpec query =
      workload::make_topk_topics(roles.east, roles.west, roles.sink);

  // A "day" compressed into 30 simulated minutes so the example runs in
  // moments; base (trough) total of 60k ev/s split with Zipf skew.
  workload::DiurnalWorkload::Config diurnal;
  diurnal.day_length_sec = 1800.0;
  diurnal.peak_to_trough = 2.0;
  diurnal.per_site_phase = 1.0 / 8.0;
  workload::DiurnalWorkload pattern(diurnal);

  Rng split_rng(29);
  for (OperatorId src : query.sources) {
    const auto& sites = query.plan.op(src).pinned_sites;
    const auto rates =
        workload::zipf_site_split(30'000.0, sites.size(), 0.9, split_rng);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      pattern.set_base_rate(src, sites[i], rates[i]);
    }
  }

  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(network, std::move(query), pattern, config);
  system.run_until(3600.0);  // two compressed days

  const auto& rec = system.recorder();
  TextTable table({"day window", "avg delay (s)", "avg ratio",
                   "parallelism x"});
  for (double t0 = 0.0; t0 < 3600.0; t0 += 450.0) {
    table.add_row(
        {TextTable::fmt(t0 / 1800.0, 2) + "d-" +
             TextTable::fmt((t0 + 450.0) / 1800.0, 2) + "d",
         TextTable::fmt(rec.delay().mean_over(t0, t0 + 450.0), 3),
         TextTable::fmt(rec.ratio().mean_over(t0, t0 + 450.0), 3),
         TextTable::fmt(rec.parallelism().mean_over(t0, t0 + 450.0), 2)});
  }
  table.print(std::cout);
  std::cout << "\nProcessed " << 100.0 * rec.processed_fraction()
            << "% of events across the diurnal cycle; " << rec.events().size()
            << " adaptations taken.\n";
  return 0;
}
