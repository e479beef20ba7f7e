// Quickstart: deploy the Top-K query on the paper's 16-site testbed, double
// the workload mid-run, and watch WASP adapt.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
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
  set_log_level(LogLevel::kInfo);  // show adaptation decisions

  // 1. The wide-area substrate: 8 edge sites + 8 data centers with EC2/
  //    Akamai-like links (paper §8.2), static bandwidth for the quickstart.
  Rng rng(7);
  net::Topology topo = net::Topology::make_paper_testbed(rng);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());

  // Edge sites host the sources; one data center hosts the sink.
  const runtime::SiteRoles roles = runtime::site_roles(topo);

  // 2. The query: Top-K popular topics (stateful windowed aggregation).
  workload::QuerySpec query =
      workload::make_topk_topics(roles.east, roles.west, roles.sink);

  // 3. The workload: 10k events/s per source site, doubling at t=300 s.
  workload::SteppedWorkload pattern;
  workload::set_base_rates(pattern, query, 10'000.0);
  pattern.add_step(300.0, 2.0);

  // 4. Deploy with the full WASP policy and run 10 simulated minutes.
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(network, std::move(query), pattern, config);
  system.run_until(600.0);

  // 5. Report.
  const auto& rec = system.recorder();
  TextTable table({"window", "avg delay (s)", "avg ratio", "parallelism x"});
  for (double t0 = 0.0; t0 < 600.0; t0 += 100.0) {
    table.add_row({TextTable::fmt(t0, 0) + "-" + TextTable::fmt(t0 + 100, 0),
                   TextTable::fmt(rec.delay().mean_over(t0, t0 + 100.0), 3),
                   TextTable::fmt(rec.ratio().mean_over(t0, t0 + 100.0), 3),
                   TextTable::fmt(
                       rec.parallelism().mean_over(t0, t0 + 100.0), 2)});
  }
  table.print(std::cout);

  std::cout << "\nAdaptations taken:\n";
  for (const auto& e : rec.events()) {
    std::cout << "  t=" << e.decided_at << "s  " << e.kind << "  (" << e.reason
              << "), transition " << e.transition_sec() << "s, migrated "
              << e.migrated_mb << " MB\n";
  }
  std::cout << "\nProcessed " << 100.0 * rec.processed_fraction()
            << "% of generated events; 95th-pct delay "
            << rec.delay_histogram().percentile(95) << "s\n";
  return 0;
}
