// Ablation: multi-tenant adaptation (extension beyond the paper's
// single-query evaluation).
//
// The paper's Job Manager deploys multiple queries over one wide-area
// deployment (§2.1); its evaluation exercises one at a time. This bench runs
// two tenants -- the stateful Top-K query and the YSB campaign query -- over
// the same sites and links, surges one of them, and shows that (a) the
// surging tenant adapts within the shared slot budget, and (b) the quiet
// tenant's latency is insulated by the α headroom and the surger's
// re-optimization.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"
#include "runtime/cluster.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces both tenants of the adaptive run (one shared
  // JSONL stream); the no-adapt run is untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  auto run = [&](bool adapt) {
    Testbed bed;
    runtime::Cluster cluster(bed.network);
    auto topk = make_query(bed, Query::kTopk);
    auto ysb = make_query(bed, Query::kYsb);
    auto p_topk = uniform_rates(topk, 10'000.0);
    p_topk.add_step(300.0, 2.5);  // tenant A surges
    auto p_ysb = uniform_rates(ysb, 10'000.0);
    runtime::SystemConfig cfg = opts.system_config();
    cfg.mode = adapt ? runtime::AdaptationMode::kWasp
                     : runtime::AdaptationMode::kNoAdapt;
    if (adapt) cfg.trace_sink = opts.sink;
    cluster.reserve_pinned(topk);
    cluster.reserve_pinned(ysb);
    cluster.submit(std::move(topk), p_topk, cfg);
    cluster.submit(std::move(ysb), p_ysb, cfg);
    cluster.run_until(900.0);
    if (adapt) {
      opts.write_metrics("topk", cluster.query(0).metrics());
      opts.write_metrics("ysb", cluster.query(1).metrics());
    }
    return std::make_pair(
        cluster.query(0).recorder().delay().mean_over(600.0, 900.0),
        cluster.query(1).recorder().delay().mean_over(600.0, 900.0));
  };

  print_section(std::cout,
                "Ablation: two tenants, one WAN (Top-K surges x2.5 at "
                "t=300; steady YSB beside it)");
  const auto noadapt = run(false);
  const auto wasp_run = run(true);
  TextTable table({"mode", "Top-K delay 600-900 (s)", "YSB delay 600-900 (s)"});
  table.add_row({"no-adapt", TextTable::fmt(noadapt.first, 2),
                 TextTable::fmt(noadapt.second, 2)});
  table.add_row({"wasp", TextTable::fmt(wasp_run.first, 2),
                 TextTable::fmt(wasp_run.second, 2)});
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "without adaptation the surging Top-K tenant's delay diverges (and "
      "its congestion can bleed into shared links); with WASP it re-"
      "optimizes within the shared slot budget and returns near baseline, "
      "while the YSB tenant stays near its baseline in both cases");
  return 0;
}
