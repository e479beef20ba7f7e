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
#include <string>

#include "bench_common.h"
#include "bench_options.h"
#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "runtime/cluster.h"
#include "workload/patterns.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces both tenants of the adaptive run (one shared
  // JSONL stream); the no-adapt run is untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  // Two queries over one Network is a Cluster, which runtime::build_run
  // does not build: the base spec gives the topology, seed and system
  // configuration, and this driver wires the tenants itself.
  auto run = [&](bool adapt) {
    runtime::RunSpec spec = opts.base;
    spec.mode = adapt ? runtime::AdaptationMode::kWasp
                      : runtime::AdaptationMode::kNoAdapt;
    Rng rng(spec.seed);
    net::Network network(spec.topology.build(rng),
                         std::make_shared<net::ConstantBandwidth>());
    const runtime::SiteRoles roles = runtime::site_roles(network.topology());
    std::string error;
    auto topk = runtime::make_query(Query::kTopk, roles, &error);
    auto ysb = runtime::make_query(Query::kYsb, roles, &error);
    if (!topk.has_value() || !ysb.has_value()) {
      std::cerr << error << "\n";
      std::exit(2);
    }
    workload::SteppedWorkload p_topk, p_ysb;
    workload::set_base_rates(p_topk, *topk, spec.rate_eps);
    p_topk.add_step(300.0, 2.5);  // tenant A surges
    workload::set_base_rates(p_ysb, *ysb, spec.rate_eps);
    const runtime::SystemConfig cfg = runtime::system_config(
        spec, adapt ? opts.traced("wasp") : opts.settings);
    runtime::Cluster cluster(network);
    cluster.reserve_pinned(*topk);
    cluster.reserve_pinned(*ysb);
    cluster.submit(std::move(*topk), p_topk, cfg);
    cluster.submit(std::move(*ysb), p_ysb, cfg);
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
  const auto secs = [](double v) { return TextTable::fmt(v, 2) + " s"; };
  return check_claims(
      opts,
      {{"with WASP the surging Top-K tenant is back under 1 s (600-900 s), "
        ">= 10x below no-adapt",
        wasp_run.first < 1.0 && 10.0 * wasp_run.first <= noadapt.first,
        "wasp " + secs(wasp_run.first) + ", no-adapt " + secs(noadapt.first)},
       {"the steady YSB tenant stays under 1 s in both runs",
        noadapt.second < 1.0 && wasp_run.second < 1.0,
        "no-adapt " + secs(noadapt.second) + ", wasp " +
            secs(wasp_run.second)}});
}
