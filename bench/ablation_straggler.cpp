// Ablation: straggler mitigation (extension; §1 names stragglers among the
// dynamics WASP must absorb).
//
// At t=200 every task at the site hosting the Top-K windowed aggregation
// slows down 10x (a degraded VM / noisy neighbour). The nominal capacity
// still claims headroom, so mitigation needs the measured processing rate:
// WASP's diagnosis spots the straggling stage (input queue piling up while
// λ_P trails the expected input) and scales/moves it.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct Outcome {
  wasp::TimeSeries delay;
  double p95 = 0.0;
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode,
            const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  Testbed bed;
  auto spec = make_query(bed, Query::kTopk);
  auto pattern = uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config = opts.system_config();
  config.mode = mode;
  if (mode != runtime::AdaptationMode::kNoAdapt) {
    config.trace_sink = opts.sink;
  }
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(200.0);
  // Victim: the site of the busiest unpinned operator in the *deployed*
  // plan (deployment may have chosen a rewritten plan with different ids).
  SiteId victim;
  double busiest = 0.0;
  for (const auto& op : system.engine().logical().operators()) {
    if (op.is_source() || !op.pinned_sites.empty()) continue;
    const auto m = system.engine().op_metrics(op.id);
    if (m.processed_eps > busiest && !m.placement.sites().empty()) {
      busiest = m.processed_eps;
      victim = m.placement.sites().at(0);
    }
  }
  // Slow down every slot at that site by 10x.
  system.mutable_engine().set_straggler(victim, 0.1);
  system.run_until(900.0);
  opts.write_metrics(to_string(mode), system.metrics());

  Outcome out;
  out.delay = bucketed(system.recorder().delay(), 50.0, to_string(mode));
  out.p95 = system.recorder().delay_histogram().percentile(95);
  out.adaptations = system.recorder().events().size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the WASP run; the no-adapt baseline is untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const Outcome noadapt = run(runtime::AdaptationMode::kNoAdapt, opts);
  const Outcome wasp_run = run(runtime::AdaptationMode::kWasp, opts);
  opts.flush();

  print_section(std::cout,
                "Ablation: 10x straggler at the aggregation site from t=200");
  print_series(std::cout, "t(s)", {noadapt.delay, wasp_run.delay}, 2);
  std::cout << "\np95 delay: no-adapt " << noadapt.p95 << " s, wasp "
            << wasp_run.p95 << " s (" << wasp_run.adaptations
            << " adaptations)\n";

  expected_shape(
      "without adaptation the straggling aggregation falls behind and the "
      "delay diverges; WASP detects the measured processing-rate deficit, "
      "scales the operator (adding non-straggling tasks), and the delay "
      "returns near the baseline");
  return 0;
}
