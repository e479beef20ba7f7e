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
#include <string>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct Outcome {
  wasp::TimeSeries delay;
  double p95 = 0.0;
  double baseline = 0.0;  // mean delay before the straggler, [0, 200)
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode,
            const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  runtime::RunSpec spec = opts.base;
  spec.mode = mode;
  spec.duration_sec = 900.0;
  auto run = build(spec, mode == runtime::AdaptationMode::kNoAdapt
                             ? opts.settings
                             : opts.traced(to_string(mode)));
  runtime::WaspSystem& system = run->system();
  run->run_until(200.0);
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
  run->run_until(spec.duration_sec);
  opts.write_metrics(to_string(mode), system.metrics());

  Outcome out;
  out.delay = bucketed(system.recorder().delay(), 50.0, to_string(mode));
  out.p95 = system.recorder().delay_histogram().percentile(95);
  out.baseline = system.recorder().delay().mean_over(0.0, 200.0);
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
  // NoAdapt's buckets after the straggler hits, and WASP's lowest bucket
  // once its first adaptations have landed.
  bool diverges = true;
  double previous = 0.0, wasp_low = 1e300;
  for (const auto& [t, v] : noadapt.delay.points()) {
    if (t > 200.0) diverges = diverges && v > previous;
    previous = v;
  }
  for (const auto& [t, v] : wasp_run.delay.points()) {
    if (t > 400.0) wasp_low = std::min(wasp_low, v);
  }
  const auto secs = [](double v) { return TextTable::fmt(v, 2) + " s"; };
  return check_claims(
      opts,
      {{"without adaptation the delay diverges (grows in every 50 s bucket "
        "after t=200)",
        diverges, "last bucket " + secs(previous)},
       {"WASP brings the delay back within 2x of its pre-straggler baseline "
        "after t=400",
        wasp_low <= 2.0 * wasp_run.baseline,
        "lowest bucket " + secs(wasp_low) + ", baseline " +
            secs(wasp_run.baseline)},
       {"WASP's p95 delay is >= 10x below NoAdapt's",
        10.0 * wasp_run.p95 <= noadapt.p95,
        "wasp " + secs(wasp_run.p95) + ", no-adapt " + secs(noadapt.p95)}});
}
