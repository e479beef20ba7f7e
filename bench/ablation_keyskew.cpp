// Ablation: hot keys vs the balanced-partitioning assumption (paper §7).
//
// The paper assumes operators spread their output evenly over downstream
// tasks but notes the techniques "are not limited by this assumption". Here
// hot keys concentrate 3x weight on one of the aggregation's task sites.
// Under skew, adding tasks dilutes the hot share only sub-linearly, so WASP
// needs more aggressive scaling than the balanced DS2 estimate suggests --
// the bench shows it still converges, just with more steps/parallelism.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct Outcome {
  double p95 = 0.0;
  double steady_delay = 0.0;
  double peak_parallelism = 0.0;
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode, double skew,
            const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  // Workload surge plus a bandwidth squeeze force the aggregations to scale
  // out -- the regime where partitioning balance matters (skew at p = 1 is
  // vacuous by definition).
  runtime::RunSpec spec = opts.base;
  spec.mode = mode;
  spec.duration_sec = 1000.0;
  spec.workload_steps = {{200.0, 2.0}};
  spec.bandwidth_steps = {{500.0, 0.55}};
  const std::string label =
      std::string(to_string(mode)) + "/skew=" + TextTable::fmt(skew, 1);
  auto run = build(spec, mode == runtime::AdaptationMode::kNoAdapt
                             ? opts.settings
                             : opts.traced(label));
  runtime::WaspSystem& system = run->system();
  if (skew != 1.0) {
    // Skew every hash-partitioned aggregation in the deployed plan.
    for (const auto& op : system.engine().logical().operators()) {
      if (op.kind == query::OperatorKind::kWindowAggregate ||
          op.kind == query::OperatorKind::kUnion) {
        system.mutable_engine().set_partition_skew(op.id, skew);
      }
    }
  }
  run->run_until(spec.duration_sec);
  opts.write_metrics(label, system.metrics());

  Outcome out;
  out.p95 = system.recorder().delay_histogram().percentile(95);
  out.steady_delay = system.recorder().delay().mean_over(800.0, 1000.0);
  out.peak_parallelism = peak(system.recorder().parallelism());
  out.adaptations = system.recorder().events().size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout,
                "Ablation: key skew vs balanced partitioning "
                "(Top-K, x2 surge at t=200; 3x hot-site weight)");
  TextTable table({"mode", "skew", "p95 delay (s)", "steady delay (s)",
                   "peak parallelism (x)", "adaptations"});
  std::vector<Outcome> outcomes;  // (skew 1, 3) x (no-adapt, scale)
  for (double skew : {1.0, 3.0}) {
    // Scale-only keeps the engine's operator ids stable (a re-plan would
    // rebuild the runtime and clear the injected skew).
    for (auto mode : {runtime::AdaptationMode::kNoAdapt,
                      runtime::AdaptationMode::kScaleOnly}) {
      const Outcome& o = outcomes.emplace_back(run(mode, skew, opts));
      table.add_row({to_string(mode), TextTable::fmt(skew, 1),
                     TextTable::fmt(o.p95, 2),
                     TextTable::fmt(o.steady_delay, 2),
                     TextTable::fmt(o.peak_parallelism, 2),
                     std::to_string(o.adaptations)});
    }
  }
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "NoAdapt is identical under both skews (skew over a single task is "
      "vacuous, and it never scales out). Once the adaptive policy scales "
      "the aggregations, skew reshapes the load each new task receives and "
      "hence the adaptation path -- yet with a 3x hot-site weight Scale "
      "still converges to a sub-second steady delay, at least 10x below "
      "NoAdapt's, supporting §7's claim that the techniques are not limited "
      "to the balanced-partitioning assumption");
  const Outcome& noadapt = outcomes[0];
  const Outcome& skewed = outcomes[3];
  const auto steady = [](const Outcome& o) {
    return TextTable::fmt(o.steady_delay, 2) + " s";
  };
  return check_claims(
      opts,
      {{"NoAdapt is identical under both skews",
        noadapt.p95 == outcomes[2].p95 &&
            noadapt.steady_delay == outcomes[2].steady_delay,
        "p95 " + TextTable::fmt(noadapt.p95, 2) + " s and " +
            TextTable::fmt(outcomes[2].p95, 2) + " s"},
       {"with 3x skew Scale still converges: steady delay (800-1000 s) "
        "sub-second and >= 10x below NoAdapt's",
        skewed.steady_delay < 1.0 &&
            10.0 * skewed.steady_delay <= noadapt.steady_delay,
        "scale " + steady(skewed) + ", no-adapt " + steady(noadapt)}});
}
