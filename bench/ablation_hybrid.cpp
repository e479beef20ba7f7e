// Ablation: re-optimize, degrade, or both (paper §7, "Re-optimize or
// degrade?").
//
// The paper argues the two approaches are complementary: a system may
// degrade as a stopgap while re-optimization runs, then stop shedding once
// the adapted deployment catches up. This bench quantifies the trade-off on
// a hard overload (x2.5 surge) for all four combinations: neither (NoAdapt),
// degradation only, re-optimization only (WASP), and both (Hybrid).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "exec/thread_pool.h"

namespace {

struct Outcome {
  double avg_delay = 0.0;
  double peak_delay = 0.0;
  double p99_delay = 0.0;
  double processed_pct = 0.0;
  std::size_t adaptations = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

Outcome run(wasp::runtime::AdaptationMode mode,
            const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  // A failure on top of the surge: 60 s of accumulated events that no
  // re-optimization can avoid -- the window where degradation-as-stopgap
  // pays off.
  runtime::RunSpec spec = opts.base;
  spec.mode = mode;
  spec.duration_sec = 1100.0;
  spec.workload_steps = {{200.0, 2.5}, {800.0, 1.0}};
  spec.fail = {{400.0, 60.0}};
  auto run = build(spec, mode == runtime::AdaptationMode::kNoAdapt
                             ? opts.settings
                             : opts.traced(to_string(mode)));
  run->run_until(spec.duration_sec);

  const auto& rec = run->system().recorder();
  Outcome out;
  out.metrics = run->system().metrics().snapshot();
  // Exclude the dead failure window (delay is the capped estimate
  // while nothing runs); measure recovery behaviour after the restore.
  out.avg_delay = rec.delay().mean_over(460.0, 1100.0);
  out.peak_delay = peak(rec.delay());
  out.p99_delay = rec.delay_histogram().percentile(99);
  out.processed_pct = 100.0 * rec.processed_fraction();
  out.adaptations = rec.events().size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  // --jobs=N fans the four independent mode runs across N workers with
  // per-index result slots; output is identical to the serial run.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout,
                "Ablation: re-optimize vs degrade vs both (Top-K, x2.5 "
                "surge during t=[200, 800), full failure t=[400, 460))");
  TextTable table({"mode", "avg delay post-restore (s)", "peak delay (s)", "p99 delay (s)",
                   "processed (%)", "adaptations"});
  const runtime::AdaptationMode kModes[] = {
      runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
      runtime::AdaptationMode::kWasp, runtime::AdaptationMode::kHybrid};
  std::vector<Outcome> outcomes(4);
  exec::parallel_for(opts.jobs, outcomes.size(),
                     [&](std::size_t i) { outcomes[i] = run(kModes[i], opts); });
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    opts.write_metrics(to_string(kModes[i]), o.metrics);
    table.add_row({to_string(kModes[i]), TextTable::fmt(o.avg_delay, 2),
                   TextTable::fmt(o.peak_delay, 1),
                   TextTable::fmt(o.p99_delay, 2),
                   TextTable::fmt(o.processed_pct, 1),
                   std::to_string(o.adaptations)});
  }
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "NoAdapt diverges; Degrade bounds the delay but sheds events for the "
      "entire overload; WASP keeps 100% of the events with a transient "
      "spike while adapting; Hybrid combines them -- delay bounded like "
      "Degrade (lower p99 than WASP), losses limited to the window before "
      "the re-optimization lands (processed% between Degrade and WASP)");
  const Outcome& degrade = outcomes[1];
  const Outcome& wasp_run = outcomes[2];
  const Outcome& hybrid = outcomes[3];
  const auto p99 = [](const Outcome& o) {
    return TextTable::fmt(o.p99_delay, 2) + " s";
  };
  const auto pct = [](const Outcome& o) {
    return TextTable::fmt(o.processed_pct, 1) + "%";
  };
  return check_claims(
      opts,
      {{"WASP keeps the events (>= 99% processed)",
        wasp_run.processed_pct >= 99.0, "wasp " + pct(wasp_run)},
       {"Degrade bounds the delay: p99 within 1.5x the 10 s SLO",
        degrade.p99_delay <= 1.5 * opts.base.slo_sec,
        "degrade " + p99(degrade)},
       {"Hybrid bounds the delay like Degrade: p99 within 1.5x the SLO, "
        "below WASP's",
        hybrid.p99_delay <= 1.5 * opts.base.slo_sec &&
            hybrid.p99_delay < wasp_run.p99_delay,
        "hybrid " + p99(hybrid) + ", wasp " + p99(wasp_run)},
       {"Hybrid processes more events than Degrade and fewer than WASP",
        degrade.processed_pct < hybrid.processed_pct &&
            hybrid.processed_pct < wasp_run.processed_pct,
        "degrade " + pct(degrade) + ", hybrid " + pct(hybrid) + ", wasp " +
            pct(wasp_run)}});
}
