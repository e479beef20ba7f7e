// Figure 10: Re-assign vs Scale vs Re-plan, handling workload and bandwidth
// variations individually (Top-K query).
//
// §8.5 protocol: dynamics every 5 minutes -- workload factors
// {1, 2, 2, 1, 1} and bandwidth factors {1, 1, 0.5, 0.5, 1}. Compared:
// No Adapt; Re-assign (re-assignment only, parallelism fixed); Scale
// (re-assign first, scale when no placement exists); Re-plan (re-evaluates
// the execution plan, parallelism fixed). Reported: (a) the delay CDF,
// (b) average delay over time, (c) parallelism changes over time (total
// tasks relative to the initial deployment).
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"
#include "common/histogram.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const runtime::AdaptationMode kModes[] = {
      runtime::AdaptationMode::kNoAdapt,
      runtime::AdaptationMode::kReassignOnly,
      runtime::AdaptationMode::kScaleOnly,
      runtime::AdaptationMode::kReplanOnly};
  const char* kModeNames[] = {"NoAdapt", "Re-assign", "Scale", "Re-plan"};

  std::vector<TimeSeries> delay_series, parallelism_series;
  std::vector<WeightedHistogram> delay_hists(4);

  for (int m = 0; m < 4; ++m) {
    Testbed bed(std::make_shared<net::SteppedBandwidth>(
        std::vector<std::pair<double, double>>{{600.0, 0.5}, {1200.0, 1.0}}));
    auto spec = make_query(bed, Query::kTopk);
    auto pattern = uniform_rates(spec, 10'000.0);
    pattern.add_step(300.0, 2.0);   // x2
    pattern.add_step(900.0, 1.0);   // back to x1
    runtime::SystemConfig config = opts.system_config();
    config.mode = kModes[m];
    if (kModes[m] != runtime::AdaptationMode::kNoAdapt) {
      config.trace_sink = opts.sink;
    }
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(1500.0);
    opts.write_metrics(kModeNames[m], system.metrics());

    delay_series.push_back(
        bucketed(system.recorder().delay(), 50.0, kModeNames[m]));
    parallelism_series.push_back(
        bucketed(system.recorder().parallelism(), 50.0, kModeNames[m]));
    delay_hists[m] = system.recorder().delay_histogram();

    std::cout << kModeNames[m] << " adaptations:";
    for (const auto& e : system.recorder().events()) {
      std::cout << "  t=" << e.decided_at << ":" << e.kind;
    }
    std::cout << "\n";
  }

  print_section(std::cout, "Figure 10(a): delay distribution (CDF)");
  {
    TextTable table({"cdf", "NoAdapt delay(s)", "Re-assign delay(s)",
                     "Scale delay(s)", "Re-plan delay(s)"});
    for (int pct = 10; pct <= 100; pct += 5) {
      std::vector<std::string> row{TextTable::fmt(pct / 100.0, 2)};
      for (const auto& hist : delay_hists) {
        row.push_back(TextTable::fmt(hist.percentile(pct), 2));
      }
      table.add_row(std::move(row));
    }
    table.print(std::cout);
  }

  print_section(std::cout, "Figure 10(b): average delay (s) over time");
  print_series(std::cout, "t(s)", delay_series, 2);

  print_section(std::cout,
                "Figure 10(c): parallelism changes over time (x initial)");
  print_series(std::cout, "t(s)", parallelism_series, 2);
  opts.flush();

  expected_shape(
      "All adapting techniques beat NoAdapt. The workload surge at t=300 is "
      "handled by every technique; when bandwidth halves at t=600, Re-assign "
      "is often stuck at its fixed parallelism, while Scale acquires extra "
      "slots (parallelism rises above 1.0x) and resolves the bottleneck; "
      "Re-plan also recovers at fixed parallelism by re-optimizing the whole "
      "pipeline. Overall delay: Scale <= Re-plan < Re-assign << NoAdapt; "
      "Scale scales back down after t=1200 when bandwidth returns");
  return 0;
}
