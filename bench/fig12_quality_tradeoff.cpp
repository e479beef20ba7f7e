// Figure 12: quality vs delay trade-offs in the live environment.
//
// From the §8.6 live runs: (a) the fraction of generated events each
// approach actually processed, and (b) the delay CDFs. WASP processes
// everything (at the cost of a longer delay tail during transitions);
// Degrade holds the delay down but sacrifices a significant share of the
// events (~24% in the paper's run).
#include <iostream>
#include <string>

#include "bench_common.h"
#include "bench_options.h"
#include "common/histogram.h"

namespace {

struct QualityRun {
  double processed_pct = 0.0;
  wasp::WeightedHistogram delay_hist;
};

// One mode's run of the §8.6 live scenario (Figure 11's runs).
QualityRun run_mode(const wasp::runtime::RunSpec& base,
                    wasp::runtime::AdaptationMode mode,
                    const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  runtime::RunSpec spec = base;
  spec.mode = mode;
  auto run = build(spec, mode == runtime::AdaptationMode::kNoAdapt
                             ? opts.settings
                             : opts.traced(to_string(mode)));
  run->run_until(spec.duration_sec);
  opts.write_metrics(to_string(mode), run->system().metrics());

  QualityRun out;
  out.processed_pct = 100.0 * run->system().recorder().processed_fraction();
  out.delay_hist = run->system().recorder().delay_histogram();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the adaptive runs; NoAdapt runs untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  runtime::RunSpec base = opts.base;
  base.duration_sec = 1800.0;
  base.bandwidth_trace = "live";
  base.workload_trace = "live";
  base.fail = {{540.0, 60.0}};

  const QualityRun noadapt =
      run_mode(base, runtime::AdaptationMode::kNoAdapt, opts);
  const QualityRun wasp_run =
      run_mode(base, runtime::AdaptationMode::kWasp, opts);
  const QualityRun degrade =
      run_mode(base, runtime::AdaptationMode::kDegrade, opts);
  opts.flush();

  print_section(std::cout, "Figure 12(a): average processed events (%)");
  {
    TextTable table({"technique", "processed events (%)"});
    table.add_row({"No Adapt", TextTable::fmt(noadapt.processed_pct, 1)});
    table.add_row({"WASP", TextTable::fmt(wasp_run.processed_pct, 1)});
    table.add_row({"Degrade", TextTable::fmt(degrade.processed_pct, 1)});
    table.print(std::cout);
  }

  print_section(std::cout, "Figure 12(b): delay distribution (CDF)");
  {
    TextTable table({"cdf", "NoAdapt delay(s)", "WASP delay(s)",
                     "Degrade delay(s)"});
    for (int pct = 10; pct <= 100; pct += 5) {
      table.add_row({TextTable::fmt(pct / 100.0, 2),
                     TextTable::fmt(noadapt.delay_hist.percentile(pct), 2),
                     TextTable::fmt(wasp_run.delay_hist.percentile(pct), 2),
                     TextTable::fmt(degrade.delay_hist.percentile(pct), 2)});
    }
    table.print(std::cout);
  }

  expected_shape(
      "WASP processes ~100% of the events; Degrade sacrifices a double-digit "
      "percentage (paper: ~24%) to hold its delay; NoAdapt eventually "
      "admits most events but at absurd delays. In the CDF, WASP tracks "
      "the low-delay region but has a longer tail than Degrade "
      "(monitoring + transition + post-failure catch-up), while NoAdapt's "
      "median is orders of magnitude worse");
  const auto pct = [](double v) { return TextTable::fmt(v, 1) + "%"; };
  const auto delay = [](double v) { return TextTable::fmt(v, 2) + " s"; };
  const double median[] = {noadapt.delay_hist.percentile(50),
                           wasp_run.delay_hist.percentile(50)};
  const double tail[] = {wasp_run.delay_hist.percentile(100),
                         degrade.delay_hist.percentile(100)};
  const double degrade_p95 = degrade.delay_hist.percentile(95);
  return check_claims(
      opts,
      {{"WASP processes >= 99% of the events, and more than Degrade",
        wasp_run.processed_pct >= 99.0 &&
            wasp_run.processed_pct > degrade.processed_pct,
        "wasp " + pct(wasp_run.processed_pct) + ", degrade " +
            pct(degrade.processed_pct)},
       {"Degrade holds its delay near the 10 s SLO (p95 within 1.5x) by "
        "shedding events (< 99% processed)",
        degrade_p95 <= 1.5 * base.slo_sec && degrade.processed_pct < 99.0,
        "degrade p95 " + delay(degrade_p95) + ", " +
            pct(degrade.processed_pct)},
       {"WASP has a longer delay tail than Degrade", tail[0] > tail[1],
        "max wasp " + delay(tail[0]) + ", degrade " + delay(tail[1])},
       {"NoAdapt's median delay is >= 10x WASP's", median[0] >= 10 * median[1],
        "no-adapt " + delay(median[0]) + ", wasp " + delay(median[1])}});
}
