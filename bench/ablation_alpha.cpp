// Ablation: the bandwidth-utilization threshold α (paper §4.1).
//
// WASP reserves (1-α) of each link as headroom against mis-estimation,
// workload jitter, and transition catch-up. §4.1 argues setting α too high
// makes the system unstable (mis-estimates bite) while too low wastes the
// optimization. This bench sweeps α over the §8.4 workload-surge scenario
// and reports delay, adaptations taken, and resource usage -- the ablation
// DESIGN.md calls out. The table is the base seed's; the claim is checked
// over nine seeds, since a single seed's ranking of the α values is noisy.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "exec/thread_pool.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout,
                "Ablation: bandwidth utilization threshold alpha "
                "(Top-K, workload x2 at t=300 + bandwidth x0.6 at t=450)");
  TextTable table({"alpha", "avg delay 300-900 (s)", "p95 delay (s)",
                   "steady delay 700-900 (s)", "adaptations",
                   "peak parallelism (x)"});
  // One cell per (seed, alpha): the base seed's five cells make the table,
  // the other seeds' only the claim. The cells are independent; --jobs=N
  // fans them out shared-nothing with per-index result slots, so the output
  // is identical for any N.
  const std::vector<double> kAlphas = {0.5, 0.65, 0.8, 0.9, 0.99};
  constexpr std::size_t kSeeds = 9;
  runtime::RunSpec base = opts.base;
  base.duration_sec = 900.0;
  base.workload_steps = {{300.0, 2.0}};
  base.bandwidth_steps = {{450.0, 0.6}};
  struct Cell {
    std::vector<std::string> row;
    double avg = 0.0;  // mean delay over [300, 900)
    std::vector<std::pair<std::string, double>> metrics;
  };
  const auto label = [&](std::size_t i) {
    return "alpha=" + TextTable::fmt(kAlphas[i], 2);
  };
  std::vector<Cell> cells(kSeeds * kAlphas.size());
  exec::parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    const std::size_t a = i % kAlphas.size();
    const bool table_cell = i < kAlphas.size();
    runtime::RunSpec spec = base;
    spec.seed = base.seed + i / kAlphas.size();
    spec.alpha = kAlphas[a];
    auto run = build(spec, table_cell ? opts.traced(label(a)) : opts.settings);
    run->run_until(spec.duration_sec);
    const runtime::Recorder& rec = run->system().recorder();
    cells[i].avg = rec.delay().mean_over(300.0, 900.0);
    if (!table_cell) return;
    cells[i].metrics = run->system().metrics().snapshot();
    cells[i].row = {TextTable::fmt(kAlphas[a], 2),
                    TextTable::fmt(cells[i].avg, 2),
                    TextTable::fmt(rec.delay_histogram().percentile(95), 2),
                    TextTable::fmt(rec.delay().mean_over(700.0, 900.0), 2),
                    std::to_string(rec.events().size()),
                    TextTable::fmt(peak(rec.parallelism()), 2)};
  });
  for (std::size_t a = 0; a < kAlphas.size(); ++a) {
    table.add_row(cells[a].row);
    opts.write_metrics(label(a), cells[a].metrics);
  }
  table.print(std::cout);
  opts.flush();

  // Per α, the median over the seeds of the average delay.
  std::string medians;
  std::vector<double> median(kAlphas.size());
  for (std::size_t a = 0; a < kAlphas.size(); ++a) {
    std::vector<double> avg;
    for (std::size_t s = 0; s < kSeeds; ++s) {
      avg.push_back(cells[s * kAlphas.size() + a].avg);
    }
    std::nth_element(avg.begin(), avg.begin() + kSeeds / 2, avg.end());
    median[a] = avg[kSeeds / 2];
    medians += (a == 0 ? "" : ", ") + TextTable::fmt(kAlphas[a], 2) + ": " +
               TextTable::fmt(median[a], 2) + " s";
  }

  expected_shape(
      "low alpha reserves aggressive headroom: it absorbs the dynamics with "
      "the least delay. Raising alpha trades that safety margin for "
      "utilization -- placements sit closer to the feasibility edge and "
      "post-dynamic delays rise. Peak parallelism does not order with "
      "alpha, and one seed's ranking is noisy, so the claim takes medians "
      "over nine seeds. (The paper's instability argument for alpha ~ 1 "
      "rests on real-WAN mis-estimation, which the simulator's mild 5% "
      "probe noise only partially reproduces, so the high-alpha column is "
      "noisier than a monotone trend.)");
  return check_claims(
      opts,
      {{"over seeds " + std::to_string(base.seed) + "-" +
            std::to_string(base.seed + kSeeds - 1) +
            ", alpha = 0.5 has the lowest median avg delay 300-900 s",
        std::min_element(median.begin(), median.end()) == median.begin(),
        "medians " + medians}});
}
