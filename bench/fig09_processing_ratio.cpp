// Figure 9: processing ratio under workload and bandwidth dynamics, for all
// three queries and {No Adapt, Degrade, Re-opt}.
//
// Same runs as Figure 8; the processing ratio is the query's processing
// rate over the aggregated source rate (§8.3) -- 1 means keeping up, < 1
// constrained (or shedding, for Degrade), > 1 draining queued events.
//
// The 9 runs (3 queries x 3 modes) are independent shared-nothing
// simulations; --jobs=N fans them across N workers (exec::parallel_for)
// with output identical to the serial run.
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

  // --trace-out=FILE traces the Re-opt runs; the baselines run untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const runtime::AdaptationMode kModes[] = {
      runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
      runtime::AdaptationMode::kWasp};
  const char* kModeNames[] = {"NoAdapt", "Degrade", "Re-opt"};
  const Query kQueries[] = {Query::kYsb, Query::kTopk,
                            Query::kEventsOfInterest};

  runtime::RunSpec base = opts.base;
  base.duration_sec = 1500.0;
  base.workload_steps = {{300.0, 2.0}, {600.0, 1.0}};
  base.bandwidth_steps = {{900.0, 0.5}, {1200.0, 1.0}};

  // One cell per (query, mode); each run fills only its own slot and all
  // printing happens after the fan-in, so --jobs does not change the output.
  struct Cell {
    TimeSeries ratio;
    double processed = 0.0;  // fraction of generated events processed
    std::vector<std::pair<std::string, double>> metrics;  // Re-opt runs only
  };
  std::vector<Cell> cells(9);
  exec::parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    runtime::RunSpec spec = base;
    spec.query = kQueries[i / 3];
    spec.mode = kModes[i % 3];
    const bool reopt = spec.mode == runtime::AdaptationMode::kWasp;
    auto run = build(spec, reopt ? opts.traced(query_name(spec.query))
                                 : opts.settings);
    run->run_until(spec.duration_sec);
    const runtime::Recorder& rec = run->system().recorder();
    if (reopt) cells[i].metrics = run->system().metrics().snapshot();
    cells[i].ratio = bucketed(rec.ratio(), 50.0, kModeNames[i % 3]);
    cells[i].processed = rec.processed_fraction();
  });

  // Per query: the baselines' lowest bucket and NoAdapt's highest where the
  // dynamics constrain the query (at the default seed, YSB and Top-K: Events
  // of Interest's deployment absorbs both windows), and Re-opt's share of
  // events processed.
  bool dips = true, drains = true, keeps = true;
  std::string dip_text, drain_text, keep_text;
  for (std::size_t qi = 0; qi < 3; ++qi) {
    const Query q = kQueries[qi];
    print_section(std::cout,
                  std::string("Figure 9: processing ratio over time -- ") +
                      query_name(q));
    std::vector<TimeSeries> series;
    for (int m = 0; m < 3; ++m) series.push_back(cells[qi * 3 + m].ratio);
    print_series(std::cout, "t(s)", series, 3);
    opts.write_metrics(std::string(query_name(q)) + "/Re-opt",
                       cells[qi * 3 + 2].metrics);

    double low = 1.0, high = 0.0;
    for (int m = 0; m < 2; ++m) {
      for (const auto& [t, v] : series[m].points()) low = std::min(low, v);
    }
    for (const auto& [t, v] : series[0].points()) high = std::max(high, v);
    const double processed = cells[qi * 3 + 2].processed;
    const std::string sep = qi == 0 ? "" : ", ";
    const std::string name = runtime::to_string(q);
    keeps = keeps && processed >= 0.99;
    keep_text += sep + name + " " + TextTable::fmt(100.0 * processed, 1) + "%";
    if (q == Query::kEventsOfInterest) continue;
    dips = dips && low < 0.99;
    dip_text += sep + name + " " + TextTable::fmt(low, 3);
    drains = drains && high > 1.01;
    drain_text += sep + name + " " + TextTable::fmt(high, 3);
  }
  opts.flush();

  expected_shape(
      "NoAdapt and Degrade drop to ~0.8-0.9 during the constrained windows; "
      "NoAdapt rebounds above 1 afterwards (consuming queued events) while "
      "Degrade returns to 1 (dropped events are gone). Re-opt dips only "
      "momentarily during state-migration transitions and otherwise holds "
      "~1 (no events lost). The paper shows this for all three queries; at "
      "this seed Events of Interest's deployment absorbs both windows and "
      "holds 1");
  return check_claims(
      opts,
      {{"YSB, Top-K: NoAdapt and Degrade fall below a ratio of 0.99 in the "
        "constrained windows (paper: ~0.86)",
        dips, dip_text},
       {"YSB, Top-K: NoAdapt rebounds above 1.01 while draining its queues",
        drains,
        drain_text},
       {"Re-opt processes >= 99% of the generated events", keeps,
        keep_text}});
}
