// Figure 8: average execution delay under workload and bandwidth dynamics,
// for all three queries and {No Adapt, Degrade, Re-opt}.
//
// §8.4 protocol: sources start at 10k events/s each; the workload doubles at
// t=300 and reverts at t=600; every link's bandwidth halves at t=900 and is
// restored at t=1200. Re-opt is WASP's re-optimization policy (re-assign +
// scale; no accuracy loss), Degrade sheds events past a 10 s SLO, No Adapt
// does nothing.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE traces the Re-opt runs (one per query, appended into a
  // single JSONL stream); the baselines run untraced.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const runtime::AdaptationMode kModes[] = {
      runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
      runtime::AdaptationMode::kWasp};
  const char* kModeNames[] = {"NoAdapt", "Degrade", "Re-opt"};

  runtime::RunSpec spec = opts.base;
  spec.duration_sec = 1500.0;
  spec.workload_steps = {{300.0, 2.0}, {600.0, 1.0}};
  spec.bandwidth_steps = {{900.0, 0.5}, {1200.0, 1.0}};

  // Per query the dynamics constrain (at the default seed, YSB and Top-K:
  // Events of Interest's deployment has the headroom to absorb both
  // windows): NoAdapt's peak over its steady delay, Degrade's peak, and
  // Re-opt's peak and final delay.
  bool diverges = true, bounded = true, recovers = true;
  std::string growth, degrade_peaks, reopt_delays;
  for (Query q : {Query::kYsb, Query::kTopk, Query::kEventsOfInterest}) {
    print_section(std::cout,
                  std::string("Figure 8: avg delay (s) over time -- ") +
                      query_name(q));
    spec.query = q;
    std::vector<TimeSeries> series;
    double peaks[3] = {0.0, 0.0, 0.0};
    double steady = 0.0, reopt_end = 0.0;
    for (int m = 0; m < 3; ++m) {
      spec.mode = kModes[m];
      const bool reopt = kModes[m] == runtime::AdaptationMode::kWasp;
      auto run =
          build(spec, reopt ? opts.traced(query_name(q)) : opts.settings);
      run->run_until(spec.duration_sec);
      const runtime::Recorder& rec = run->system().recorder();
      series.push_back(bucketed(rec.delay(), 50.0, kModeNames[m]));
      peaks[m] = peak(series.back());
      if (m == 0) steady = rec.delay().mean_over(0.0, 300.0);
      if (reopt) {
        reopt_end = rec.delay().mean_over(1300.0, 1500.0);
        opts.write_metrics(std::string(query_name(q)) + "/Re-opt",
                           run->system().metrics());
        std::cout << "Re-opt adaptations:";
        for (const auto& e : rec.events()) {
          std::cout << "  t=" << e.decided_at << ":" << e.kind;
        }
        std::cout << "\n";
      }
    }
    print_series(std::cout, "t(s)", series, 2);
    if (q == Query::kEventsOfInterest) continue;

    const std::string name = runtime::to_string(q);
    const std::string sep = growth.empty() ? "" : ", ";
    diverges = diverges && peaks[0] >= 100.0 * steady;
    growth += sep + name + " " + TextTable::fmt(peaks[0] / steady, 0) + "x";
    bounded = bounded && peaks[1] <= 1.5 * spec.slo_sec;
    degrade_peaks += sep + name + " " + TextTable::fmt(peaks[1], 2) + " s";
    recovers = recovers && peaks[2] < peaks[0] && reopt_end < 1.0;
    reopt_delays += sep + name + " peak " + TextTable::fmt(peaks[2], 2) +
                    " s, end " + TextTable::fmt(reopt_end, 2) + " s";
  }
  opts.flush();

  expected_shape(
      "NoAdapt: delay grows by orders of magnitude during the overload "
      "(300-600) and bandwidth-crunch (900-1200) windows, recovering only "
      "slowly in between. Degrade: delay bounded near the 10 s SLO "
      "throughout. Re-opt: brief spikes around the adaptation points, then "
      "back to sub-second steady state; the paper shows the same trend for "
      "all three queries, but at this seed Events of Interest's deployment "
      "absorbs both windows and stays flat");
  return check_claims(
      opts,
      {{"YSB, Top-K: NoAdapt's delay peaks at >= 100x its steady delay "
        "(paper: 2-3 orders of magnitude)",
        diverges, growth},
       {"YSB, Top-K: Degrade's delay stays within 1.5x the 10 s SLO",
        bounded,
        degrade_peaks},
       {"YSB, Top-K: Re-opt peaks below NoAdapt and ends sub-second "
        "(t=1300-1500)",
        recovers, reopt_delays}});
}
