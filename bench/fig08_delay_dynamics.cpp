// Figure 8: average execution delay under workload and bandwidth dynamics,
// for all three queries and {No Adapt, Degrade, Re-opt}.
//
// §8.4 protocol: sources start at 10k events/s each; the workload doubles at
// t=300 and reverts at t=600; every link's bandwidth halves at t=900 and is
// restored at t=1200. Re-opt is WASP's re-optimization policy (re-assign +
// scale; no accuracy loss), Degrade sheds events past a 10 s SLO, No Adapt
// does nothing.
#include <iostream>
#include <memory>

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

  for (Query q : {Query::kYsb, Query::kTopk, Query::kEventsOfInterest}) {
    print_section(std::cout,
                  std::string("Figure 8: avg delay (s) over time -- ") +
                      query_name(q));
    std::vector<TimeSeries> series;
    for (int m = 0; m < 3; ++m) {
      Testbed bed(std::make_shared<net::SteppedBandwidth>(
          std::vector<std::pair<double, double>>{{900.0, 0.5},
                                                 {1200.0, 1.0}}));
      auto spec = make_query(bed, q);
      auto pattern = uniform_rates(spec, 10'000.0);
      pattern.add_step(300.0, 2.0);
      pattern.add_step(600.0, 1.0);
      runtime::SystemConfig config = opts.system_config();
      config.mode = kModes[m];
      config.slo_sec = 10.0;
      if (kModes[m] == runtime::AdaptationMode::kWasp) {
        config.trace_sink = opts.sink;
      }
      runtime::WaspSystem system(bed.network, std::move(spec), pattern,
                                 config);
      system.run_until(1500.0);
      series.push_back(
          bucketed(system.recorder().delay(), 50.0, kModeNames[m]));
      if (kModes[m] == runtime::AdaptationMode::kWasp) {
        opts.write_metrics(std::string(query_name(q)) + "/Re-opt",
                           system.metrics());
        std::cout << "Re-opt adaptations:";
        for (const auto& e : system.recorder().events()) {
          std::cout << "  t=" << e.decided_at << ":" << e.kind;
        }
        std::cout << "\n";
      }
    }
    print_series(std::cout, "t(s)", series, 2);
  }
  opts.flush();

  expected_shape(
      "NoAdapt: delay grows by orders of magnitude during the overload "
      "(300-600) and bandwidth-crunch (900-1200) windows, recovering only "
      "slowly in between. Degrade: delay bounded near the 10 s SLO "
      "throughout. Re-opt: brief spikes around the adaptation points, then "
      "back to sub-second steady state; same trend for all three queries");
  return 0;
}
