// YSB Advertising Campaign example: accuracy vs latency under overload.
//
// Runs the Yahoo! Streaming Benchmark query (filter -> campaign map -> 10 s
// windowed count per campaign) on the 16-site testbed, doubles the workload
// mid-run, and contrasts the two ways out of the overload:
//   - Degrade: shed events older than the 10 s SLO (bounded delay, lossy),
//   - WASP:    re-optimize execution and resources (lossless).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/ysb_campaign
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "runtime/run_spec.h"

namespace {

struct Outcome {
  double peak_delay = 0.0;
  double p95_delay = 0.0;
  double processed_pct = 0.0;
  std::size_t adaptations = 0;
};

Outcome run(wasp::runtime::AdaptationMode mode) {
  using namespace wasp;

  // 10k events/s per edge site, x2.5 over [200, 700), on the paper testbed
  // drawn from seed 11.
  runtime::RunSpec spec;
  spec.query = runtime::QueryKind::kYsb;
  spec.mode = mode;
  spec.seed = 11;
  spec.duration_sec = 900.0;
  spec.slo_sec = 10.0;
  spec.workload_steps = {{200.0, 2.5}, {700.0, 1.0}};  // sustained overload
  runtime::BuildError error;
  const auto built = runtime::build_run(spec, runtime::RunSettings{}, &error);
  if (built == nullptr) {
    std::cerr << error.message << "\n";
    std::exit(2);
  }
  built->run_until(spec.duration_sec);

  const auto& rec = built->system().recorder();
  Outcome out;
  for (const auto& [t, v] : rec.delay().points()) {
    out.peak_delay = std::max(out.peak_delay, v);
  }
  out.p95_delay = rec.delay_histogram().percentile(95);
  out.processed_pct = 100.0 * rec.processed_fraction();
  out.adaptations = rec.events().size();
  return out;
}

}  // namespace

int main() {
  using namespace wasp;

  std::cout << "YSB Advertising Campaign: 10k ev/s per edge site, x2.5 surge "
               "during t=[200, 700)\n\n";
  TextTable table({"mode", "peak delay (s)", "p95 delay (s)",
                   "processed (%)", "adaptations"});
  for (auto mode :
       {runtime::AdaptationMode::kNoAdapt, runtime::AdaptationMode::kDegrade,
        runtime::AdaptationMode::kWasp}) {
    const Outcome o = run(mode);
    table.add_row({to_string(mode), TextTable::fmt(o.peak_delay, 1),
                   TextTable::fmt(o.p95_delay, 2),
                   TextTable::fmt(o.processed_pct, 1),
                   std::to_string(o.adaptations)});
  }
  table.print(std::cout);
  std::cout << "\nDegrade bounds the delay near the SLO by discarding late "
               "events; WASP keeps every event by re-optimizing the "
               "deployment instead.\n";
  return 0;
}
