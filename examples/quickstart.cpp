// Quickstart: deploy the Top-K query on the paper's 16-site testbed, double
// the workload mid-run, and watch WASP adapt.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/log.h"
#include "common/table.h"
#include "runtime/run_spec.h"

int main() {
  using namespace wasp;
  set_log_level(LogLevel::kInfo);  // show adaptation decisions

  // 1. The run: the Top-K popular-topics query (stateful windowed
  //    aggregation) under the full WASP policy, on the 8 edge + 8 data-center
  //    testbed with EC2/Akamai-like links (paper §8.2) and static bandwidth.
  //    Edge sites host the sources at 10k events/s each; one data center
  //    hosts the sink. Every default of runtime::RunSpec is the paper's.
  runtime::RunSpec spec;
  spec.query = runtime::QueryKind::kTopk;
  spec.mode = runtime::AdaptationMode::kWasp;
  spec.duration_sec = 600.0;                 // 10 simulated minutes
  spec.workload_steps = {{300.0, 2.0}};      // the workload doubles at 300 s

  // 2. Build it (topology, network, query, workload, deployment) and run.
  runtime::BuildError error;
  const auto run = runtime::build_run(spec, runtime::RunSettings{}, &error);
  if (run == nullptr) {
    std::cerr << error.message << "\n";
    return 2;
  }
  run->run_until(spec.duration_sec);

  // 3. Report.
  const auto& rec = run->system().recorder();
  TextTable table({"window", "avg delay (s)", "avg ratio", "parallelism x"});
  for (double t0 = 0.0; t0 < 600.0; t0 += 100.0) {
    table.add_row({TextTable::fmt(t0, 0) + "-" + TextTable::fmt(t0 + 100, 0),
                   TextTable::fmt(rec.delay().mean_over(t0, t0 + 100.0), 3),
                   TextTable::fmt(rec.ratio().mean_over(t0, t0 + 100.0), 3),
                   TextTable::fmt(
                       rec.parallelism().mean_over(t0, t0 + 100.0), 2)});
  }
  table.print(std::cout);

  std::cout << "\nAdaptations taken:\n";
  for (const auto& e : rec.events()) {
    std::cout << "  t=" << e.decided_at << "s  " << e.kind << "  (" << e.reason
              << "), transition " << e.transition_sec() << "s, migrated "
              << e.migrated_mb << " MB\n";
  }
  std::cout << "\nProcessed " << 100.0 * rec.processed_fraction()
            << "% of generated events; 95th-pct delay "
            << rec.delay_histogram().percentile(95) << "s\n";
  return 0;
}
