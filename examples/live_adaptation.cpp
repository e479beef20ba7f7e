// Live adaptation example: random WAN and workload dynamics plus a failure,
// with WASP's decisions narrated as they happen (the §8.6 scenario as an
// interactive walkthrough).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/live_adaptation
#include <iostream>

#include "common/log.h"
#include "common/table.h"
#include "runtime/run_spec.h"

int main() {
  using namespace wasp;
  set_log_level(LogLevel::kInfo);  // narrate adaptation decisions

  // Bandwidth rides a trace-like random walk (factors 0.51-2.36, re-drawn
  // every 5 minutes), workload another one (0.8-2.4); all compute is
  // revoked at t=540 for 60 s.
  runtime::RunSpec spec;
  spec.mode = runtime::AdaptationMode::kWasp;
  spec.duration_sec = 1800.0;
  spec.bandwidth_trace = "live";
  spec.workload_trace = "live";
  spec.fail = {{540.0, 60.0}};
  runtime::BuildError error;
  const auto run = runtime::build_run(spec, runtime::RunSettings{}, &error);
  if (run == nullptr) {
    std::cerr << error.message << "\n";
    return 2;
  }

  std::cout << "running to t=540 under live dynamics...\n";
  run->run_until(540.0);
  std::cout << "t=540: FAILURE -- all compute revoked for 60 s\n";
  run->run_until(600.0);
  std::cout << "t=600: sites restored; watch WASP drain the backlog\n";
  run->run_until(spec.duration_sec);

  const auto& rec = run->system().recorder();
  TextTable table({"window", "avg delay (s)", "parallelism x"});
  for (double t0 = 0.0; t0 < 1800.0; t0 += 300.0) {
    table.add_row({TextTable::fmt(t0, 0) + "-" + TextTable::fmt(t0 + 300, 0),
                   TextTable::fmt(rec.delay().mean_over(t0, t0 + 300.0), 2),
                   TextTable::fmt(
                       rec.parallelism().mean_over(t0, t0 + 300.0), 2)});
  }
  table.print(std::cout);

  std::cout << "\nAdaptation log:\n";
  for (const auto& e : rec.events()) {
    std::cout << "  t=" << e.decided_at << "s " << e.kind << " ("
              << e.reason << "); transition " << e.transition_sec()
              << "s, migrated " << e.migrated_mb << " MB\n";
  }
  std::cout << "\nProcessed " << 100.0 * rec.processed_fraction()
            << "% of all generated events.\n";
  return 0;
}
