// Table 2: qualitative comparison between adaptation techniques, backed by
// measured micro-experiments.
//
// The paper's Table 2 compares task re-assignment, operator scaling, query
// re-planning, and data degradation on applicability, granularity, overhead,
// and quality reduction. We reproduce the qualitative rows and attach
// measured evidence from this simulator: the transition overhead of each
// technique on the Top-K query (60 MB of state) and whether any events were
// lost.
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct Measured {
  double transition_sec = 0.0;
  double dropped_pct = 0.0;
  bool acted = false;
  std::string action;
  std::string op;  // the operator whose state is pinned to 60 MB
};

Measured run_mode(wasp::runtime::AdaptationMode mode,
                  const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  // Bandwidth halves at t=120 to force one adaptation.
  runtime::RunSpec spec = opts.base;
  spec.mode = mode;
  spec.duration_sec = 600.0;
  spec.bandwidth_steps = {{120.0, 0.5}};
  auto run = build(spec, opts.traced(to_string(mode)));
  runtime::WaspSystem& system = run->system();
  const OperatorId window_op = window_aggregate(system.engine());
  system.mutable_engine().set_state_override_mb(window_op, 60.0);
  run->run_until(spec.duration_sec);
  opts.write_metrics(to_string(mode), system.metrics());

  Measured out;
  for (const auto& e : system.recorder().events()) {
    out.acted = true;
    out.transition_sec = std::max(out.transition_sec, e.transition_sec());
    if (!out.action.empty()) out.action += "+";
    out.action += e.kind;
  }
  // Quality reduction = events actually shed (end-of-run backlog is late,
  // not lost).
  const runtime::Recorder& rec = system.recorder();
  out.dropped_pct = rec.total_generated() > 0.0
                        ? 100.0 * rec.total_dropped() / rec.total_generated()
                        : 0.0;
  out.op = system.engine().logical().op(window_op).name;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const Measured reassign =
      run_mode(runtime::AdaptationMode::kReassignOnly, opts);
  const Measured scale = run_mode(runtime::AdaptationMode::kScaleOnly, opts);
  const Measured replan = run_mode(runtime::AdaptationMode::kReplanOnly, opts);
  const Measured degrade = run_mode(runtime::AdaptationMode::kDegrade, opts);
  opts.flush();

  std::cout << "60 MB state on: " << reassign.op << "\n";
  print_section(std::cout,
                "Table 2: qualitative comparison between adaptation "
                "techniques (with measured evidence)");
  TextTable table({"technique", "adaptation", "applicability", "granularity",
                   "overhead*", "quality reduction", "measured transition(s)",
                   "measured drops(%)"});
  table.add_row({"Task Re-Assignment", "task deployment", "general", "stage",
                 "low", "no", TextTable::fmt(reassign.transition_sec, 1),
                 TextTable::fmt(reassign.dropped_pct, 1)});
  table.add_row({"Operator Scaling", "operator parallelism", "general",
                 "stage", "low", "no", TextTable::fmt(scale.transition_sec, 1),
                 TextTable::fmt(scale.dropped_pct, 1)});
  table.add_row({"Query Re-Planning", "query execution plan",
                 "query-specific", "query", "high", "no**",
                 TextTable::fmt(replan.transition_sec, 1),
                 TextTable::fmt(replan.dropped_pct, 1)});
  table.add_row({"Data Degradation", "degradation policy", "query-specific",
                 "policy-dependent", "low", "yes", "0.0",
                 TextTable::fmt(degrade.dropped_pct, 1)});
  table.print(std::cout);
  std::cout << "*  excluding the cross-site state migration overhead\n"
            << "** yes, if the state is not compatible or ignored by the new "
               "plan\n";

  expected_shape(
      "re-assignment and scaling act at stage granularity with low measured "
      "transition times and zero drops; re-planning replaces the whole "
      "execution (higher transition when it fires); only degradation "
      "reduces quality (measured drops > 0)");
  const auto secs = [](const Measured& m) {
    return TextTable::fmt(m.transition_sec, 1) + " s";
  };
  const auto drops = [](const Measured& m) {
    return TextTable::fmt(m.dropped_pct, 2) + "%";
  };
  return check_claims(
      opts,
      {{"each technique adapts once the bandwidth halves",
        reassign.acted && scale.acted && replan.acted,
        "re-assign " + reassign.action + ", scale " + scale.action +
            ", re-plan " + replan.action},
       {"re-planning has the highest transition overhead",
        replan.transition_sec > std::max(reassign.transition_sec,
                                         scale.transition_sec),
        "re-plan " + secs(replan) + ", re-assign " + secs(reassign) +
            ", scale " + secs(scale)},
       {"only degradation reduces quality",
        degrade.dropped_pct > 0.0 && reassign.dropped_pct == 0.0 &&
            scale.dropped_pct == 0.0 && replan.dropped_pct == 0.0,
        "drops: degrade " + drops(degrade) + ", re-assign " +
            drops(reassign) + ", scale " + drops(scale) + ", re-plan " +
            drops(replan)}});
}
