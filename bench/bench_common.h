// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§8), prints the same rows/series the paper plots plus a short
// "expected shape" note, and ends by checking the paper's claims against
// what it measured (check_claims). The environment mirrors §8.2: the
// 16-site testbed, α = 0.8, p_max = 3, 40 s monitoring interval,
// checkpointing every 30 s, initial parallelism 1 -- the defaults of
// runtime::RunSpec, through which every single-query run is built.
#pragma once

#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_options.h"
#include "common/ids.h"
#include "common/table.h"
#include "common/time_series.h"
#include "engine/engine.h"
#include "net/topology_spec.h"
#include "runtime/run_spec.h"
#include "runtime/wasp_system.h"

namespace wasp::bench {

using Query = runtime::QueryKind;

inline const char* query_name(Query q) {
  switch (q) {
    case Query::kYsb:
      return "YSB Advertising Campaign";
    case Query::kTopk:
      return "Top-K Popular Topics";
    case Query::kEventsOfInterest:
      return "Events of Interest";
    case Query::kJoin:
      return "Four-Source Join";
  }
  return "?";
}

// Builds `spec` through runtime::build_run; exits with build_run's one-line
// message, 2 (1 for an unreadable file), when it cannot be built.
inline std::unique_ptr<runtime::Run> build(
    const runtime::RunSpec& spec, const runtime::RunSettings& settings) {
  runtime::BuildError error;
  auto run = runtime::build_run(spec, settings, &error);
  if (run == nullptr) {
    std::cerr << error.message << "\n";
    std::exit(error.file ? 1 : 2);
  }
  return run;
}

// The deployed plan's last window aggregate in topological order: the
// merge when deployment pushed partial aggregates below the union, else the
// query's only window. Deployment renumbers operators, so a driver picks
// from engine().logical(), never from the query spec.
inline OperatorId window_aggregate(const engine::Engine& engine) {
  OperatorId window;
  for (OperatorId id : engine.logical().topological_order()) {
    if (engine.logical().op(id).kind == query::OperatorKind::kWindowAggregate) {
      window = id;
    }
  }
  return window;
}

inline void expected_shape(const std::string& note) {
  std::cout << "\n[expected shape] " << note << "\n";
}

// One claim of the paper that a driver checks against its own run: the
// claim with its margin, whether the run bears it out, and the measured
// values behind the verdict. EXPERIMENTS.md gives each margin's source.
struct Claim {
  std::string text;
  bool ok = false;
  std::string measured;
};

// Prints "[claim] <text>: ok|FAILED (<measured>)" per claim and returns the
// driver's exit code: 1 if any claim failed. The claims are the paper's, on
// its testbed: with another --topology nothing is checked.
inline int check_claims(const BenchOptions& opts,
                        const std::vector<Claim>& claims) {
  if (opts.base.topology.kind != net::TopologySpec::Kind::kPaper) {
    std::cout << "\n[claims] not checked: not the paper testbed\n";
    return 0;
  }
  std::cout << "\n";
  int failed = 0;
  for (const Claim& claim : claims) {
    std::cout << "[claim] " << claim.text << ": "
              << (claim.ok ? "ok" : "FAILED") << " (" << claim.measured
              << ")\n";
    failed += claim.ok ? 0 : 1;
  }
  return failed == 0 ? 0 : 1;
}

// The highest value of a series; 0 when it is empty.
inline double peak(const TimeSeries& s) {
  constexpr double kAll = std::numeric_limits<double>::infinity();
  return s.max_over(-kAll, kAll);
}

// Coarse time series (bucketed means) named for the legend.
inline TimeSeries bucketed(const TimeSeries& s, double dt,
                           const std::string& name) {
  TimeSeries out(name);
  for (const auto& [t, v] : s.downsample(dt)) out.add(t, v);
  return out;
}

}  // namespace wasp::bench
