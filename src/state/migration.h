// Network-aware state migration planning (paper §5, §8.7).
//
// When tasks of a stateful operator move between sites, their checkpointed
// state must cross the WAN before the execution can resume, and the overall
// adaptation overhead is dominated by the *slowest* transfer. WASP therefore
// chooses the mapping from drained sites (S - S') to filled sites (S' - S)
// by minimizing the maximum per-link transfer time:
//
//   minmax ( |state_s1| / B_{s1 -> s2} )
//
// We solve the fluid generalization exactly: with x_ij the MB moved from
// drain site i to fill site j and r_ij the link's rate, the minimal makespan
// T is the smallest value for which
//   Σ_j x_ij = S_i      (all of i's state leaves)
//   Σ_i x_ij = D_j      (j receives its balanced share)
//   x_ij <= T · r_ij    (a transfer of x MB over r MB/s takes <= T seconds)
// is feasible. For a fixed T that is a max-flow question over a tripartite
// graph (capacities S_i, T·r_ij, D_j), so the planner bisects on T with a
// Dinic max flow as the feasibility check and reads the moves off the flow
// at the smallest feasible T (DESIGN.md §7). Transfers on distinct links run
// in parallel; same-link volume serializes. The min-max LP over the same
// rows is the test oracle in tests/oracle/.
//
// The WAN-agnostic baselines of §8.7.1 are also provided: Random (ignore
// bandwidth), Distant (adversarial: prefer the slowest links), and None
// (drop the state -- the lossy NoMigrate baseline).
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "physical/placement.h"

namespace wasp::obs {
class Profiler;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::state {

enum class MigrationStrategy { kNetworkAware, kRandom, kDistant, kNone };

[[nodiscard]] const char* to_string(MigrationStrategy strategy);

// One directed transfer of operator state.
struct Move {
  SiteId from;
  SiteId to;
  double size_mb = 0.0;
};

struct MigrationPlan {
  std::vector<Move> moves;
  // Estimated transition time: max over links of (volume / estimated
  // bandwidth), per the monitor's view at planning time.
  double estimated_transition_sec = 0.0;
};

// Deterministic seeded jitter for migration/transition retry backoff. A bare
// capped-exponential backoff synchronizes every retry that a shared fault
// (e.g. a healed partition) aborted at the same instant -- they all come back
// together and collide again. Spreading each wait uniformly over
// [base · (1 - frac), base · (1 + frac)] desynchronizes them; drawing from a
// dedicated stream forked off the run seed (never the run's main Rng, whose
// consumption order other components depend on) keeps replays byte-identical.
[[nodiscard]] inline double jittered_backoff_sec(double base_sec, double frac,
                                                 Rng& jitter_rng) {
  if (frac <= 0.0 || base_sec <= 0.0) return base_sec;
  return base_sec * jitter_rng.uniform(1.0 - frac, 1.0 + frac);
}

// State leaving a site / share of state a site must receive.
struct StateSource {
  SiteId site;
  double state_mb = 0.0;
};
struct StateDestination {
  SiteId site;
  double share_mb = 0.0;  // balanced share this site must end up holding
};

class MigrationPlanner {
 public:
  MigrationPlanner(MigrationStrategy strategy, Rng rng)
      : strategy_(strategy), rng_(rng) {}

  [[nodiscard]] MigrationStrategy strategy() const { return strategy_; }

  // Optional trace hook (non-owning; may be null): plan() emits one
  // "migration_plan" event summarizing the chosen move set.
  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }

  // Tick-phase profiler hook (DESIGN.md §13): plan() runs under the
  // control.solver.migration phase. Null (the default) disables.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  // Plans the transfer of all `sources` state to `destinations`. The
  // destination shares must sum to the source total (fluid balance); minor
  // mismatches are normalized. Returns an empty plan for kNone.
  [[nodiscard]] MigrationPlan plan(const std::vector<StateSource>& sources,
                                   const std::vector<StateDestination>& destinations,
                                   const physical::NetworkView& view);

  // Estimated makespan of an explicit move set under `view`.
  [[nodiscard]] static double estimate_makespan(
      const std::vector<Move>& moves, const physical::NetworkView& view);

 private:
  // Bisection on T with a Dinic max-flow feasibility check per probe (see
  // the header comment). Falls back to the greedy plan when no finite T
  // routes the state (dead links).
  [[nodiscard]] MigrationPlan plan_network_aware(
      const std::vector<StateSource>& sources,
      const std::vector<StateDestination>& destinations,
      const physical::NetworkView& view) const;

  [[nodiscard]] MigrationPlan plan_greedy(
      const std::vector<StateSource>& sources,
      const std::vector<StateDestination>& destinations,
      const physical::NetworkView& view, bool prefer_slow_links);

  MigrationStrategy strategy_;
  Rng rng_;
  obs::TraceEmitter* trace_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace wasp::state
