// WAN-aware task scheduler: the placement ILP of paper §4.1 (Eq. 1-5).
//
// For one stage with parallelism p, the scheduler chooses per-site task
// counts p[s] minimizing the traffic-weighted network delay to/from its
// neighbor stages, subject to:
//   (2) inbound:  the share of the stage's input landing at site s must fit
//       within α of the available bandwidth from each upstream site,
//   (3) outbound: symmetric for downstream sites,
//   (4) slots:    0 <= p[s] <= A[s],
//   (5) total:    Σ p[s] = p.
// α < 1 reserves headroom against mis-estimation and transition load (§4.1);
// the paper and this code default to α = 0.8.
//
// Refinement over the paper's formulation: constraint (2) is applied per
// upstream site using that site's share of the stage input (λ̂_O[u] · p[s]/p)
// rather than the whole λ̂_I, which is what balanced partitioning actually
// puts on the link u -> s. With a single upstream site the two coincide.
//
// Every cap in (2)-(4) involves a single p[s], so the scheduler folds them
// into integer bounds lo[s] <= p[s] <= hi[s]. What is left is one equality
// row (5) over box bounds, whose optimum is a greedy fill in ascending cost
// order -- exact at any site count, with no LP (DESIGN.md §7). The B&B oracle
// in tests/oracle/ checks this against the unfolded program, standing in for
// the paper's Gurobi.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "physical/placement.h"

namespace wasp::physical {

// Traffic endpoint: a neighbor site and the event rate (events/s) it sends
// to / receives from the stage being placed, plus the event size in bytes.
struct TrafficEndpoint {
  SiteId site;
  double events_per_sec = 0.0;
  double event_bytes = 0.0;
};

// Everything the scheduler needs to place one stage.
struct StageContext {
  int parallelism = 1;
  // Upstream task sites with the rate each one emits toward this stage.
  std::vector<TrafficEndpoint> upstream;
  // Downstream task sites with the rate each one consumes from this stage
  // (empty when the downstream stage is not yet placed).
  std::vector<TrafficEndpoint> downstream;
  // Hard pin: if non-empty, the stage must place exactly here (sources and
  // sinks); one task per listed site.
  std::vector<SiteId> pinned_sites;
  // Per-site lower bounds on p[s] (empty = all zero). Used by scale-up so
  // existing tasks stay where they are and only the new tasks are placed.
  std::vector<int> min_per_site;
  // Per-site upper bounds on p[s] (empty = no extra cap; -1 entries mean
  // uncapped). Region decomposition pins out-of-region sites to their current
  // task count (min == max) so a localized re-plan only re-solves the
  // affected region's subproblem (DESIGN.md §14).
  std::vector<int> max_per_site;
  // Anti-affinity: sites the stage must not place on (their slot bound is
  // forced to zero). Standby placement excludes every site sharing a failure
  // domain with the primary so one domain_down cannot take both copies.
  std::vector<SiteId> excluded_sites;
};

class Scheduler {
 public:
  struct Config {
    double alpha = 0.8;  // bandwidth utilization threshold (§4.1)
  };

  Scheduler() = default;
  explicit Scheduler(Config config) : config_(config) {}

  [[nodiscard]] const Config& config() const { return config_; }

  // A copy of this scheduler, hooks included, planning at a different α.
  [[nodiscard]] Scheduler with_alpha(double alpha) const {
    Scheduler copy = *this;
    copy.config_.alpha = alpha;
    return copy;
  }

  // Observability: when set, every non-pinned place_stage call emits a
  // "placement_ilp" span (feasibility, objective, wall time) nested under
  // the caller's ambient span. Null disables.
  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }

  // Tick-phase profiler hook (DESIGN.md §13): place_stage runs under the
  // control.solver.placement phase. Null (the default) disables.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }

  // Solves Eq. 1-5 for one stage. Returns nullopt when no feasible placement
  // exists with the given parallelism (the trigger for operator scaling,
  // §4.2). `extra_slots` are added to the view's availability per site --
  // used when re-assigning a stage whose own tasks will vacate slots.
  [[nodiscard]] std::optional<PlacementOutcome> place_stage(
      const StageContext& context, const NetworkView& view,
      const std::vector<int>& extra_slots = {}) const;

  // Smallest parallelism p' >= `min_parallelism` for which a feasible
  // placement exists, up to `max_parallelism`; nullopt if none. Implements
  // the scale-out search of §4.2 ("ratio between the stream rate that cannot
  // be handled over the bandwidth availability" -- found constructively by
  // the ILP feasibility test). `extra_slots` is threaded through to every
  // `place_stage` probe so a stage being re-placed can count its own
  // soon-to-be-vacated slots at every candidate parallelism.
  [[nodiscard]] std::optional<PlacementOutcome> place_with_min_parallelism(
      const StageContext& context, const NetworkView& view,
      int min_parallelism, int max_parallelism,
      const std::vector<int>& extra_slots = {}) const;

 private:
  Config config_{};
  obs::TraceEmitter* trace_ = nullptr;  // non-owning; see set_trace
  obs::Profiler* profiler_ = nullptr;   // non-owning; see set_profiler
};

}  // namespace wasp::physical
