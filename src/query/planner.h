// Query planner: rewrites and logical-plan enumeration.
//
// WASP's Query Planner (§4.3, §8.1) first applies environment-independent
// optimizations (filter pushdown, as in classic RDBMS optimizers) and then
// enumerates alternative plans that differ in the ordering of aggregation/
// join operators -- the operators whose placement moves data across the WAN.
// The Scheduler prices each candidate plan's best placement and the cheapest
// plan-placement pair wins; that joint step lives in the runtime's
// JobManager, keeping this module free of placement concerns.
//
// For stateful queries, enumeration is filtered through the common-sub-plan
// test (LogicalPlan::can_inherit_state_from) before a *re*-plan is allowed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/logical_plan.h"

namespace wasp::query {

// A logical plan admissible as a runtime re-plan. When the candidate cannot
// inherit all of the current execution's state but every orphaned stateful
// operator is a tumbling window, the switch is still safe *at a window
// boundary*, where that state re-initializes (§4.3); `boundary_window_sec`
// is the window length the reconfiguration must align to (0 = switch any
// time).
struct ReplanCandidate {
  LogicalPlan plan;
  double boundary_window_sec = 0.0;
};

class QueryPlanner {
 public:
  // Join chains wider than this are not reordered (factorial blow-up).
  static constexpr std::size_t kMaxJoinInputs = 6;

  // All candidate logical plans for `input`: the filter-pushed original
  // first, then its join-reordered variants, then the aggregation-pushed
  // variant of each (the "aggregation ordering" dimension of the paper's
  // plan space). Every candidate passes validate().
  [[nodiscard]] std::vector<LogicalPlan> enumerate(
      const LogicalPlan& input) const;

  // Candidates admissible as a *runtime re-plan* of `current` (§4.3):
  // enumerate() filtered to plans that either inherit all of `current`'s
  // stateful state (common sub-plans) or orphan only tumbling-window state,
  // in which case the candidate carries the window length the switch must
  // align to. Stateless queries are unrestricted.
  [[nodiscard]] std::vector<ReplanCandidate> enumerate_replans(
      const LogicalPlan& current) const;

  // Semantics-preserving rewrite: a filter directly downstream of a union is
  // replicated onto each union input, reducing the data rate entering the
  // union (and any WAN hop in front of it).
  [[nodiscard]] static LogicalPlan push_down_filters(const LogicalPlan& plan);

  // All left-deep reorderings of the plan's topmost join tree (commutative
  // joins; the two operands of the bottom join are canonicalized to avoid
  // mirror duplicates). Returns just {plan} when there is no join tree or it
  // is too wide.
  [[nodiscard]] static std::vector<LogicalPlan> reorder_joins(
      const LogicalPlan& plan, std::size_t max_inputs);

  // Partial-aggregation pushdown: rewrites every windowed aggregation whose
  // single input is a union into per-branch partial aggregations feeding a
  // union and a final merge aggregation. Cuts the pre-union WAN traffic to
  // the aggregated rate at the cost of `kPartialDuplication`x duplicate
  // partials crossing the union. Returns the rewritten plan, or nullopt if
  // nothing was rewritable.
  [[nodiscard]] static std::optional<LogicalPlan> push_down_aggregation(
      const LogicalPlan& plan);

 private:
  // Re-plan candidates depend only on the logical plan, and the running plan
  // changes only when a re-plan is applied -- yet try_replan re-enumerates
  // every decision epoch a bottleneck persists. Memoized on an exact
  // serialization of the input plan (rewrites and reordering are
  // deterministic, so a hit is identical to a fresh enumeration).
  mutable std::unordered_map<std::string, std::vector<ReplanCandidate>>
      replan_memo_;
};

}  // namespace wasp::query
