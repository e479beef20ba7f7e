// Physical plan: one stage per logical operator, with a placement.
//
// Stages mirror the paper's execution model (§2.1): a stage runs as p
// parallel tasks, each occupying one computing slot at some site. This
// module also provides whole-plan placement -- walking the logical plan in
// topological order, building each stage's traffic context from the
// already-placed upstream stages (plus pinned sinks downstream), and calling
// the scheduler -- which is what the Job Manager does at deployment and what
// re-planning does for candidate plans.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "physical/placement.h"
#include "physical/scheduler.h"
#include "query/logical_plan.h"

namespace wasp::physical {

struct Stage {
  StageId id;
  OperatorId op;
  StagePlacement placement;

  [[nodiscard]] int parallelism() const { return placement.parallelism(); }
};

class PhysicalPlan {
 public:
  PhysicalPlan() = default;

  StageId add_stage(OperatorId op, StagePlacement placement);

  [[nodiscard]] std::size_t num_stages() const { return stages_.size(); }
  [[nodiscard]] const Stage& stage(StageId id) const;
  [[nodiscard]] Stage& mutable_stage(StageId id);
  [[nodiscard]] const std::vector<Stage>& stages() const { return stages_; }

  // The stage executing logical operator `op`; asserts it exists.
  [[nodiscard]] const Stage& stage_for(OperatorId op) const;
  [[nodiscard]] Stage& mutable_stage_for(OperatorId op);
  [[nodiscard]] bool has_stage_for(OperatorId op) const;

  [[nodiscard]] int total_tasks() const;

 private:
  std::vector<Stage> stages_;
  query::OperatorTable<StageId> by_op_;  // invalid: no stage
};

struct PlanPlacement {
  PhysicalPlan plan;
  // Sum of per-stage ILP objectives: traffic-weighted network delay (Eq. 1).
  double objective = 0.0;
};

// Places every stage of `logical` with the given per-operator parallelism
// (entries below 1 count as 1; pinned operators get one task per pinned
// site). Slot availability is deducted stage by stage.
// If a stage is infeasible at its requested parallelism and
// `max_parallelism_fallback` > 0, the scheduler searches upward to that
// limit before giving up (deployment-time scale-out). Returns nullopt if any
// stage remains infeasible.
[[nodiscard]] std::optional<PlanPlacement> place_plan(
    const query::LogicalPlan& logical,
    const query::OperatorTable<query::OperatorRates>& rates,
    const query::OperatorTable<int>& parallelism,
    const NetworkView& view, const Scheduler& scheduler,
    int max_parallelism_fallback = 0);

}  // namespace wasp::physical
