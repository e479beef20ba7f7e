// Logical query plan: a DAG of logical operators.
//
// Besides graph bookkeeping, the plan provides two facilities the WASP
// adaptation layer builds on:
//
//  - rate estimation (§3.3): propagating the *actual* source workload through
//    operator selectivities to get each operator's expected input/output
//    rates regardless of backpressure-distorted observations;
//  - canonical signatures (§4.3): a commutative-aware structural hash of the
//    sub-plan feeding each operator, used to decide whether a stateful
//    operator in a new plan can inherit the state of one in the old plan
//    ("common sub-plans").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.h"
#include "query/operator.h"
#include "query/operator_table.h"

namespace wasp::query {

// Expected steady-state rates of one operator under a given workload.
struct OperatorRates {
  double input_eps = 0.0;   // λ̂_I: expected input events/s
  double output_eps = 0.0;  // λ̂_O = σ · λ̂_I
};

class LogicalPlan {
 public:
  // Adds an operator; its id is assigned by the plan and returned.
  OperatorId add_operator(LogicalOperator op);

  // Adds the edge upstream -> downstream.
  void connect(OperatorId upstream, OperatorId downstream);

  [[nodiscard]] std::size_t num_operators() const { return ops_.size(); }
  [[nodiscard]] const LogicalOperator& op(OperatorId id) const;
  [[nodiscard]] LogicalOperator& mutable_op(OperatorId id);
  [[nodiscard]] const std::vector<LogicalOperator>& operators() const {
    return ops_;
  }

  [[nodiscard]] const std::vector<OperatorId>& upstream(OperatorId id) const;
  [[nodiscard]] const std::vector<OperatorId>& downstream(OperatorId id) const;

  [[nodiscard]] std::vector<OperatorId> sources() const;
  [[nodiscard]] std::vector<OperatorId> sinks() const;

  // Operators in topological order (sources first). Asserts on cycles.
  [[nodiscard]] std::vector<OperatorId> topological_order() const;

  // Validates DAG shape: connected, acyclic, sources have no inputs, sinks
  // no outputs, join ops have exactly two inputs. Returns an error message
  // or empty string if valid.
  [[nodiscard]] std::string validate() const;

  // §3.3 workload estimation: propagates per-source output rates (events/s,
  // at each source's id; other entries are ignored) through selectivities.
  [[nodiscard]] OperatorTable<OperatorRates> estimate_rates(
      const OperatorTable<double>& source_rates) const;

  // Canonical structural signature of the sub-plan rooted at `id` (the
  // operator plus everything upstream of it). Commutative operators (join,
  // union) sort their children's signatures, so σ(C ⋈ D) == σ(D ⋈ C) but
  // != σ(B ⋈ C) -- exactly the §4.3 state-compatibility test.
  [[nodiscard]] std::string signature(OperatorId id) const;

  // True if every *stateful* operator of `old_plan` has a signature-matching
  // operator in this plan, i.e. switching from `old_plan` to this plan can
  // restore all state (§4.3).
  [[nodiscard]] bool can_inherit_state_from(const LogicalPlan& old_plan) const;

  // Pairs of (old operator, new operator) whose signatures match between
  // `old_plan` and this plan; used to carry state across a re-plan.
  [[nodiscard]] std::vector<std::pair<OperatorId, OperatorId>>
  matching_operators(const LogicalPlan& old_plan) const;

 private:
  std::vector<LogicalOperator> ops_;
  std::vector<std::vector<OperatorId>> upstream_;
  std::vector<std::vector<OperatorId>> downstream_;
};

}  // namespace wasp::query
