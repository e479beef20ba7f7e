// Placement oracle: the Eq. 1-5 ILP of paper §4.1 as the paper states it.
//
// One integer variable p[s] per site with slot bounds (Eq. 4), the
// parallelism row Σ p[s] = p (Eq. 5), and one explicit row per (site,
// neighbor) bandwidth cap (Eq. 2, 3):
//   (p[s] / p) · traffic(u) <= α · B(u -> s)      (inbound, u != s)
//   (p[s] / p) · traffic(d) <= α · B(s -> d)      (outbound, d != s)
// solved exactly by branch & bound. physical::Scheduler folds the same caps
// into bounds and fills greedily; tests check that both reach the same
// optimum. The paper's caps are strict (<); the scheduler emulates that with
// a 1e-9 margin, which differs from the <= here only when p·α·B/traffic is
// an exact integer.
#pragma once

#include <optional>
#include <vector>

#include "physical/placement.h"
#include "physical/scheduler.h"

namespace wasp::oracle {

// Optimal placement and Eq. 1 objective, or nullopt when infeasible.
// `extra_slots` has the meaning of Scheduler::place_stage's argument.
[[nodiscard]] std::optional<physical::PlacementOutcome> solve_placement(
    const physical::StageContext& ctx, const physical::NetworkView& view,
    double alpha, const std::vector<int>& extra_slots = {});

}  // namespace wasp::oracle
