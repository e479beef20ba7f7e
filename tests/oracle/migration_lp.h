// Migration oracle: the min-max state-migration LP of paper §5.
//
// Variables x_ij (MB moved from source i to destination j) and the makespan
// T; minimize T subject to
//   Σ_j x_ij = S_i          (all of i's state leaves)
//   Σ_i x_ij = D_j          (j receives its share, normalized to Σ S)
//   x_ij <= T · r_ij        (remote pairs; r_ij in MB/s)
//   x_ij = 0                (dead links, unless i and j are the same site)
// solved with the dense simplex. state::MigrationPlanner's network-aware
// strategy reaches the same optimum by bisection over max flows; tests check
// the two makespans agree.
#pragma once

#include <optional>
#include <vector>

#include "physical/placement.h"
#include "state/migration.h"

namespace wasp::oracle {

// Minimal makespan in seconds, or nullopt when no routing exists.
[[nodiscard]] std::optional<double> migration_makespan(
    const std::vector<state::StateSource>& sources,
    const std::vector<state::StateDestination>& destinations,
    const physical::NetworkView& view);

}  // namespace wasp::oracle
