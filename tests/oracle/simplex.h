// Two-phase primal simplex solver over dense tableaus (test oracle).
//
// Scope: exact solutions for the small LPs the oracles in this directory
// pose (tens of variables). General variable bounds are handled by
// substitution (lower bounds shifted to zero, finite upper bounds added as
// rows, free variables split). Bland's pivoting rule guarantees termination
// on degenerate problems; reduced costs are recomputed from the basis on
// every pivot, which is slow but has no state to get wrong.
#pragma once

#include <cstddef>

#include "oracle/problem.h"

namespace wasp::lp {

struct SimplexOptions {
  // Numeric tolerance for feasibility/optimality tests.
  double eps = 1e-9;
  // Hard cap on pivots per phase; 0 means the solver picks a generous bound
  // from the problem size.
  std::size_t max_iterations = 0;
};

// Solves the LP relaxation of `problem` (integrality is ignored here; see
// wasp::ilp for integer solves).
[[nodiscard]] Solution solve(const Problem& problem,
                             const SimplexOptions& options = {});

}  // namespace wasp::lp
