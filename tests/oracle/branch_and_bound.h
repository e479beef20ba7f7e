// Integer linear programming via branch & bound over the simplex relaxation
// (test oracle).
//
// This is the exact solver the placement oracle runs on the paper's Eq. 1-5
// program, standing in for the Gurobi dependency of the original prototype.
// The search is plain depth-first branch & bound: every node copies the
// root problem, applies its chain of branch bounds, solves the relaxation,
// and branches on the most fractional integer variable; an integral
// relaxation that beats the incumbent replaces it. Any subset of variables
// may be marked integer, and node/iteration limits bound the work.
#pragma once

#include <cstddef>
#include <vector>

#include "oracle/problem.h"
#include "oracle/simplex.h"

namespace wasp::ilp {

struct IlpOptions {
  // Tolerance for treating a relaxation value as integral.
  double integrality_eps = 1e-6;
  // Hard cap on explored branch-and-bound nodes (0 = solver default).
  std::size_t max_nodes = 0;
  // Objective gap below which an incumbent is accepted as optimal.
  double absolute_gap = 1e-9;
  // Options forwarded to every LP relaxation solve.
  lp::SimplexOptions lp_options;
};

struct IlpResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // integral entries for integer variables
  std::size_t nodes_explored = 0;
  // Nodes whose LP relaxation hit the iteration limit and had to be dropped.
  // When any were dropped and no incumbent exists, the search was truncated
  // rather than exhausted, and `status` reports kIterationLimit instead of
  // kInfeasible.
  std::size_t nodes_dropped_by_limit = 0;

  [[nodiscard]] bool optimal() const {
    return status == lp::SolveStatus::kOptimal;
  }
};

// Solves `problem` with the variables listed in `integer_vars` restricted to
// integers. Variables not listed stay continuous (mixed-integer solve).
[[nodiscard]] IlpResult solve(const lp::Problem& problem,
                              const std::vector<std::size_t>& integer_vars,
                              const IlpOptions& options = {});

// Convenience: all variables integer.
[[nodiscard]] IlpResult solve_all_integer(const lp::Problem& problem,
                                          const IlpOptions& options = {});

}  // namespace wasp::ilp
