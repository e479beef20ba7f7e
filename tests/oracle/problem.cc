#include "oracle/problem.h"

#include <cassert>

namespace wasp::lp {

std::size_t Problem::add_variable(double objective_coeff, double lower,
                                  double upper) {
  assert(lower <= upper);
  objective_.push_back(objective_coeff);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return objective_.size() - 1;
}

void Problem::add_constraint(Constraint c) {
  assert(c.vars.size() == c.coeffs.size());
  for (std::size_t v : c.vars) {
    assert(v < num_variables());
    (void)v;
  }
  constraints_.push_back(std::move(c));
}

void Problem::add_dense_constraint(const std::vector<double>& coeffs,
                                   RowType type, double rhs) {
  assert(coeffs.size() == num_variables());
  Constraint c;
  c.type = type;
  c.rhs = rhs;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    if (coeffs[i] != 0.0) {
      c.vars.push_back(i);
      c.coeffs.push_back(coeffs[i]);
    }
  }
  constraints_.push_back(std::move(c));
}

void Problem::set_bounds(std::size_t var, double lower, double upper) {
  assert(var < num_variables());
  assert(lower <= upper);
  lower_[var] = lower;
  upper_[var] = upper;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "?";
}

}  // namespace wasp::lp
