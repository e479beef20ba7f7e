#include "oracle/migration_lp.h"

#include "common/units.h"
#include "oracle/simplex.h"

namespace wasp::oracle {

std::optional<double> migration_makespan(
    const std::vector<state::StateSource>& sources,
    const std::vector<state::StateDestination>& destinations,
    const physical::NetworkView& view) {
  const std::size_t ns = sources.size();
  const std::size_t nd = destinations.size();
  double total_src = 0.0, total_dst = 0.0;
  for (const auto& s : sources) total_src += s.state_mb;
  for (const auto& d : destinations) total_dst += d.share_mb;

  lp::Problem problem(lp::Sense::kMinimize);
  for (std::size_t k = 0; k < ns * nd; ++k) problem.add_variable(0.0);
  const std::size_t t_var = problem.add_variable(1.0);
  auto x = [nd](std::size_t i, std::size_t j) { return i * nd + j; };

  for (std::size_t i = 0; i < ns; ++i) {
    lp::Constraint row;
    row.type = lp::RowType::kEq;
    row.rhs = sources[i].state_mb;
    for (std::size_t j = 0; j < nd; ++j) {
      row.vars.push_back(x(i, j));
      row.coeffs.push_back(1.0);
    }
    problem.add_constraint(std::move(row));
  }
  for (std::size_t j = 0; j < nd; ++j) {
    lp::Constraint row;
    row.type = lp::RowType::kEq;
    row.rhs = destinations[j].share_mb * total_src / total_dst;
    for (std::size_t i = 0; i < ns; ++i) {
      row.vars.push_back(x(i, j));
      row.coeffs.push_back(1.0);
    }
    problem.add_constraint(std::move(row));
  }
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) {
      if (sources[i].site == destinations[j].site) continue;  // local: free
      const double rate = mbps_to_mb_per_sec(
          view.available_mbps(sources[i].site, destinations[j].site));
      if (rate <= 1e-9) {
        problem.set_bounds(x(i, j), 0.0, 0.0);  // dead link
        continue;
      }
      lp::Constraint row;  // x_ij - T · r_ij <= 0
      row.type = lp::RowType::kLe;
      row.vars = {x(i, j), t_var};
      row.coeffs = {1.0, -rate};
      problem.add_constraint(std::move(row));
    }
  }

  const lp::Solution sol = lp::solve(problem);
  if (!sol.optimal()) return std::nullopt;
  return sol.objective;
}

}  // namespace wasp::oracle
