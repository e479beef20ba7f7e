#include "oracle/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <tuple>

namespace wasp::ilp {
namespace {

// Search node: the full chain of bound overrides relative to the root
// problem.
struct Node {
  std::vector<std::tuple<std::size_t, double, double>> bounds;
};

class Solver {
 public:
  Solver(const lp::Problem& problem, std::vector<std::size_t> integer_vars,
         const IlpOptions& options)
      : root_(problem),
        integer_vars_(std::move(integer_vars)),
        options_(options),
        minimize_(problem.sense() == lp::Sense::kMinimize) {
    max_nodes_ = options_.max_nodes != 0 ? options_.max_nodes : 200000;
  }

  IlpResult run() {
    IlpResult result;
    std::vector<Node> stack;
    stack.push_back(Node{});
    bool hit_node_limit = false;

    while (!stack.empty()) {
      if (result.nodes_explored >= max_nodes_) {
        hit_node_limit = true;
        break;
      }
      const Node node = std::move(stack.back());
      stack.pop_back();
      ++result.nodes_explored;

      lp::Problem sub = root_;
      bool consistent = true;
      for (const auto& [var, lo, hi] : node.bounds) {
        const double new_lo = std::max(lo, sub.lower_bounds()[var]);
        const double new_hi = std::min(hi, sub.upper_bounds()[var]);
        if (new_lo > new_hi) {
          consistent = false;
          break;
        }
        sub.set_bounds(var, new_lo, new_hi);
      }
      if (!consistent) continue;

      const lp::Solution relax = lp::solve(sub, options_.lp_options);
      if (relax.status == lp::SolveStatus::kUnbounded) {
        // An unbounded relaxation at the root means the ILP itself is
        // unbounded (or would need deeper analysis); report it.
        result.status = lp::SolveStatus::kUnbounded;
        return result;
      }
      if (relax.status == lp::SolveStatus::kIterationLimit) {
        // Not proven infeasible -- the subtree is dropped unexplored.
        ++result.nodes_dropped_by_limit;
        continue;
      }
      if (!relax.optimal()) continue;

      // Prune against the incumbent.
      if (have_incumbent_ && !improves(relax.objective)) continue;

      const std::optional<std::size_t> frac = most_fractional(relax.values);
      if (!frac.has_value()) {
        // Integral solution: new incumbent.
        have_incumbent_ = true;
        incumbent_objective_ = relax.objective;
        incumbent_values_ = relax.values;
        for (std::size_t var : integer_vars_) {
          incumbent_values_[var] = std::round(incumbent_values_[var]);
        }
        continue;
      }

      // Branch on the most fractional variable: floor branch and ceil branch.
      const std::size_t var = *frac;
      const double v = relax.values[var];
      Node down = node;
      down.bounds.emplace_back(var, -lp::kInfinity, std::floor(v));
      Node up = node;
      up.bounds.emplace_back(var, std::ceil(v), lp::kInfinity);
      // Explore the branch nearer the relaxation value first (stack: push it
      // last so it pops first).
      if (v - std::floor(v) < 0.5) {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      } else {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      }
    }

    if (have_incumbent_) {
      result.status = lp::SolveStatus::kOptimal;
      result.objective = incumbent_objective_;
      result.values = incumbent_values_;
    } else if (hit_node_limit || result.nodes_dropped_by_limit > 0) {
      // Subtrees were truncated without an incumbent: the problem was not
      // proven infeasible, so don't claim it is.
      result.status = lp::SolveStatus::kIterationLimit;
    } else {
      result.status = lp::SolveStatus::kInfeasible;
    }
    return result;
  }

 private:
  [[nodiscard]] bool improves(double objective) const {
    const double gap = options_.absolute_gap;
    return minimize_ ? objective < incumbent_objective_ - gap
                     : objective > incumbent_objective_ + gap;
  }

  [[nodiscard]] std::optional<std::size_t> most_fractional(
      const std::vector<double>& values) const {
    std::optional<std::size_t> best;
    double best_dist = 0.0;
    for (std::size_t var : integer_vars_) {
      const double v = values[var];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > options_.integrality_eps && dist > best_dist) {
        best = var;
        best_dist = dist;
      }
    }
    return best;
  }

  const lp::Problem& root_;
  std::vector<std::size_t> integer_vars_;
  IlpOptions options_;
  bool minimize_;
  std::size_t max_nodes_ = 0;
  bool have_incumbent_ = false;
  double incumbent_objective_ = 0.0;
  std::vector<double> incumbent_values_;
};

}  // namespace

IlpResult solve(const lp::Problem& problem,
                const std::vector<std::size_t>& integer_vars,
                const IlpOptions& options) {
  return Solver(problem, integer_vars, options).run();
}

IlpResult solve_all_integer(const lp::Problem& problem,
                            const IlpOptions& options) {
  std::vector<std::size_t> all(problem.num_variables());
  std::iota(all.begin(), all.end(), 0);
  return solve(problem, all, options);
}

}  // namespace wasp::ilp
