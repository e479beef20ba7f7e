#include "oracle/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace wasp::lp {
namespace {

// Internal standard-form program:
//   minimize c'y  s.t.  T y = b, y >= 0, b >= 0
// built from the user's problem by variable substitution. `Mapping` records
// how to recover the original variable values from y.
struct VarMap {
  // x = offset + sign_pos * y[pos] - y[neg] (neg == npos unless free split).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t pos = npos;
  std::size_t neg = npos;
  double offset = 0.0;
  double sign = 1.0;  // applied to y[pos]
};

struct StandardForm {
  // Row-major coefficient matrix over structural vars (stride
  // `num_structural`). Flat storage: the solver is allocation-bound on the
  // small LPs this repo solves, so rows share one contiguous buffer.
  std::vector<double> rows;
  std::vector<double> rhs;
  std::vector<RowType> types;
  std::vector<double> cost;  // minimization costs over structural vars
  double objective_offset = 0.0;
  bool maximize = false;
  std::vector<VarMap> mapping;  // original var -> structural var(s)
  std::size_t num_structural = 0;

  [[nodiscard]] std::size_t num_rows() const { return rhs.size(); }
  [[nodiscard]] const double* row(std::size_t r) const {
    return rows.data() + r * num_structural;
  }
};

StandardForm build_standard_form(const Problem& p) {
  StandardForm sf;
  sf.maximize = p.sense() == Sense::kMaximize;
  const std::size_t n = p.num_variables();
  sf.mapping.resize(n);

  // Assign structural columns per variable based on its bounds.
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = p.lower_bounds()[i];
    const double hi = p.upper_bounds()[i];
    VarMap& m = sf.mapping[i];
    if (lo == -kInfinity && hi == kInfinity) {
      m.pos = sf.num_structural++;
      m.neg = sf.num_structural++;
    } else if (lo == -kInfinity) {
      // x = hi - y, y >= 0.
      m.pos = sf.num_structural++;
      m.sign = -1.0;
      m.offset = hi;
    } else {
      // x = lo + y, y >= 0; finite hi becomes a row later.
      m.pos = sf.num_structural++;
      m.offset = lo;
    }
  }

  // Objective over structural vars (as a minimization).
  sf.cost.assign(sf.num_structural, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double c = p.objective()[i];
    if (sf.maximize) c = -c;
    const VarMap& m = sf.mapping[i];
    sf.cost[m.pos] += c * m.sign;
    if (m.neg != VarMap::npos) sf.cost[m.neg] -= c;
    sf.objective_offset += c * m.offset;
  }

  // Opens a fresh zeroed row in the flat buffer and returns its base pointer.
  auto open_row = [&](RowType type, double rhs) -> double* {
    const std::size_t base = sf.rows.size();
    sf.rows.resize(base + sf.num_structural, 0.0);
    sf.rhs.push_back(rhs);
    sf.types.push_back(type);
    return sf.rows.data() + base;
  };
  sf.rows.reserve(sf.num_structural * (p.constraints().size() + n));
  sf.rhs.reserve(p.constraints().size() + n);
  sf.types.reserve(p.constraints().size() + n);

  // User constraints, rewritten over structural variables.
  for (const Constraint& c : p.constraints()) {
    double rhs = c.rhs;
    for (std::size_t k = 0; k < c.vars.size(); ++k) {
      rhs -= c.coeffs[k] * sf.mapping[c.vars[k]].offset;
    }
    double* row = open_row(c.type, rhs);
    for (std::size_t k = 0; k < c.vars.size(); ++k) {
      const VarMap& m = sf.mapping[c.vars[k]];
      const double a = c.coeffs[k];
      row[m.pos] += a * m.sign;
      if (m.neg != VarMap::npos) row[m.neg] -= a;
    }
  }

  // Finite upper bounds become explicit rows: y <= hi - lo.
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = p.lower_bounds()[i];
    const double hi = p.upper_bounds()[i];
    if (lo != -kInfinity && hi != kInfinity) {
      open_row(RowType::kLe, hi - lo)[sf.mapping[i].pos] = 1.0;
    }
  }
  return sf;
}

// A solve that ended without an optimum: only the status is meaningful.
Solution no_optimum(SolveStatus status) {
  Solution sol;
  sol.status = status;
  return sol;
}

// Dense tableau with an explicit basis. Columns: structural vars, then slack/
// surplus, then artificials, then rhs.
class Tableau {
 public:
  Tableau(StandardForm sf, const SimplexOptions& options)
      : sf_(std::move(sf)), eps_(options.eps) {
    const std::size_t m = sf_.num_rows();
    num_rows_ = m;
    // Count auxiliary columns.
    std::size_t slack = 0;
    for (RowType t : sf_.types) {
      if (t != RowType::kEq) ++slack;
    }
    slack_begin_ = sf_.num_structural;
    art_begin_ = slack_begin_ + slack;
    num_cols_ = art_begin_ + m;  // one artificial slot per row (may be unused)
    stride_ = num_cols_ + 1;
    max_iters_ = options.max_iterations != 0
                     ? options.max_iterations
                     : 50 * (m + num_cols_) + 1000;

    a_.assign(m * stride_, 0.0);
    basis_.assign(m, 0);
    is_artificial_.assign(num_cols_, 0);
    blocked_.assign(num_cols_, 0);

    // Phase-1 feasibility is declared when the artificial objective drops
    // below a tolerance derived from the requested eps and the data scale:
    // residuals are sums over RHS-magnitude terms, so the cutoff must grow
    // with the RHS and shrink when the caller tightens eps.
    double max_abs_rhs = 0.0;
    for (double b : sf_.rhs) max_abs_rhs = std::max(max_abs_rhs, std::abs(b));
    feas_tol_ = options.eps * 100.0 * std::max(1.0, max_abs_rhs);

    std::size_t next_slack = slack_begin_;
    for (std::size_t r = 0; r < m; ++r) {
      double sign = 1.0;
      RowType type = sf_.types[r];
      double rhs = sf_.rhs[r];
      if (rhs < 0.0) {
        sign = -1.0;
        rhs = -rhs;
        type = type == RowType::kLe
                   ? RowType::kGe
                   : (type == RowType::kGe ? RowType::kLe : RowType::kEq);
      }
      double* arow = row(r);
      const double* src = sf_.row(r);
      for (std::size_t c = 0; c < sf_.num_structural; ++c) {
        arow[c] = sign * src[c];
      }
      arow[num_cols_] = rhs;

      switch (type) {
        case RowType::kLe:
          arow[next_slack] = 1.0;
          basis_[r] = next_slack++;
          break;
        case RowType::kGe:
          arow[next_slack] = -1.0;
          ++next_slack;
          arow[art_begin_ + r] = 1.0;
          is_artificial_[art_begin_ + r] = 1;
          basis_[r] = art_begin_ + r;
          break;
        case RowType::kEq:
          arow[art_begin_ + r] = 1.0;
          is_artificial_[art_begin_ + r] = 1;
          basis_[r] = art_begin_ + r;
          break;
      }
    }
  }

  Solution run() {
    // Phase 1: minimize the sum of artificial variables. `cost_` is reused
    // as the phase-cost buffer for both phases.
    cost_.assign(num_cols_, 0.0);
    bool any_artificial = false;
    for (std::size_t c = art_begin_; c < num_cols_; ++c) {
      if (is_artificial_[c]) {
        cost_[c] = 1.0;
        any_artificial = true;
      }
    }
    if (any_artificial) {
      const SolveStatus s1 = optimize(cost_);
      if (s1 == SolveStatus::kIterationLimit) return no_optimum(s1);
      if (phase_objective(cost_) > feas_tol_) {
        return no_optimum(SolveStatus::kInfeasible);
      }
      drop_artificials();
    }

    // Phase 2: the real objective.
    cost_.assign(num_cols_, 0.0);
    for (std::size_t c = 0; c < sf_.num_structural; ++c) cost_[c] = sf_.cost[c];
    const SolveStatus s2 = optimize(cost_);
    if (s2 != SolveStatus::kOptimal) return no_optimum(s2);

    // Recover original variable values.
    std::vector<double> y(num_cols_, 0.0);
    for (std::size_t r = 0; r < num_rows_; ++r) {
      y[basis_[r]] = row(r)[num_cols_];
    }
    Solution sol;
    sol.status = SolveStatus::kOptimal;
    sol.values.resize(sf_.mapping.size(), 0.0);
    for (std::size_t i = 0; i < sf_.mapping.size(); ++i) {
      const VarMap& m = sf_.mapping[i];
      double v = m.offset + m.sign * y[m.pos];
      if (m.neg != VarMap::npos) v -= y[m.neg];
      sol.values[i] = v;
    }
    double obj = sf_.objective_offset;
    for (std::size_t c = 0; c < sf_.num_structural; ++c) obj += sf_.cost[c] * y[c];
    sol.objective = sf_.maximize ? -obj : obj;
    return sol;
  }

 private:
  [[nodiscard]] double* row(std::size_t r) { return a_.data() + r * stride_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    return a_.data() + r * stride_;
  }

  double phase_objective(const std::vector<double>& cost) const {
    double obj = 0.0;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      obj += cost[basis_[r]] * row(r)[num_cols_];
    }
    return obj;
  }

  // Reduced cost of column c under `cost` with the current basis, computed
  // directly from the tableau (the tableau rows are already B^-1 A).
  double reduced_cost(const std::vector<double>& cost, std::size_t c) const {
    double z = 0.0;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      z += cost[basis_[r]] * row(r)[c];
    }
    return cost[c] - z;
  }

  SolveStatus optimize(const std::vector<double>& cost) {
    for (std::size_t iter = 0; iter < max_iters_; ++iter) {
      // Bland's rule: the lowest-index column with negative reduced cost.
      std::size_t entering = num_cols_;
      for (std::size_t c = 0; c < num_cols_; ++c) {
        if (blocked_[c]) continue;
        if (reduced_cost(cost, c) < -eps_) {
          entering = c;
          break;
        }
      }
      if (entering == num_cols_) return SolveStatus::kOptimal;

      // Ratio test; Bland tie-break on the leaving basic variable index.
      std::size_t leaving_row = num_rows_;
      double best_ratio = 0.0;
      for (std::size_t r = 0; r < num_rows_; ++r) {
        const double pivot = row(r)[entering];
        if (pivot > eps_) {
          const double ratio = row(r)[num_cols_] / pivot;
          if (leaving_row == num_rows_ || ratio < best_ratio - eps_ ||
              (std::abs(ratio - best_ratio) <= eps_ &&
               basis_[r] < basis_[leaving_row])) {
            leaving_row = r;
            best_ratio = ratio;
          }
        }
      }
      if (leaving_row == num_rows_) return SolveStatus::kUnbounded;
      pivot(leaving_row, entering);
    }
    return SolveStatus::kIterationLimit;
  }

  void pivot(std::size_t prow, std::size_t col) {
    double* pr = row(prow);
    const double p = pr[col];
    assert(std::abs(p) > 0.0);
    for (std::size_t c = 0; c <= num_cols_; ++c) pr[c] /= p;
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (r == prow) continue;
      double* tr = row(r);
      const double factor = tr[col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= num_cols_; ++c) {
        tr[c] -= factor * pr[c];
      }
    }
    basis_[prow] = col;
  }

  // After phase 1: pivot artificials out of the basis where possible and
  // block every artificial column from re-entering.
  void drop_artificials() {
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (!is_artificial_[basis_[r]]) continue;
      // The artificial is basic at value ~0 (phase 1 succeeded). Pivot in any
      // non-artificial column with a nonzero entry; if none exists the row is
      // redundant and harmlessly keeps its zero-valued artificial.
      const double* rr = row(r);
      for (std::size_t c = 0; c < art_begin_; ++c) {
        if (std::abs(rr[c]) > eps_) {
          pivot(r, c);
          break;
        }
      }
    }
    blocked_.assign(num_cols_, 0);
    for (std::size_t c = art_begin_; c < num_cols_; ++c) {
      if (is_artificial_[c]) blocked_[c] = 1;
    }
  }

  StandardForm sf_;
  double eps_;
  double feas_tol_ = 1e-7;
  std::vector<double> cost_;  // phase cost buffer, reused across phases
  std::size_t slack_begin_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t num_cols_ = 0;
  std::size_t num_rows_ = 0;
  std::size_t stride_ = 0;
  std::size_t max_iters_ = 0;
  std::vector<double> a_;  // row-major, `stride_` doubles per row (rhs last)
  std::vector<std::size_t> basis_;
  std::vector<char> is_artificial_;
  std::vector<char> blocked_;
};

}  // namespace

Solution solve(const Problem& problem, const SimplexOptions& options) {
  // Degenerate case: no variables.
  if (problem.num_variables() == 0) {
    Solution sol;
    sol.status = SolveStatus::kOptimal;
    sol.objective = 0.0;
    return sol;
  }
  Tableau tableau(build_standard_form(problem), options);
  return tableau.run();
}

}  // namespace wasp::lp
