// Unit and property tests for the oracles' two-phase simplex solver.
#include "oracle/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "oracle/problem.h"

namespace wasp::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(SimplexTest, TrivialUnconstrainedMinimumAtLowerBounds) {
  Problem p(Sense::kMinimize);
  p.add_variable(1.0);  // x >= 0
  p.add_variable(2.0);  // y >= 0
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.0, kTol);
  EXPECT_NEAR(s.values[0], 0.0, kTol);
  EXPECT_NEAR(s.values[1], 0.0, kTol);
}

TEST(SimplexTest, ClassicTwoVariableMaximization) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  Problem p(Sense::kMaximize);
  p.add_variable(3.0);
  p.add_variable(5.0);
  p.add_dense_constraint({1.0, 0.0}, RowType::kLe, 4.0);
  p.add_dense_constraint({0.0, 2.0}, RowType::kLe, 12.0);
  p.add_dense_constraint({3.0, 2.0}, RowType::kLe, 18.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.values[0], 2.0, kTol);
  EXPECT_NEAR(s.values[1], 6.0, kTol);
}

TEST(SimplexTest, MinimizationWithGeConstraintsNeedsPhase1) {
  // min 2x + 3y  s.t. x + y >= 4, x + 3y >= 6 -> x=3, y=1, obj=9.
  Problem p(Sense::kMinimize);
  p.add_variable(2.0);
  p.add_variable(3.0);
  p.add_dense_constraint({1.0, 1.0}, RowType::kGe, 4.0);
  p.add_dense_constraint({1.0, 3.0}, RowType::kGe, 6.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 9.0, kTol);
  EXPECT_NEAR(s.values[0], 3.0, kTol);
  EXPECT_NEAR(s.values[1], 1.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x <= 2 -> any x in [0,2] with x+y=5 has obj 5.
  Problem p(Sense::kMinimize);
  p.add_variable(1.0, 0.0, 2.0);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0, 1.0}, RowType::kEq, 5.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 5.0, kTol);
  EXPECT_NEAR(s.values[0] + s.values[1], 5.0, kTol);
  EXPECT_LE(s.values[0], 2.0 + kTol);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Problem p(Sense::kMinimize);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0}, RowType::kGe, 10.0);
  p.add_dense_constraint({1.0}, RowType::kLe, 5.0);
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnboundedness) {
  Problem p(Sense::kMaximize);
  p.add_variable(1.0);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0, -1.0}, RowType::kLe, 1.0);
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, RespectsVariableUpperBounds) {
  Problem p(Sense::kMaximize);
  p.add_variable(1.0, 0.0, 3.5);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.5, kTol);
}

TEST(SimplexTest, ShiftedLowerBounds) {
  // min x + y with x >= 2, y >= 3, x + y >= 7 -> obj = 7.
  Problem p(Sense::kMinimize);
  p.add_variable(1.0, 2.0, kInfinity);
  p.add_variable(1.0, 3.0, kInfinity);
  p.add_dense_constraint({1.0, 1.0}, RowType::kGe, 7.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, kTol);
  EXPECT_GE(s.values[0], 2.0 - kTol);
  EXPECT_GE(s.values[1], 3.0 - kTol);
}

TEST(SimplexTest, FreeVariable) {
  // min x^+ where x is free: min x s.t. x >= -5 is modeled via free var and
  // a >= constraint; optimum is x = -5.
  Problem p(Sense::kMinimize);
  p.add_variable(1.0, -kInfinity, kInfinity);
  p.add_dense_constraint({1.0}, RowType::kGe, -5.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -5.0, kTol);
}

TEST(SimplexTest, UpperBoundedFreeVariable) {
  // max x with x in (-inf, 7] -> 7.
  Problem p(Sense::kMaximize);
  p.add_variable(1.0, -kInfinity, 7.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, kTol);
}

TEST(SimplexTest, NegativeRhsRowsAreNormalized) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  Problem p(Sense::kMinimize);
  p.add_variable(1.0);
  p.add_dense_constraint({-1.0}, RowType::kLe, -3.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 3.0, kTol);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Klee-Minty-flavored degeneracy: multiple redundant constraints through
  // the same vertex. Bland's rule must terminate.
  Problem p(Sense::kMaximize);
  p.add_variable(1.0);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0, 0.0}, RowType::kLe, 1.0);
  p.add_dense_constraint({1.0, 0.0}, RowType::kLe, 1.0);
  p.add_dense_constraint({1.0, 1.0}, RowType::kLe, 1.0);
  p.add_dense_constraint({0.0, 1.0}, RowType::kLe, 1.0);
  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 1.0, kTol);
}

TEST(SimplexTest, EmptyProblemIsOptimalZero) {
  Problem p;
  const Solution s = solve(p);
  EXPECT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 0.0, kTol);
}

TEST(SimplexTest, Phase1ToleranceScalesWithEps) {
  // Two equality rows that disagree by 1e-8: x = 0 and x = 1e-8. Phase 1
  // bottoms out with ~1e-8 of residual infeasibility. At the default eps the
  // residual is within the feasibility tolerance (matching historical
  // behavior), but a caller asking for a tighter eps must get kInfeasible --
  // the tolerance is derived from options.eps, not hardcoded.
  Problem p(Sense::kMinimize);
  p.add_variable(1.0);
  p.add_dense_constraint({1.0}, RowType::kEq, 0.0);
  p.add_dense_constraint({1.0}, RowType::kEq, 1e-8);

  const Solution loose = solve(p);
  EXPECT_TRUE(loose.optimal());

  SimplexOptions tight;
  tight.eps = 1e-11;
  const Solution strict = solve(p, tight);
  EXPECT_EQ(strict.status, SolveStatus::kInfeasible);
}

// ---------------------------------------------------------------------------
// Property-based sweep: random bounded LPs are cross-checked against a grid
// brute force. Variables are box-bounded so a dense grid scan of corner
// candidates plus interior grid points bounds the optimum from below.
// ---------------------------------------------------------------------------

struct RandomLpCase {
  std::uint64_t seed;
};

class SimplexRandomProperty : public ::testing::TestWithParam<RandomLpCase> {};

TEST_P(SimplexRandomProperty, MatchesGridSearchOnBoxBoundedProblems) {
  Rng rng(GetParam().seed);
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  const int rows = static_cast<int>(rng.uniform_int(0, 4));

  Problem p(rng.uniform() < 0.5 ? Sense::kMinimize : Sense::kMaximize);
  std::vector<double> lo(n), hi(n);
  for (int i = 0; i < n; ++i) {
    lo[i] = rng.uniform(-3.0, 1.0);
    hi[i] = lo[i] + rng.uniform(0.5, 4.0);
    p.add_variable(rng.uniform(-5.0, 5.0), lo[i], hi[i]);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<double> coeffs(n);
    for (auto& c : coeffs) c = rng.uniform(-2.0, 2.0);
    // Choose rhs so the box center is feasible for Le/Ge rows -> the
    // problem is guaranteed feasible and bounded (box bounds).
    double center_val = 0.0;
    for (int i = 0; i < n; ++i) center_val += coeffs[i] * 0.5 * (lo[i] + hi[i]);
    const bool le = rng.uniform() < 0.5;
    const double slackness = rng.uniform(0.0, 2.0);
    p.add_dense_constraint(coeffs, le ? RowType::kLe : RowType::kGe,
                           le ? center_val + slackness
                              : center_val - slackness);
  }

  const Solution s = solve(p);
  ASSERT_TRUE(s.optimal());

  // Brute-force grid scan over the box.
  const int steps = 40;
  double best = p.sense() == Sense::kMinimize
                    ? std::numeric_limits<double>::infinity()
                    : -std::numeric_limits<double>::infinity();
  std::vector<int> idx(n, 0);
  auto value_of = [&](const std::vector<double>& x) {
    double obj = 0.0;
    for (int i = 0; i < n; ++i) obj += p.objective()[i] * x[i];
    return obj;
  };
  auto feasible = [&](const std::vector<double>& x) {
    for (const auto& c : p.constraints()) {
      double lhs = 0.0;
      for (std::size_t k = 0; k < c.vars.size(); ++k) {
        lhs += c.coeffs[k] * x[c.vars[k]];
      }
      if (c.type == RowType::kLe && lhs > c.rhs + 1e-9) return false;
      if (c.type == RowType::kGe && lhs < c.rhs - 1e-9) return false;
      if (c.type == RowType::kEq && std::abs(lhs - c.rhs) > 1e-9) return false;
    }
    return true;
  };
  std::vector<double> x(n);
  bool done = false;
  while (!done) {
    for (int i = 0; i < n; ++i) {
      x[i] = lo[i] + (hi[i] - lo[i]) * idx[i] / steps;
    }
    if (feasible(x)) {
      const double obj = value_of(x);
      if (p.sense() == Sense::kMinimize) {
        best = std::min(best, obj);
      } else {
        best = std::max(best, obj);
      }
    }
    int d = 0;
    while (d < n && ++idx[d] > steps) {
      idx[d] = 0;
      ++d;
    }
    done = d == n;
  }

  // The simplex optimum must be at least as good as any grid point (grid
  // granularity gives the tolerance).
  if (std::isfinite(best)) {
    if (p.sense() == Sense::kMinimize) {
      EXPECT_LE(s.objective, best + 1e-6);
    } else {
      EXPECT_GE(s.objective, best - 1e-6);
    }
  }

  // And the returned point must itself be feasible.
  EXPECT_TRUE(feasible(s.values));
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(s.values[i], lo[i] - 1e-6);
    EXPECT_LE(s.values[i], hi[i] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexRandomProperty,
                         ::testing::ValuesIn([] {
                           std::vector<RandomLpCase> cases;
                           for (std::uint64_t s = 1; s <= 40; ++s) {
                             cases.push_back({s * 7919});
                           }
                           return cases;
                         }()));

}  // namespace
}  // namespace wasp::lp
