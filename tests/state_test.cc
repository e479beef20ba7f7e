// Unit and property tests for state-migration planning (paper §5, §8.7):
// the min-max planner against its LP oracle, the WAN-agnostic baselines,
// and makespan estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/rng.h"
#include "common/units.h"
#include "oracle/migration_lp.h"
#include "state/migration.h"

namespace wasp::state {
namespace {

class FakeView final : public physical::NetworkView {
 public:
  explicit FakeView(std::size_t n, double default_mbps = 100.0)
      : n_(n), bandwidth_(n * n, default_mbps) {}

  void set_bandwidth(SiteId from, SiteId to, double mbps) {
    bandwidth_[static_cast<std::size_t>(from.value()) * n_ +
               static_cast<std::size_t>(to.value())] = mbps;
  }

  [[nodiscard]] std::size_t num_sites() const override { return n_; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    if (from == to) return 1e6;
    return bandwidth_[static_cast<std::size_t>(from.value()) * n_ +
                      static_cast<std::size_t>(to.value())];
  }
  [[nodiscard]] double latency_ms(SiteId, SiteId) const override {
    return 10.0;
  }
  [[nodiscard]] int available_slots(SiteId) const override { return 8; }

 private:
  std::size_t n_;
  std::vector<double> bandwidth_;
};

double total_moved(const MigrationPlan& plan) {
  double mb = 0.0;
  for (const auto& m : plan.moves) mb += m.size_mb;
  return mb;
}

TEST(MigrationTest, NoneStrategyMovesNothing) {
  FakeView view(3);
  MigrationPlanner planner(MigrationStrategy::kNone, Rng(1));
  const auto plan = planner.plan({{SiteId(0), 100.0}}, {{SiteId(1), 100.0}},
                                 view);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_DOUBLE_EQ(plan.estimated_transition_sec, 0.0);
}

TEST(MigrationTest, SingleSourceSingleDestination) {
  FakeView view(2);
  view.set_bandwidth(SiteId(0), SiteId(1), 80.0);  // 10 MB/s
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  const auto plan =
      planner.plan({{SiteId(0), 60.0}}, {{SiteId(1), 60.0}}, view);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_NEAR(plan.moves[0].size_mb, 60.0, 1e-6);
  EXPECT_NEAR(plan.estimated_transition_sec, 6.0, 1e-6);
}

TEST(MigrationTest, NetworkAwarePrefersFastLinks) {
  // Two destinations; the slow one should carry (much) less state.
  FakeView view(3);
  view.set_bandwidth(SiteId(0), SiteId(1), 160.0);  // 20 MB/s
  view.set_bandwidth(SiteId(0), SiteId(2), 16.0);   // 2 MB/s
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  // Destination shares are balanced (50/50 task split), so the LP must move
  // 50 MB to each; the estimate is dominated by the slow link.
  const auto plan = planner.plan({{SiteId(0), 100.0}},
                                 {{SiteId(1), 50.0}, {SiteId(2), 50.0}}, view);
  EXPECT_NEAR(total_moved(plan), 100.0, 1e-6);
  EXPECT_NEAR(plan.estimated_transition_sec, 25.0, 1e-6);
}

TEST(MigrationTest, MinMaxBalancesAcrossSources) {
  // Classic minmax: two sources to two destinations with asymmetric links.
  // src0->dst0 fast, src0->dst1 slow, src1->dst0 slow, src1->dst1 fast:
  // the optimal mapping pairs fast links; any crossing is much worse.
  FakeView view(4);
  const SiteId s0(0), s1(1), d0(2), d1(3);
  view.set_bandwidth(s0, d0, 800.0);
  view.set_bandwidth(s0, d1, 8.0);
  view.set_bandwidth(s1, d0, 8.0);
  view.set_bandwidth(s1, d1, 800.0);
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  const auto plan = planner.plan({{s0, 100.0}, {s1, 100.0}},
                                 {{d0, 100.0}, {d1, 100.0}}, view);
  // Optimal: all of s0 -> d0 and s1 -> d1: makespan 1 s.
  EXPECT_NEAR(plan.estimated_transition_sec, 1.0, 0.05);
}

TEST(MigrationTest, DistantPrefersSlowLinks) {
  // Crossed links: s0 -> d0 and s1 -> d1 are fast, the two crossings slow.
  // The network-aware plan fills each destination over both of its links at
  // once (50 MB over 100 + 1 MB/s); Distant drains each source over its
  // slowest link (50 MB over 1 MB/s), 101x slower.
  FakeView view(4);
  const SiteId s0(0), s1(1), d0(2), d1(3);
  view.set_bandwidth(s0, d0, 800.0);  // 100 MB/s
  view.set_bandwidth(s0, d1, 8.0);    // 1 MB/s
  view.set_bandwidth(s1, d0, 8.0);
  view.set_bandwidth(s1, d1, 800.0);
  MigrationPlanner aware(MigrationStrategy::kNetworkAware, Rng(1));
  MigrationPlanner distant(MigrationStrategy::kDistant, Rng(1));
  const std::vector<StateSource> sources{{s0, 50.0}, {s1, 50.0}};
  const std::vector<StateDestination> dests{{d0, 50.0}, {d1, 50.0}};
  const auto fast = aware.plan(sources, dests, view);
  const auto slow = distant.plan(sources, dests, view);
  EXPECT_NEAR(fast.estimated_transition_sec, 50.0 / 101.0, 1e-6);
  EXPECT_NEAR(slow.estimated_transition_sec, 50.0, 1e-6);
  EXPECT_GE(slow.estimated_transition_sec,
            2.0 * fast.estimated_transition_sec);
}

TEST(MigrationTest, LocalMovesAreFree) {
  FakeView view(2);
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  // Everything stays at site 0: no cross-site move should be emitted.
  const auto plan =
      planner.plan({{SiteId(0), 50.0}}, {{SiteId(0), 50.0}}, view);
  EXPECT_TRUE(plan.moves.empty());
}

TEST(MigrationTest, DestinationSharesAreNormalized) {
  FakeView view(3);
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  // Destination shares sum to 200 but only 100 MB exists; the plan must
  // still move exactly 100 MB split 50/50.
  const auto plan = planner.plan(
      {{SiteId(0), 100.0}}, {{SiteId(1), 100.0}, {SiteId(2), 100.0}}, view);
  EXPECT_NEAR(total_moved(plan), 100.0, 1e-6);
}

TEST(MigrationTest, EmptyInventoriesYieldEmptyPlan) {
  FakeView view(2);
  MigrationPlanner planner(MigrationStrategy::kNetworkAware, Rng(1));
  EXPECT_TRUE(planner.plan({}, {{SiteId(1), 10.0}}, view).moves.empty());
  EXPECT_TRUE(planner.plan({{SiteId(0), 10.0}}, {}, view).moves.empty());
}

TEST(MigrationTest, MakespanAggregatesSameLinkMoves) {
  FakeView view(2);
  view.set_bandwidth(SiteId(0), SiteId(1), 80.0);  // 10 MB/s
  const std::vector<Move> moves{{SiteId(0), SiteId(1), 30.0},
                                {SiteId(0), SiteId(1), 30.0}};
  // 60 MB serialize on the same link: 6 s, not 3 s.
  EXPECT_NEAR(MigrationPlanner::estimate_makespan(moves, view), 6.0, 1e-9);
}

// Property: the network-aware plan conserves state and is never worse than
// Random or Distant on the same instance.
class MigrationOptimalityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationOptimalityProperty, AwareBeatsAgnosticBaselines) {
  Rng rng(GetParam());
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 8));
  FakeView view(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        view.set_bandwidth(SiteId(static_cast<std::int64_t>(i)),
                           SiteId(static_cast<std::int64_t>(j)),
                           rng.uniform(2.0, 200.0));
      }
    }
  }
  // Disjoint source/destination site sets.
  const std::size_t ns = static_cast<std::size_t>(rng.uniform_int(1, 2));
  std::vector<StateSource> sources;
  std::vector<StateDestination> dests;
  double total = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    const double mb = rng.uniform(10.0, 300.0);
    sources.push_back({SiteId(static_cast<std::int64_t>(i)), mb});
    total += mb;
  }
  const std::size_t nd = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(n - ns)));
  for (std::size_t j = 0; j < nd; ++j) {
    dests.push_back(
        {SiteId(static_cast<std::int64_t>(ns + j)), total / nd});
  }

  MigrationPlanner aware(MigrationStrategy::kNetworkAware, Rng(GetParam()));
  MigrationPlanner random(MigrationStrategy::kRandom, Rng(GetParam()));
  MigrationPlanner distant(MigrationStrategy::kDistant, Rng(GetParam()));
  const auto plan_aware = aware.plan(sources, dests, view);
  const auto plan_random = random.plan(sources, dests, view);
  const auto plan_distant = distant.plan(sources, dests, view);

  // Conservation (all strategies).
  for (const auto* plan : {&plan_aware, &plan_random, &plan_distant}) {
    double inbound = 0.0;
    for (const auto& m : plan->moves) {
      EXPECT_GT(m.size_mb, 0.0);
      inbound += m.size_mb;
    }
    EXPECT_NEAR(inbound, total, 1e-5);
  }
  // Optimality: the min-max makespan is a lower bound on the greedy ones.
  EXPECT_LE(plan_aware.estimated_transition_sec,
            plan_random.estimated_transition_sec + 1e-6);
  EXPECT_LE(plan_aware.estimated_transition_sec,
            plan_distant.estimated_transition_sec + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MigrationOptimalityProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// Property: the network-aware planner (bisection over Dinic max flows)
// reaches the makespan of the §5 min-max LP oracle. Instances range from a
// single pair to 64 pairs, about one link in seven is dead, and sources and
// destinations are drawn independently, so some pairs share a site (a free,
// local transfer).
TEST(MigrationOracleTest, MakespanMatchesMinMaxLp) {
  int small = 0, large = 0, colocated = 0, dead = 0, unroutable = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Even seeds draw 49-64 pairs, odd seeds 1-36.
    const bool big = seed % 2 == 0;
    const std::size_t n =
        static_cast<std::size_t>(big ? rng.uniform_int(12, 16)
                                     : rng.uniform_int(4, 12));
    FakeView view(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        view.set_bandwidth(SiteId(static_cast<std::int64_t>(i)),
                           SiteId(static_cast<std::int64_t>(j)),
                           rng.uniform() < 0.15 ? 0.0
                                                : rng.uniform(2.0, 200.0));
      }
    }
    auto distinct_sites = [&](std::size_t k) {
      std::vector<std::int64_t> ids(n);
      std::iota(ids.begin(), ids.end(), 0);
      for (std::size_t i = 0; i < k; ++i) {
        std::swap(ids[i], ids[static_cast<std::size_t>(rng.uniform_int(
                              static_cast<std::int64_t>(i),
                              static_cast<std::int64_t>(n) - 1))]);
      }
      ids.resize(k);
      return ids;
    };
    auto count = [&] {
      return static_cast<std::size_t>(
          big ? rng.uniform_int(7, 8)
              : rng.uniform_int(1, std::min<std::int64_t>(6, n)));
    };
    const std::size_t ns = count();
    const std::size_t nd = count();
    std::vector<StateSource> sources;
    double total = 0.0;
    for (std::int64_t site : distinct_sites(ns)) {
      sources.push_back({SiteId(site), rng.uniform(10.0, 300.0)});
      total += sources.back().state_mb;
    }
    std::vector<StateDestination> dests;
    for (std::int64_t site : distinct_sites(nd)) {
      dests.push_back({SiteId(site), rng.uniform(1.0, 4.0)});
    }
    (ns * nd < 48 ? small : large) += 1;
    bool shares_site = false, touches_dead = false;
    for (const auto& src : sources) {
      for (const auto& dst : dests) {
        shares_site |= src.site == dst.site;
        touches_dead |= src.site != dst.site &&
                        view.available_mbps(src.site, dst.site) == 0.0;
      }
    }
    colocated += shares_site;
    dead += touches_dead;

    MigrationPlanner aware(MigrationStrategy::kNetworkAware, Rng(1));
    const MigrationPlan plan = aware.plan(sources, dests, view);
    const std::optional<double> optimum =
        oracle::migration_makespan(sources, dests, view);
    if (!optimum.has_value()) {
      // No routing exists: the planner hands back its greedy fallback.
      ++unroutable;
      MigrationPlanner greedy(MigrationStrategy::kRandom, Rng(1));
      EXPECT_EQ(plan.estimated_transition_sec,
                greedy.plan(sources, dests, view).estimated_transition_sec);
      continue;
    }
    EXPECT_NEAR(plan.estimated_transition_sec, *optimum, 1e-9 * *optimum);
    double remote = 0.0;
    for (const auto& m : plan.moves) remote += m.size_mb;
    EXPECT_LE(remote, total * (1.0 + 1e-9));
  }
  // The sweep covers every case the planner distinguishes.
  EXPECT_GT(small, 20);
  EXPECT_GT(large, 20);
  EXPECT_GT(colocated, 20);
  EXPECT_GT(dead, 20);
  EXPECT_GT(unroutable, 0);
}

// ---------------------------------------------------------------------------
// Seeded retry-backoff jitter
// ---------------------------------------------------------------------------

TEST(JitteredBackoffTest, StaysInBandAndIsSeedDeterministic) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 200; ++i) {
    const double base = 5.0 * (1 + i % 7);
    const double wa = jittered_backoff_sec(base, 0.25, a);
    const double wb = jittered_backoff_sec(base, 0.25, b);
    // In band: base * [0.75, 1.25).
    EXPECT_GE(wa, 0.75 * base);
    EXPECT_LT(wa, 1.25 * base);
    // Same seed, same draw sequence: identical waits (replay determinism).
    EXPECT_DOUBLE_EQ(wa, wb);
  }
  // A different seed diverges somewhere in the sequence.
  Rng a2(42);
  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    if (jittered_backoff_sec(10.0, 0.25, a2) !=
        jittered_backoff_sec(10.0, 0.25, c)) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(JitteredBackoffTest, ZeroFractionIsIdentityAndDrawsNothing) {
  Rng rng(7);
  const std::uint64_t before = Rng(7).next_u64();
  EXPECT_DOUBLE_EQ(jittered_backoff_sec(12.0, 0.0, rng), 12.0);
  EXPECT_DOUBLE_EQ(jittered_backoff_sec(0.0, 0.25, rng), 0.0);
  // Neither call consumed a draw: the stream's next value is untouched.
  EXPECT_EQ(rng.next_u64(), before);
}

TEST(JitteredBackoffTest, DesynchronizesIdenticalBackoffs) {
  // Two retry chains with the same base backoff but distinct streams land at
  // distinct times -- the point of jitter after a shared abort.
  Rng s1(42 ^ 0xB0FF), s2(43 ^ 0xB0FF);
  EXPECT_NE(jittered_backoff_sec(30.0, 0.25, s1),
            jittered_backoff_sec(30.0, 0.25, s2));
}

}  // namespace
}  // namespace wasp::state
