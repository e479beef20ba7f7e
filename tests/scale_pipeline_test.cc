// Tests for the planet-scale pipeline (DESIGN.md §14): the edge-hierarchy
// topology generator and its spec grammar, placement at scale against the
// B&B oracle, region-decomposed re-plans, and the max-flow migration
// planner on many-pair instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "oracle/placement_ilp.h"
#include "physical/placement.h"
#include "physical/scheduler.h"
#include "state/migration.h"

namespace wasp {
namespace {

// ---------------------------------------------------------------------------
// Topology generator
// ---------------------------------------------------------------------------

void expect_topologies_identical(const net::Topology& a,
                                 const net::Topology& b) {
  ASSERT_EQ(a.num_sites(), b.num_sites());
  for (std::size_t i = 0; i < a.num_sites(); ++i) {
    const SiteId id(static_cast<std::int64_t>(i));
    const auto& sa = a.site(id);
    const auto& sb = b.site(id);
    EXPECT_EQ(sa.name, sb.name);
    EXPECT_EQ(sa.type, sb.type);
    EXPECT_EQ(sa.slots, sb.slots);
    EXPECT_EQ(a.domain_of(id), b.domain_of(id));
    for (std::size_t j = 0; j < a.num_sites(); ++j) {
      const SiteId other(static_cast<std::int64_t>(j));
      // EXPECT_EQ on doubles is exact: byte-identical, not approximately so.
      EXPECT_EQ(a.base_bandwidth(id, other), b.base_bandwidth(id, other));
      EXPECT_EQ(a.latency_ms(id, other), b.latency_ms(id, other));
    }
  }
}

TEST(EdgeHierarchyTest, SameSeedIsByteIdentical) {
  net::EdgeHierarchyParams params;
  params.edge_sites = 48;
  params.regions = 4;
  Rng ra(9), rb(9);
  const net::Topology a = net::Topology::make_edge_hierarchy(params, ra);
  const net::Topology b = net::Topology::make_edge_hierarchy(params, rb);
  expect_topologies_identical(a, b);
}

TEST(EdgeHierarchyTest, DifferentSeedsDiffer) {
  net::EdgeHierarchyParams params;
  params.edge_sites = 24;
  params.regions = 4;
  Rng ra(9), rb(10);
  const net::Topology a = net::Topology::make_edge_hierarchy(params, ra);
  const net::Topology b = net::Topology::make_edge_hierarchy(params, rb);
  ASSERT_EQ(a.num_sites(), b.num_sites());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.num_sites() && !any_difference; ++i) {
    for (std::size_t j = 0; j < a.num_sites(); ++j) {
      const SiteId from(static_cast<std::int64_t>(i));
      const SiteId to(static_cast<std::int64_t>(j));
      if (a.base_bandwidth(from, to) != b.base_bandwidth(from, to)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(EdgeHierarchyTest, TierShapeAndDistributionBounds) {
  net::EdgeHierarchyParams params;
  params.edge_sites = 64;
  params.regions = 4;
  params.core_dcs = 2;
  params.regional_dcs_per_region = 1;
  params.edge_slots_min = 2;
  params.edge_slots_max = 4;
  params.domains_per_region = 2;
  Rng rng(11);
  const net::Topology topo = net::Topology::make_edge_hierarchy(params, rng);
  ASSERT_EQ(topo.num_sites(),
            static_cast<std::size_t>(params.total_sites()));

  std::vector<SiteId> cores, regionals, edge_sites;
  for (const auto& site : topo.sites()) {
    if (site.type == net::SiteType::kEdge) {
      EXPECT_GE(site.slots, params.edge_slots_min);
      EXPECT_LE(site.slots, params.edge_slots_max);
      // Edge sites live in their region's domain range.
      EXPECT_GE(topo.domain_of(site.id), 0);
      EXPECT_LT(topo.domain_of(site.id),
                params.regions * params.domains_per_region);
      edge_sites.push_back(site.id);
    } else if (site.slots == params.core_slots) {
      // Core DCs sit in their own domains above the regional range.
      EXPECT_GE(topo.domain_of(site.id),
                params.regions * params.domains_per_region);
      cores.push_back(site.id);
    } else {
      EXPECT_EQ(site.slots, params.regional_slots);
      regionals.push_back(site.id);
    }
  }
  EXPECT_EQ(cores.size(), static_cast<std::size_t>(params.core_dcs));
  EXPECT_EQ(regionals.size(),
            static_cast<std::size_t>(params.regions *
                                     params.regional_dcs_per_region));
  EXPECT_EQ(edge_sites.size(), static_cast<std::size_t>(params.edge_sites));

  // Per-tier-pair bandwidth clamps (Fig. 7 shapes).
  for (SiteId a : cores) {
    for (SiteId b : cores) {
      if (a == b) continue;
      const double bw = topo.base_bandwidth(a, b);
      EXPECT_GE(bw, params.core_bw_min);
      EXPECT_LE(bw, params.core_bw_max);
    }
  }
  for (SiteId a : regionals) {
    for (SiteId b : regionals) {
      if (a == b) continue;
      const double bw = topo.base_bandwidth(a, b);
      EXPECT_GE(bw, params.dc_bw_min);
      EXPECT_LE(bw, params.dc_bw_max);
    }
  }
  const double edge_lo = std::min(params.edge_bw_min, params.far_edge_bw_min);
  const double edge_hi = std::max(params.edge_bw_max, params.far_edge_bw_max);
  for (SiteId e : edge_sites) {
    for (const auto& other : topo.sites()) {
      if (other.id == e) continue;
      EXPECT_GE(topo.base_bandwidth(e, other.id), edge_lo);
      EXPECT_LE(topo.base_bandwidth(e, other.id), edge_hi);
      EXPECT_GT(topo.latency_ms(e, other.id), 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// TopologySpec grammar
// ---------------------------------------------------------------------------

TEST(TopologySpecTest, RoundTripsThroughToString) {
  for (const char* text :
       {"paper", "uniform:sites=8;slots=2;bw=100;lat=10",
        "edge:sites=64;regions=4;core=2;edge-slots=3-5",
        "edge:sites=200,regions=8,domains-per-region=2"}) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = net::TopologySpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const auto again = net::TopologySpec::parse(spec->to_string(), &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_EQ(spec->to_string(), again->to_string());
  }
}

TEST(TopologySpecTest, ExpectedSitesMatchesBuild) {
  std::string error;
  const auto spec =
      net::TopologySpec::parse("edge:sites=64;regions=4;core=2", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  Rng rng(3);
  EXPECT_EQ(spec->build(rng).num_sites(), std::size_t{64 + 4 + 2});
}

TEST(TopologySpecTest, MalformedSpecsAreHardErrors) {
  for (const char* text :
       {"frobnicate", "edge:sites=banana", "edge:bogus-key=3",
        "paper:sites=4", "uniform:sites=", "edge:edge-slots=5-3", ""}) {
    SCOPED_TRACE(text);
    std::string error;
    EXPECT_FALSE(net::TopologySpec::parse(text, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------------
// Placement solver stack
// ---------------------------------------------------------------------------

// NetworkView over a topology's ground truth (all slots free).
class TopologyView final : public physical::NetworkView {
 public:
  explicit TopologyView(const net::Topology& topo) : topo_(topo) {}
  [[nodiscard]] std::size_t num_sites() const override {
    return topo_.num_sites();
  }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return topo_.base_bandwidth(from, to);
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return topo_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return topo_.site(site).slots;
  }

 private:
  const net::Topology& topo_;
};

TEST(ScaleSolverTest, DirectSolveMatchesReferenceAtScale) {
  net::EdgeHierarchyParams params;
  params.edge_sites = 56;
  params.regions = 4;
  Rng rng(5);
  const net::Topology topo = net::Topology::make_edge_hierarchy(params, rng);
  const TopologyView view(topo);
  ASSERT_GE(topo.num_sites(), 60u);

  const physical::Scheduler scheduler;
  physical::StageContext ctx;
  ctx.parallelism = 6;
  int picked = 0;
  for (const auto& site : topo.sites()) {
    if (site.type == net::SiteType::kEdge && picked < 6) {
      ctx.upstream.push_back({site.id, 2'000.0, 120.0});
      ++picked;
    }
  }
  ctx.downstream.push_back({SiteId(0), 2'000.0, 60.0});

  const auto got = scheduler.place_stage(ctx, view);
  const auto want = oracle::solve_placement(ctx, view, 0.8);
  ASSERT_TRUE(got.has_value());
  ASSERT_TRUE(want.has_value());
  EXPECT_NEAR(got->objective, want->objective, 1e-9 * want->objective);
}

// A two-region clique: sites 0-3 are region A, 4-7 region B. In-region
// links are fast and near; cross-region links are slow and far, so the
// optimal placement of an A-local stage never leaves region A -- the
// separable instance where a region-pinned solve must equal the global one.
class TwoRegionView final : public physical::NetworkView {
 public:
  [[nodiscard]] std::size_t num_sites() const override { return 8; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    if (from == to) return 1e6;
    return same_region(from, to) ? 200.0 : 25.0;
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    if (from == to) return 0.1;
    return same_region(from, to) ? 5.0 : 200.0;
  }
  [[nodiscard]] int available_slots(SiteId) const override { return 2; }

 private:
  static bool same_region(SiteId a, SiteId b) {
    return (a.value() < 4) == (b.value() < 4);
  }
};

TEST(ScaleSolverTest, RegionPinnedReplanMatchesGlobalOnSeparableInstance) {
  const TwoRegionView view;
  const physical::Scheduler scheduler;

  physical::StageContext ctx;
  ctx.parallelism = 4;
  ctx.upstream.push_back({SiteId(0), 5'000.0, 200.0});
  ctx.downstream.push_back({SiteId(1), 5'000.0, 100.0});

  const auto global = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(global.has_value());
  // Sanity: the global optimum is A-local, so pinning B is not a restriction.
  for (int s = 4; s < 8; ++s) EXPECT_EQ(global->placement.per_site[s], 0);

  // The decomposed re-plan (adapt::AdaptationPolicy, DESIGN.md §14) pins
  // out-of-region sites to their current task count -- zero here.
  physical::StageContext pinned = ctx;
  pinned.min_per_site.assign(view.num_sites(), 0);
  pinned.max_per_site.assign(view.num_sites(), -1);
  for (int s = 4; s < 8; ++s) pinned.max_per_site[s] = 0;
  const auto regional = scheduler.place_stage(pinned, view);
  ASSERT_TRUE(regional.has_value());
  EXPECT_EQ(regional->objective, global->objective);
  EXPECT_EQ(regional->placement, global->placement);
}

// ---------------------------------------------------------------------------
// Max-flow migration planner on many-pair instances
// ---------------------------------------------------------------------------

class MigrationView final : public physical::NetworkView {
 public:
  explicit MigrationView(std::size_t n, double default_mbps = 100.0)
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

TEST(MigrationFlowTest, UniformInstanceHitsAnalyticOptimum) {
  // 8 sources x 8 destinations = 64 pairs. With uniform links the optimal
  // makespan is the per-endpoint aggregate bound S / (nd * r).
  const std::size_t ns = 8, nd = 8;
  MigrationView view(ns + nd, 100.0);
  std::vector<state::StateSource> sources;
  std::vector<state::StateDestination> dests;
  for (std::size_t i = 0; i < ns; ++i) {
    sources.push_back({SiteId(static_cast<std::int64_t>(i)), 10.0});
  }
  for (std::size_t j = 0; j < nd; ++j) {
    dests.push_back({SiteId(static_cast<std::int64_t>(ns + j)), 10.0});
  }

  state::MigrationPlanner planner(state::MigrationStrategy::kNetworkAware,
                                  Rng(1));
  const auto plan = planner.plan(sources, dests, view);

  const double r = mbps_to_mb_per_sec(100.0);
  const double optimum = 10.0 / (static_cast<double>(nd) * r);
  EXPECT_NEAR(plan.estimated_transition_sec, optimum, optimum * 1e-6);

  // Fluid balance: every source fully drained, every share delivered.
  std::vector<double> out_mb(ns + nd, 0.0), in_mb(ns + nd, 0.0);
  for (const auto& move : plan.moves) {
    out_mb[static_cast<std::size_t>(move.from.value())] += move.size_mb;
    in_mb[static_cast<std::size_t>(move.to.value())] += move.size_mb;
    EXPECT_GT(move.size_mb, 0.0);
  }
  for (std::size_t i = 0; i < ns; ++i) EXPECT_NEAR(out_mb[i], 10.0, 1e-6);
  for (std::size_t j = 0; j < nd; ++j) EXPECT_NEAR(in_mb[ns + j], 10.0, 1e-6);
}

TEST(MigrationFlowTest, SlowDestinationSetsTheMakespan) {
  // One destination column is 10x slower; its aggregate-inflow bound
  // (10 MB over 8 x 1.25 MB/s) dominates and is achievable, so the
  // bottleneck search must land exactly on it.
  const std::size_t ns = 8, nd = 8;
  MigrationView view(ns + nd, 100.0);
  const SiteId slow(static_cast<std::int64_t>(ns));
  for (std::size_t i = 0; i < ns; ++i) {
    view.set_bandwidth(SiteId(static_cast<std::int64_t>(i)), slow, 10.0);
  }
  std::vector<state::StateSource> sources;
  std::vector<state::StateDestination> dests;
  for (std::size_t i = 0; i < ns; ++i) {
    sources.push_back({SiteId(static_cast<std::int64_t>(i)), 10.0});
  }
  for (std::size_t j = 0; j < nd; ++j) {
    dests.push_back({SiteId(static_cast<std::int64_t>(ns + j)), 10.0});
  }

  state::MigrationPlanner planner(state::MigrationStrategy::kNetworkAware,
                                  Rng(1));
  const auto plan = planner.plan(sources, dests, view);
  const double optimum =
      10.0 / (static_cast<double>(ns) * mbps_to_mb_per_sec(10.0));
  EXPECT_NEAR(plan.estimated_transition_sec, optimum, optimum * 1e-6);

  double total = 0.0;
  for (const auto& move : plan.moves) total += move.size_mb;
  EXPECT_NEAR(total, 80.0, 1e-6);
}

}  // namespace
}  // namespace wasp
