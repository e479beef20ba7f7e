// Unit and property tests for the physical layer: placements, the WAN-aware
// placement ILP (paper Eq. 1-5), and whole-plan placement.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "physical/physical_plan.h"
#include "physical/placement.h"
#include "physical/scheduler.h"
#include "query/logical_plan.h"

namespace wasp::physical {
namespace {

// A deterministic in-memory network view for tests.
class FakeView final : public NetworkView {
 public:
  FakeView(std::size_t n, double bandwidth, double latency, int slots)
      : n_(n),
        bandwidth_(n * n, bandwidth),
        latency_(n * n, latency),
        slots_(n, slots) {}

  void set_bandwidth(SiteId from, SiteId to, double mbps) {
    bandwidth_[index(from, to)] = mbps;
  }
  void set_latency(SiteId from, SiteId to, double ms) {
    latency_[index(from, to)] = ms;
  }
  void set_slots(SiteId site, int slots) {
    slots_[static_cast<std::size_t>(site.value())] = slots;
  }

  [[nodiscard]] std::size_t num_sites() const override { return n_; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    if (from == to) return 1e6;
    return bandwidth_[index(from, to)];
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    if (from == to) return 0.1;
    return latency_[index(from, to)];
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return slots_[static_cast<std::size_t>(site.value())];
  }

 private:
  [[nodiscard]] std::size_t index(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from.value()) * n_ +
           static_cast<std::size_t>(to.value());
  }
  std::size_t n_;
  std::vector<double> bandwidth_;
  std::vector<double> latency_;
  std::vector<int> slots_;
};

TEST(PlacementTest, ParallelismAndSites) {
  StagePlacement p{.per_site = {2, 0, 1}};
  EXPECT_EQ(p.parallelism(), 3);
  ASSERT_EQ(p.sites().size(), 2u);
  EXPECT_EQ(p.sites()[0], SiteId(0));
  EXPECT_EQ(p.sites()[1], SiteId(2));
  EXPECT_EQ(p.expand().size(), 3u);
  EXPECT_EQ(p.at(SiteId(0)), 2);
}

TEST(PlacementTest, DiffIdentifiesDrainAndFill) {
  StagePlacement from{.per_site = {2, 1, 0, 0}};
  StagePlacement to{.per_site = {0, 1, 2, 1}};
  const PlacementDiff diff = diff_placements(from, to);
  ASSERT_EQ(diff.drain.size(), 1u);
  EXPECT_EQ(diff.drain[0].first, SiteId(0));
  EXPECT_EQ(diff.drain[0].second, 2);
  ASSERT_EQ(diff.fill.size(), 2u);
  EXPECT_EQ(diff.fill[0].first, SiteId(2));
  EXPECT_EQ(diff.fill[0].second, 2);
  EXPECT_EQ(diff.fill[1].first, SiteId(3));
  EXPECT_EQ(diff.fill[1].second, 1);
}

TEST(SchedulerTest, PinnedStageBypassesIlp) {
  FakeView view(4, 100.0, 10.0, 4);
  Scheduler scheduler;
  StageContext ctx;
  ctx.pinned_sites = {SiteId(1), SiteId(3), SiteId(3)};
  const auto outcome = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->placement.at(SiteId(1)), 1);
  EXPECT_EQ(outcome->placement.at(SiteId(3)), 2);
}

TEST(SchedulerTest, PlacesNearUpstreamToMinimizeLatency) {
  FakeView view(3, 1000.0, 100.0, 4);
  // Site 1 is close to the upstream at site 0; site 2 is far.
  view.set_latency(SiteId(0), SiteId(1), 5.0);
  view.set_latency(SiteId(0), SiteId(2), 200.0);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 1;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  const auto outcome = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(outcome.has_value());
  // Co-location at site 0 is even better than site 1 (local latency ~0).
  EXPECT_EQ(outcome->placement.at(SiteId(0)), 1);
}

TEST(SchedulerTest, BandwidthConstraintExcludesWeakSites) {
  FakeView view(3, 1000.0, 10.0, 4);
  view.set_slots(SiteId(0), 0);  // upstream site is full
  // 10k ev/s of 125 B = 10 Mbps. Site 1's inbound link is too weak even
  // with alpha = 0.8; site 2's is fine.
  view.set_bandwidth(SiteId(0), SiteId(1), 11.0);  // 0.8*11 = 8.8 < 10
  view.set_bandwidth(SiteId(0), SiteId(2), 50.0);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 1;
  ctx.upstream = {{SiteId(0), 10'000.0, 125.0}};
  const auto outcome = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->placement.at(SiteId(2)), 1);
}

TEST(SchedulerTest, AlphaHeadroomIsRespected) {
  FakeView view(2, 1000.0, 10.0, 4);
  view.set_slots(SiteId(0), 0);
  // Demand exactly 10 Mbps; link 12 Mbps. alpha=0.8 -> limit 9.6 < 10:
  // infeasible. alpha=0.9 -> limit 10.8: feasible.
  view.set_bandwidth(SiteId(0), SiteId(1), 12.0);
  StageContext ctx;
  ctx.parallelism = 1;
  ctx.upstream = {{SiteId(0), 10'000.0, 125.0}};
  EXPECT_FALSE(
      Scheduler(Scheduler::Config{.alpha = 0.8}).place_stage(ctx, view));
  EXPECT_TRUE(
      Scheduler(Scheduler::Config{.alpha = 0.9}).place_stage(ctx, view));
}

TEST(SchedulerTest, SlotConstraintLimitsPlacement) {
  FakeView view(2, 1000.0, 10.0, 1);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 3;  // only 2 slots exist in total
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
  view.set_slots(SiteId(1), 2);
  EXPECT_TRUE(scheduler.place_stage(ctx, view).has_value());
}

TEST(SchedulerTest, ExtraSlotsEnableReassignment) {
  FakeView view(2, 1000.0, 10.0, 0);  // no free slots anywhere
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 1;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
  // The stage's own slot at site 1 is released by the re-assignment.
  EXPECT_TRUE(scheduler.place_stage(ctx, view, {0, 1}).has_value());
}

TEST(SchedulerTest, OverCommittedSiteOffersZeroSlots) {
  // Site 0 is over-committed (-1 free slots, e.g. a pinned sink reserved on
  // a full site); sites 1 and 2 have room. Site 0 must offer nothing, not
  // make the whole stage infeasible.
  FakeView view(3, 1000.0, 10.0, 2);
  view.set_slots(SiteId(0), -1);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 3;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  const auto outcome = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->placement.at(SiteId(0)), 0);
  EXPECT_EQ(outcome->placement.parallelism(), 3);
  // A floor at the over-committed site still cannot be met.
  ctx.min_per_site = {1, 0, 0};
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
}

TEST(SchedulerTest, ScaleUpCountsOwnVacatedSlots) {
  // Slot-tight cluster: one free slot at site 0, nothing else. The stage
  // currently runs one task each at sites 1 and 2; scaling to p = 3 only
  // fits if the p-sweep counts the stage's own soon-to-be-vacated slots at
  // every candidate parallelism.
  FakeView view(3, 1000.0, 10.0, 0);
  view.set_slots(SiteId(0), 1);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 2;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  const std::vector<int> own_slots{0, 1, 1};  // current placement
  EXPECT_FALSE(
      scheduler.place_with_min_parallelism(ctx, view, 3, 4).has_value());
  const auto outcome =
      scheduler.place_with_min_parallelism(ctx, view, 3, 4, own_slots);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->placement.parallelism(), 3);
}

TEST(SchedulerTest, MinPerSitePinsExistingTasks) {
  FakeView view(3, 1000.0, 10.0, 4);
  view.set_latency(SiteId(0), SiteId(2), 1.0);  // site 2 is attractive
  view.set_latency(SiteId(0), SiteId(1), 50.0);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 2;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  ctx.min_per_site = {0, 1, 0};  // existing task at site 1 must stay
  const auto outcome = scheduler.place_stage(ctx, view);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_GE(outcome->placement.at(SiteId(1)), 1);
  EXPECT_EQ(outcome->placement.parallelism(), 2);
}

TEST(SchedulerTest, InfeasibleMinPerSiteReturnsNullopt) {
  FakeView view(2, 1000.0, 10.0, 0);
  Scheduler scheduler;
  StageContext ctx;
  ctx.parallelism = 2;
  ctx.min_per_site = {2, 0};  // wants 2 slots at a site with none
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
}

TEST(SchedulerTest, ScaleOutSpreadsLoadOverLinks) {
  // One site cannot take the full stream (inbound cap), but two can each
  // take half.
  FakeView view(3, 1000.0, 10.0, 1);
  view.set_slots(SiteId(0), 0);
  view.set_bandwidth(SiteId(0), SiteId(1), 8.0);   // 0.8*8 = 6.4 Mbps
  view.set_bandwidth(SiteId(0), SiteId(2), 8.0);
  StageContext ctx;
  ctx.parallelism = 1;
  // 10 Mbps total demand: too much for either link alone, fine split in two.
  ctx.upstream = {{SiteId(0), 10'000.0, 125.0}};
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
  const auto outcome = scheduler.place_with_min_parallelism(ctx, view, 2, 4);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->placement.parallelism(), 2);
  EXPECT_EQ(outcome->placement.at(SiteId(1)), 1);
  EXPECT_EQ(outcome->placement.at(SiteId(2)), 1);
}

TEST(SchedulerTest, DownstreamTrafficShapesPlacement) {
  FakeView view(3, 1000.0, 10.0, 4);
  view.set_slots(SiteId(0), 0);
  view.set_slots(SiteId(2), 0);
  // Outbound constraint: stage emits 10 Mbps to the sink at site 2; site 1's
  // outbound link to it is too weak -> infeasible even though inbound fits.
  view.set_bandwidth(SiteId(1), SiteId(2), 5.0);
  StageContext ctx;
  ctx.parallelism = 1;
  ctx.upstream = {{SiteId(0), 1000.0, 100.0}};
  ctx.downstream = {{SiteId(2), 10'000.0, 125.0}};
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.place_stage(ctx, view).has_value());
  view.set_bandwidth(SiteId(1), SiteId(2), 50.0);
  EXPECT_TRUE(scheduler.place_stage(ctx, view).has_value());
}

// --- whole-plan placement ---------------------------------------------------

query::LogicalPlan simple_pipeline(SiteId src_site, SiteId sink_site) {
  query::LogicalPlan plan;
  query::LogicalOperator src;
  src.name = "src";
  src.kind = query::OperatorKind::kSource;
  src.output_event_bytes = 125.0;
  src.pinned_sites = {src_site};
  const OperatorId s = plan.add_operator(std::move(src));
  query::LogicalOperator map;
  map.name = "map";
  map.kind = query::OperatorKind::kMap;
  map.output_event_bytes = 125.0;
  const OperatorId m = plan.add_operator(std::move(map));
  query::LogicalOperator sink;
  sink.name = "sink";
  sink.kind = query::OperatorKind::kSink;
  sink.pinned_sites = {sink_site};
  const OperatorId k = plan.add_operator(std::move(sink));
  plan.connect(s, m);
  plan.connect(m, k);
  return plan;
}

TEST(PlacePlanTest, PlacesAllStagesAndDeductsSlots) {
  FakeView view(3, 1000.0, 10.0, 1);
  Scheduler scheduler;
  const auto plan = simple_pipeline(SiteId(0), SiteId(2));
  const auto rates = plan.estimate_rates({{plan.sources()[0], 1000.0}});
  const auto placed = place_plan(plan, rates, {}, view, scheduler);
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->plan.num_stages(), 3u);
  EXPECT_EQ(placed->plan.total_tasks(), 3);
  // Each slot-consuming stage (sources are external-stream adapters and
  // take none) must fit within the per-site slot limits.
  std::vector<int> used(3, 0);
  for (const auto& stage : placed->plan.stages()) {
    if (plan.op(stage.op).is_source()) continue;
    for (std::size_t s = 0; s < 3; ++s) {
      used[s] += stage.placement.per_site[s];
    }
  }
  for (int u : used) EXPECT_LE(u, 1);
}

TEST(PlacePlanTest, WanEstimateCountsCrossSiteTraffic) {
  FakeView view(2, 1000.0, 10.0, 4);
  Scheduler scheduler;
  const auto plan = simple_pipeline(SiteId(0), SiteId(1));
  const auto rates = plan.estimate_rates({{plan.sources()[0], 10'000.0}});
  const auto placed = place_plan(plan, rates, {}, view, scheduler);
  ASSERT_TRUE(placed.has_value());
  // src->map or map->sink must cross 0 -> 1 at least once: 10 Mbps.
  EXPECT_GE(placed->wan_mbps, 10.0 - 1e-6);
}

TEST(PlacePlanTest, FallbackScalesInfeasibleStage) {
  FakeView view(3, 1000.0, 10.0, 1);
  view.set_slots(SiteId(0), 1);  // source takes it
  view.set_slots(SiteId(2), 2);  // sink takes one; one left for the map
  // Both candidate sites too weak for the full stream; need p=2.
  view.set_bandwidth(SiteId(0), SiteId(1), 8.0);
  view.set_bandwidth(SiteId(0), SiteId(2), 8.0);
  Scheduler scheduler;
  const auto plan = simple_pipeline(SiteId(0), SiteId(2));
  const auto rates = plan.estimate_rates({{plan.sources()[0], 10'000.0}});
  EXPECT_FALSE(place_plan(plan, rates, {}, view, scheduler).has_value());
  const auto placed =
      place_plan(plan, rates, {}, view, scheduler, /*fallback=*/3);
  ASSERT_TRUE(placed.has_value());
  const auto& map_stage = placed->plan.stage(StageId(1));
  EXPECT_GE(map_stage.parallelism(), 2);
}

TEST(PlacePlanTest, BandwidthIsDeductedAcrossStages) {
  // Two parallel maps consume the same source; the link out of site 0 can
  // carry one stream within the α headroom but not two. The second map must
  // therefore land elsewhere (or the plan must fail) -- never both maps
  // stacking their streams on the link the first already claimed.
  FakeView view(3, 1000.0, 10.0, 4);
  // Source site 0; 10 Mbps per stream; link 0->1 fits one stream at α=0.8
  // (needs 12.5), link 0->2 likewise.
  view.set_bandwidth(SiteId(0), SiteId(1), 15.0);
  view.set_bandwidth(SiteId(0), SiteId(2), 15.0);
  view.set_latency(SiteId(0), SiteId(1), 5.0);    // site 1 cheaper
  view.set_latency(SiteId(0), SiteId(2), 100.0);  // site 2 pricier
  view.set_slots(SiteId(0), 1);  // the sink takes it: no co-location escape

  query::LogicalPlan plan;
  query::LogicalOperator src;
  src.name = "src";
  src.kind = query::OperatorKind::kSource;
  src.output_event_bytes = 125.0;
  src.pinned_sites = {SiteId(0)};
  const OperatorId s = plan.add_operator(std::move(src));
  OperatorId maps[2];
  for (int i = 0; i < 2; ++i) {
    query::LogicalOperator map;
    map.name = i == 0 ? "map-a" : "map-b";
    map.kind = query::OperatorKind::kMap;
    map.output_event_bytes = 1.0;  // negligible outbound
    const OperatorId m = plan.add_operator(std::move(map));
    maps[i] = m;
    plan.connect(s, m);
  }
  query::LogicalOperator sink;
  sink.name = "sink";
  sink.kind = query::OperatorKind::kSink;
  sink.pinned_sites = {SiteId(0)};
  const OperatorId k = plan.add_operator(std::move(sink));
  plan.connect(maps[0], k);
  plan.connect(maps[1], k);

  const auto rates = plan.estimate_rates({{s, 10'000.0}});  // 10 Mbps/edge
  Scheduler scheduler;
  const auto placed = place_plan(plan, rates, {}, view, scheduler);
  ASSERT_TRUE(placed.has_value());
  const SiteId site_a = placed->plan.stage_for(maps[0]).placement.sites().at(0);
  const SiteId site_b = placed->plan.stage_for(maps[1]).placement.sites().at(0);
  // Without cross-stage bandwidth deduction both maps would pick cheap
  // site 1 and overload 0->1 (20 Mbps demand on a 15 Mbps link).
  EXPECT_NE(site_a, site_b);
}

// Property: the ILP solution always satisfies Eq. 2-5 exactly.
class SchedulerFeasibilityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFeasibilityProperty, SolutionsSatisfyAllConstraints) {
  Rng rng(GetParam());
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 6));
  FakeView view(n, 0.0, 0.0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    view.set_slots(SiteId(static_cast<std::int64_t>(i)),
                   static_cast<int>(rng.uniform_int(0, 4)));
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      view.set_bandwidth(SiteId(static_cast<std::int64_t>(i)),
                         SiteId(static_cast<std::int64_t>(j)),
                         rng.uniform(1.0, 100.0));
      view.set_latency(SiteId(static_cast<std::int64_t>(i)),
                       SiteId(static_cast<std::int64_t>(j)),
                       rng.uniform(5.0, 300.0));
    }
  }
  StageContext ctx;
  ctx.parallelism = static_cast<int>(rng.uniform_int(1, 4));
  const int ups = static_cast<int>(rng.uniform_int(1, 3));
  for (int u = 0; u < ups; ++u) {
    ctx.upstream.push_back(TrafficEndpoint{
        SiteId(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
        rng.uniform(100.0, 20'000.0), rng.uniform(50.0, 200.0)});
  }
  const double alpha = 0.8;
  Scheduler scheduler(Scheduler::Config{.alpha = alpha});
  const auto outcome = scheduler.place_stage(ctx, view);
  if (!outcome.has_value()) return;  // infeasible instances are fine

  const StagePlacement& p = outcome->placement;
  EXPECT_EQ(p.parallelism(), ctx.parallelism);  // Eq. 5
  for (std::size_t s = 0; s < n; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    EXPECT_GE(p.per_site[s], 0);                          // Eq. 4
    EXPECT_LE(p.per_site[s], view.available_slots(site));  // Eq. 4
    if (p.per_site[s] == 0) continue;
    const double share =
        static_cast<double>(p.per_site[s]) / ctx.parallelism;
    for (const auto& u : ctx.upstream) {
      if (u.site == site) continue;
      EXPECT_LE(stream_mbps(u.events_per_sec * share, u.event_bytes),
                alpha * view.available_mbps(u.site, site) + 1e-6);  // Eq. 2
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStages, SchedulerFeasibilityProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace wasp::physical
