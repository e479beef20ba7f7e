// Cross-module property tests: randomized sweeps checking system invariants
// that unit tests on hand-picked inputs cannot cover.
//
//  - engine conservation: generated = admitted + source backlog (+ drops),
//    under random pipelines, rates, and bandwidths;
//  - LP/ILP consistency: the integer optimum never beats the relaxation;
//  - policy safety: every decided action fits the slot budget, keeps
//    parallelism positive, and its migration moves exactly the state the
//    placement diff implies;
//  - delay tracker sanity under random workloads;
//  - forward-partitioning fallback: no events are lost when a forward edge
//    has no co-located receiver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "adapt/monitor.h"
#include "adapt/policy.h"
#include "common/rng.h"
#include "engine/delay_tracker.h"
#include "engine/engine.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "oracle/branch_and_bound.h"
#include "oracle/simplex.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"
#include "state/migration.h"

namespace wasp {
namespace {

using physical::PhysicalPlan;
using physical::StagePlacement;
using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;

// ---------------------------------------------------------------------------
// Engine conservation under random pipelines
// ---------------------------------------------------------------------------

struct RandomPipeline {
  net::Network network;
  LogicalPlan plan;
  PhysicalPlan physical;
  std::vector<OperatorId> sources;
  std::unique_ptr<engine::Engine> engine;
};

RandomPipeline make_random_pipeline(Rng& rng, bool degrade) {
  const int n_sites = static_cast<int>(rng.uniform_int(3, 6));
  const double bandwidth = rng.uniform(5.0, 200.0);
  RandomPipeline p{
      net::Network(net::Topology::make_uniform(n_sites, 4, bandwidth, 10.0),
                   std::make_shared<net::ConstantBandwidth>()),
      {}, {}, {}, nullptr};

  // Linear pipeline: source -> 1..3 intermediate ops -> sink, with random
  // selectivities and capacities.
  LogicalOperator src;
  src.name = "src";
  src.kind = OperatorKind::kSource;
  src.output_event_bytes = rng.uniform(50.0, 200.0);
  src.events_per_sec_per_slot = 1e6;
  src.pinned_sites = {SiteId(0)};
  const OperatorId src_id = p.plan.add_operator(std::move(src));
  p.sources.push_back(src_id);

  OperatorId prev = src_id;
  const int mids = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < mids; ++i) {
    LogicalOperator mid;
    mid.name = "mid" + std::to_string(i);
    mid.kind = OperatorKind::kMap;
    mid.selectivity = rng.uniform(0.2, 1.0);
    mid.output_event_bytes = rng.uniform(50.0, 200.0);
    mid.events_per_sec_per_slot = rng.uniform(3'000.0, 40'000.0);
    const OperatorId id = p.plan.add_operator(std::move(mid));
    p.plan.connect(prev, id);
    prev = id;
  }
  LogicalOperator sink;
  sink.name = "sink";
  sink.kind = OperatorKind::kSink;
  sink.events_per_sec_per_slot = 1e6;
  sink.pinned_sites = {SiteId(static_cast<std::int64_t>(n_sites - 1))};
  const OperatorId sink_id = p.plan.add_operator(std::move(sink));
  p.plan.connect(prev, sink_id);

  // Placement: each op on a random site, one task.
  for (OperatorId id : p.plan.topological_order()) {
    const auto& op = p.plan.op(id);
    StagePlacement placement;
    placement.per_site.assign(static_cast<std::size_t>(n_sites), 0);
    if (!op.pinned_sites.empty()) {
      for (SiteId s : op.pinned_sites) {
        ++placement.per_site[static_cast<std::size_t>(s.value())];
      }
    } else {
      placement.per_site[static_cast<std::size_t>(
          rng.uniform_int(0, n_sites - 1))] = 1;
    }
    p.physical.add_stage(id, placement);
  }

  engine::EngineConfig config;
  config.degrade = degrade;
  p.engine = std::make_unique<engine::Engine>(p.plan, p.physical, p.network,
                                              config);
  return p;
}

class EngineConservationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineConservationProperty, GeneratedEqualsAdmittedPlusBacklog) {
  Rng rng(GetParam());
  const bool degrade = rng.uniform() < 0.3;
  RandomPipeline p = make_random_pipeline(rng, degrade);

  double generated = 0.0, admitted = 0.0, dropped = 0.0;
  double t = 0.0;
  const double rate = rng.uniform(1'000.0, 30'000.0);
  for (int tick = 0; tick < 120; ++tick) {
    t += 1.0;
    // Rate changes midway to shake the queues.
    p.engine->set_source_rate(p.sources[0], SiteId(0),
                              tick < 60 ? rate : rate * rng.uniform(0.3, 2.0));
    p.network.step(t, 1.0);
    p.engine->tick(t);
    const auto& m = p.engine->last_tick();
    generated += m.generated_eps;
    admitted += m.admitted_eps;
    dropped += m.dropped_eps;
    // Per-tick sanity.
    EXPECT_GE(m.processing_ratio, 0.0);
    EXPECT_GE(m.delay_sec, 0.0);
    EXPECT_GE(m.dropped_eps, 0.0);
  }
  // Conservation at the sources: everything generated was either admitted,
  // dropped (degrade), or still queued.
  EXPECT_NEAR(generated,
              admitted + dropped + p.engine->source_backlog_events(),
              std::max(1.0, 1e-6 * generated));
  if (!degrade) EXPECT_DOUBLE_EQ(dropped, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, EngineConservationProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

class EngineDeterminismProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDeterminismProperty, IdenticalSeedsIdenticalRuns) {
  auto run = [&] {
    Rng rng(GetParam());
    RandomPipeline p = make_random_pipeline(rng, false);
    double t = 0.0;
    double checksum = 0.0;
    for (int tick = 0; tick < 60; ++tick) {
      t += 1.0;
      p.engine->set_source_rate(p.sources[0], SiteId(0), 10'000.0);
      p.network.step(t, 1.0);
      p.engine->tick(t);
      checksum += p.engine->last_tick().delay_sec +
                  p.engine->last_tick().sink_eps;
    }
    return checksum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(RandomPipelines, EngineDeterminismProperty,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// LP relaxation bounds the ILP
// ---------------------------------------------------------------------------

class RelaxationBoundProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelaxationBoundProperty, IntegerOptimumNeverBeatsRelaxation) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.uniform_int(2, 5));
  lp::Problem p(rng.uniform() < 0.5 ? lp::Sense::kMinimize
                                    : lp::Sense::kMaximize);
  for (int i = 0; i < n; ++i) {
    p.add_variable(rng.uniform(-3.0, 3.0), 0.0, rng.uniform(1.0, 6.0));
  }
  const int rows = static_cast<int>(rng.uniform_int(1, 4));
  for (int r = 0; r < rows; ++r) {
    std::vector<double> coeffs(static_cast<std::size_t>(n));
    for (auto& c : coeffs) c = rng.uniform(0.0, 2.0);
    p.add_dense_constraint(coeffs, lp::RowType::kLe, rng.uniform(1.0, 8.0));
  }
  const lp::Solution relax = lp::solve(p);
  const ilp::IlpResult integer = ilp::solve_all_integer(p);
  if (!relax.optimal() || !integer.optimal()) return;
  if (p.sense() == lp::Sense::kMinimize) {
    EXPECT_GE(integer.objective, relax.objective - 1e-6);
  } else {
    EXPECT_LE(integer.objective, relax.objective + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomProblems, RelaxationBoundProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// DelayTracker under random workloads
// ---------------------------------------------------------------------------

class DelayTrackerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DelayTrackerProperty, DelayIsNonNegativeAndBoundedByAge) {
  Rng rng(GetParam());
  engine::DelayTracker tracker;
  double t = 0.0;
  for (int tick = 0; tick < 200; ++tick) {
    t += 1.0;
    tracker.record_generated(t, rng.uniform(0.0, 1'000.0));
    tracker.record_consumed(rng.uniform(0.0, 1'200.0));
    const double d = tracker.queueing_delay(t);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, t + 1e-9);
    EXPECT_GE(tracker.backlog(), -1e-9);
    EXPECT_LE(tracker.consumed_cum(), tracker.generated_cum() + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, DelayTrackerProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Forward partitioning falls back to hash without losing events
// ---------------------------------------------------------------------------

TEST(ForwardPartitioningTest, FallsBackToHashWhenNotColocated) {
  net::Network network(net::Topology::make_uniform(3, 2, 1000.0, 10.0),
                       std::make_shared<net::ConstantBandwidth>());
  LogicalPlan plan;
  LogicalOperator src;
  src.name = "src";
  src.kind = OperatorKind::kSource;
  src.events_per_sec_per_slot = 1e6;
  src.output_partitioning = query::Partitioning::kForward;
  src.pinned_sites = {SiteId(0)};
  const OperatorId src_id = plan.add_operator(std::move(src));
  LogicalOperator map;
  map.name = "map";
  map.kind = OperatorKind::kMap;
  map.events_per_sec_per_slot = 1e6;
  const OperatorId map_id = plan.add_operator(std::move(map));
  LogicalOperator sink;
  sink.name = "sink";
  sink.kind = OperatorKind::kSink;
  sink.events_per_sec_per_slot = 1e6;
  sink.pinned_sites = {SiteId(2)};
  const OperatorId sink_id = plan.add_operator(std::move(sink));
  plan.connect(src_id, map_id);
  plan.connect(map_id, sink_id);

  PhysicalPlan physical;
  physical.add_stage(src_id, StagePlacement{.per_site = {1, 0, 0}});
  // The map has NO task at the source's site: forward must fall back to
  // hash routing over the WAN.
  physical.add_stage(map_id, StagePlacement{.per_site = {0, 1, 0}});
  physical.add_stage(sink_id, StagePlacement{.per_site = {0, 0, 1}});

  engine::Engine eng(plan, physical, network, engine::EngineConfig{});
  double t = 0.0;
  for (int tick = 0; tick < 30; ++tick) {
    t += 1.0;
    eng.set_source_rate(src_id, SiteId(0), 5'000.0);
    network.step(t, 1.0);
    eng.tick(t);
  }
  EXPECT_NEAR(eng.last_tick().sink_eps, 5'000.0, 200.0);
  EXPECT_NEAR(eng.last_tick().processing_ratio, 1.0, 0.02);
}

// ---------------------------------------------------------------------------
// Aggregation pushdown end-to-end: the pushed plan delivers the same sink
// throughput as the original when both run in the engine.
// ---------------------------------------------------------------------------

TEST(AggregationPushdownIntegrationTest, PushedPlanMatchesSinkThroughput) {
  auto build = [](bool pushed) {
    LogicalPlan plan;
    LogicalOperator a;
    a.name = "a";
    a.kind = OperatorKind::kSource;
    a.events_per_sec_per_slot = 1e6;
    a.pinned_sites = {SiteId(0)};
    const OperatorId aid = plan.add_operator(std::move(a));
    LogicalOperator b = plan.op(aid);
    b.name = "b";
    b.pinned_sites = {SiteId(1)};
    const OperatorId bid = plan.add_operator(std::move(b));
    LogicalOperator u;
    u.name = "u";
    u.kind = OperatorKind::kUnion;
    u.events_per_sec_per_slot = 1e6;
    const OperatorId uid = plan.add_operator(std::move(u));
    LogicalOperator w;
    w.name = "agg";
    w.kind = OperatorKind::kWindowAggregate;
    w.selectivity = 0.02;
    w.events_per_sec_per_slot = 1e6;
    w.window = query::WindowSpec{10.0};
    w.state = query::StateSpec::windowed(1.0, 0.01);
    const OperatorId wid = plan.add_operator(std::move(w));
    LogicalOperator k;
    k.name = "sink";
    k.kind = OperatorKind::kSink;
    k.events_per_sec_per_slot = 1e6;
    k.pinned_sites = {SiteId(2)};
    const OperatorId kid = plan.add_operator(std::move(k));
    plan.connect(aid, uid);
    plan.connect(bid, uid);
    plan.connect(uid, wid);
    plan.connect(wid, kid);
    if (!pushed) return plan;
    auto rewritten = query::QueryPlanner::push_down_aggregation(plan);
    EXPECT_TRUE(rewritten.has_value());
    return *rewritten;
  };

  auto run = [](const LogicalPlan& plan) {
    net::Network network(net::Topology::make_uniform(3, 4, 1000.0, 10.0),
                         std::make_shared<net::ConstantBandwidth>());
    PhysicalPlan physical;
    Rng rng(5);
    for (OperatorId id : plan.topological_order()) {
      const auto& op = plan.op(id);
      StagePlacement placement;
      placement.per_site.assign(3, 0);
      if (!op.pinned_sites.empty()) {
        for (SiteId s : op.pinned_sites) {
          ++placement.per_site[static_cast<std::size_t>(s.value())];
        }
      } else {
        placement.per_site[1] = 1;
      }
      physical.add_stage(id, placement);
    }
    engine::Engine eng(plan, physical, network, engine::EngineConfig{});
    double t = 0.0;
    double sink_sum = 0.0;
    for (int tick = 0; tick < 120; ++tick) {
      t += 1.0;
      for (OperatorId src : plan.sources()) {
        eng.set_source_rate(src, plan.op(src).pinned_sites[0], 8'000.0);
      }
      network.step(t, 1.0);
      eng.tick(t);
      if (tick >= 60) sink_sum += eng.last_tick().sink_eps;
    }
    return sink_sum / 60.0;
  };

  const double original = run(build(false));
  const double pushed = run(build(true));
  EXPECT_GT(original, 100.0);
  EXPECT_NEAR(pushed, original, 0.05 * original);
}

}  // namespace
}  // namespace wasp
