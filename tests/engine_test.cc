// Unit tests for the fluid stream-engine simulator: delay tracking,
// throughput, backpressure propagation, degrade mode, windows and state,
// placement changes, re-planning, suspension, and failures.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "engine/delay_tracker.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/metrics_registry.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"

namespace wasp::engine {
namespace {

using physical::PhysicalPlan;
using physical::StagePlacement;
using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;

// ---------------------------------------------------------------------------
// DelayTracker
// ---------------------------------------------------------------------------

TEST(DelayTrackerTest, NoBacklogMeansZeroDelay) {
  DelayTracker t;
  t.record_generated(1.0, 100.0);
  t.record_consumed(100.0);
  EXPECT_DOUBLE_EQ(t.queueing_delay(1.0), 0.0);
  EXPECT_DOUBLE_EQ(t.backlog(), 0.0);
}

TEST(DelayTrackerTest, BacklogAgeGrowsWithTime) {
  DelayTracker t;
  t.record_generated(1.0, 100.0);  // generated during (0, 1]
  // Nothing consumed: the head of the backlog was generated at ~t=0.
  EXPECT_NEAR(t.queueing_delay(10.0), 10.0, 1.1);
}

TEST(DelayTrackerTest, ConsumptionAdvancesTheHead) {
  DelayTracker t;
  for (int i = 1; i <= 10; ++i) {
    t.record_generated(i, 100.0);
  }
  t.record_consumed(500.0);  // events generated through t=5 are done
  EXPECT_NEAR(t.queueing_delay(10.0), 5.0, 0.1);
}

TEST(DelayTrackerTest, InterpolatesWithinTick) {
  DelayTracker t;
  t.record_generated(1.0, 100.0);
  t.record_generated(2.0, 100.0);
  t.record_consumed(150.0);  // halfway through the second tick
  EXPECT_NEAR(t.generation_time(150.0, 2.0), 1.5, 1e-9);
}

TEST(DelayTrackerTest, ConsumedNeverExceedsGenerated) {
  DelayTracker t;
  t.record_generated(1.0, 100.0);
  t.record_consumed(1000.0);
  EXPECT_DOUBLE_EQ(t.consumed_cum(), 100.0);
  EXPECT_DOUBLE_EQ(t.queueing_delay(5.0), 0.0);
}

TEST(DelayTrackerTest, GeneratedAtInterpolates) {
  DelayTracker t;
  t.record_generated(1.0, 100.0);
  t.record_generated(2.0, 300.0);  // G(2) = 400
  EXPECT_NEAR(t.generated_at(1.5), 250.0, 1e-9);
  EXPECT_DOUBLE_EQ(t.generated_at(5.0), 400.0);
}

TEST(DelayTrackerTest, HistoryPruningKeepsInversionCorrect) {
  DelayTracker t;
  for (int i = 1; i <= 1000; ++i) {
    t.record_generated(i, 10.0);
    t.record_consumed(10.0);
  }
  EXPECT_DOUBLE_EQ(t.queueing_delay(1000.0), 0.0);
  t.record_generated(1001.0, 10.0);
  EXPECT_NEAR(t.queueing_delay(1003.0), 3.0, 1.1);
}

// ---------------------------------------------------------------------------
// Engine scenarios on tiny topologies
// ---------------------------------------------------------------------------

struct Fixture {
  // src (site 0) -> map (site 1) -> sink (site 2), one task each.
  static constexpr double kEventBytes = 125.0;

  Fixture(double bandwidth_mbps = 1000.0, double map_capacity = 50'000.0,
          EngineConfig config = {},
          std::shared_ptr<const net::BandwidthModel> model = nullptr)
      : network(net::Topology::make_uniform(3, 2, bandwidth_mbps, 10.0),
                model ? model : std::make_shared<net::ConstantBandwidth>()) {
    LogicalOperator src;
    src.name = "src";
    src.kind = OperatorKind::kSource;
    src.output_event_bytes = kEventBytes;
    src.events_per_sec_per_slot = 1e6;
    src.pinned_sites = {SiteId(0)};
    src_id = plan.add_operator(std::move(src));

    LogicalOperator map;
    map.name = "map";
    map.kind = OperatorKind::kMap;
    map.selectivity = 1.0;
    map.output_event_bytes = kEventBytes;
    map.events_per_sec_per_slot = map_capacity;
    map_id = plan.add_operator(std::move(map));

    LogicalOperator sink;
    sink.name = "sink";
    sink.kind = OperatorKind::kSink;
    sink.events_per_sec_per_slot = 1e6;
    sink.pinned_sites = {SiteId(2)};
    sink_id = plan.add_operator(std::move(sink));

    plan.connect(src_id, map_id);
    plan.connect(map_id, sink_id);

    physical.add_stage(src_id, StagePlacement{.per_site = {1, 0, 0}});
    physical.add_stage(map_id, StagePlacement{.per_site = {0, 1, 0}});
    physical.add_stage(sink_id, StagePlacement{.per_site = {0, 0, 1}});

    engine = std::make_unique<Engine>(plan, physical, network, config);
  }

  void run(double from, double to, double rate) {
    for (double t = from + 1.0; t <= to + 1e-9; t += 1.0) {
      engine->set_source_rate(src_id, SiteId(0), rate);
      network.step(t, 1.0);
      engine->tick(t);
    }
  }

  net::Network network;
  LogicalPlan plan;
  PhysicalPlan physical;
  OperatorId src_id, map_id, sink_id;
  std::unique_ptr<Engine> engine;
};

TEST(EngineTest, HealthyPipelineReachesSteadyState) {
  Fixture f;
  f.run(0.0, 30.0, 10'000.0);
  const auto& m = f.engine->last_tick();
  EXPECT_NEAR(m.processing_ratio, 1.0, 0.01);
  EXPECT_NEAR(m.sink_eps, 10'000.0, 200.0);
  EXPECT_LT(m.delay_sec, 1.0);  // two ~10 ms hops + no queueing
  EXPECT_LT(f.engine->source_backlog_events(), 1.0);
}

TEST(EngineTest, SelectivityScalesSinkThroughput) {
  Fixture f;
  f.plan.mutable_op(f.map_id).selectivity = 0.25;
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  f.run(0.0, 30.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 2'500.0, 100.0);
}

TEST(EngineTest, ComputeBottleneckThrottlesSources) {
  // Map can only process 5k ev/s but 10k arrive.
  Fixture f(1000.0, /*map_capacity=*/5'000.0);
  f.run(0.0, 60.0, 10'000.0);
  const auto& m = f.engine->last_tick();
  EXPECT_LT(m.processing_ratio, 0.7);
  EXPECT_GT(f.engine->source_backlog_events(), 10'000.0);
  EXPECT_GT(m.delay_sec, 5.0);
}

TEST(EngineTest, NetworkBottleneckThrottlesSources) {
  // 10k ev/s * 125 B = 10 Mbps demand on a 5 Mbps link.
  Fixture f(/*bandwidth=*/5.0);
  f.run(0.0, 60.0, 10'000.0);
  const auto& m = f.engine->last_tick();
  EXPECT_LT(m.processing_ratio, 0.7);
  EXPECT_GT(m.delay_sec, 5.0);
  // The map observes the deficit: arrivals well below the source rate.
  EXPECT_LT(f.engine->op_metrics(f.map_id).arrived_eps, 6'000.0);
}

TEST(EngineTest, BacklogDrainsAfterOverload) {
  Fixture f(1000.0, 15'000.0);
  f.run(0.0, 60.0, 20'000.0);   // overload
  EXPECT_GT(f.engine->source_backlog_events(), 0.0);
  f.run(60.0, 200.0, 5'000.0);  // recovery: ratio must exceed 1 while draining
  EXPECT_LT(f.engine->source_backlog_events(), 1.0);
  EXPECT_LT(f.engine->last_tick().delay_sec, 1.0);
}

TEST(EngineTest, ProcessingRatioAboveOneWhileDraining) {
  Fixture f(1000.0, 15'000.0);
  f.run(0.0, 60.0, 20'000.0);
  f.engine->set_source_rate(f.src_id, SiteId(0), 5'000.0);
  bool saw_ratio_above_one = false;
  for (double t = 61.0; t <= 120.0; t += 1.0) {
    f.network.step(t, 1.0);
    f.engine->tick(t);
    if (f.engine->last_tick().processing_ratio > 1.1) {
      saw_ratio_above_one = true;
    }
  }
  EXPECT_TRUE(saw_ratio_above_one);
}

TEST(EngineTest, DegradeHoldsDelayNearSloAndDropsEvents) {
  EngineConfig config;
  config.degrade = true;
  config.slo_sec = 10.0;
  Fixture f(1000.0, /*map_capacity=*/5'000.0, config);
  double dropped = 0.0;
  for (double t = 1.0; t <= 300.0; t += 1.0) {
    f.engine->set_source_rate(f.src_id, SiteId(0), 10'000.0);
    f.network.step(t, 1.0);
    f.engine->tick(t);
    dropped += f.engine->last_tick().dropped_eps;
  }
  EXPECT_GT(dropped, 10'000.0);
  // Delay bounded near the SLO rather than diverging to ~150 s.
  EXPECT_LT(f.engine->last_tick().delay_sec, 30.0);
}

TEST(EngineTest, NoDegradeModeNeverDrops) {
  Fixture f(1000.0, 5'000.0);
  double dropped = 0.0;
  for (double t = 1.0; t <= 100.0; t += 1.0) {
    f.engine->set_source_rate(f.src_id, SiteId(0), 10'000.0);
    f.network.step(t, 1.0);
    f.engine->tick(t);
    dropped += f.engine->last_tick().dropped_eps;
  }
  EXPECT_DOUBLE_EQ(dropped, 0.0);
}

TEST(EngineTest, EventConservationInSteadyState) {
  Fixture f;
  double generated = 0.0, admitted = 0.0;
  for (double t = 1.0; t <= 100.0; t += 1.0) {
    f.engine->set_source_rate(f.src_id, SiteId(0), 8'000.0);
    f.network.step(t, 1.0);
    f.engine->tick(t);
    generated += f.engine->last_tick().generated_eps;
    admitted += f.engine->last_tick().admitted_eps;
  }
  // generated = admitted + backlog (no drops configured).
  EXPECT_NEAR(generated, admitted + f.engine->source_backlog_events(), 1.0);
}

TEST(EngineTest, WindowStateGrowsAndResets) {
  Fixture f;
  auto& map = f.plan.mutable_op(f.map_id);
  map.kind = OperatorKind::kWindowAggregate;
  map.window = query::WindowSpec{10.0};
  map.state = query::StateSpec::windowed(/*base_mb=*/1.0,
                                         /*mb_per_kevent=*/0.1);
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  // Mid-window the state must exceed the base; right after a window
  // boundary it returns near the base.
  double max_state = 0.0, state_after_reset = 1e18;
  for (double t = 1.0; t <= 60.0; t += 1.0) {
    f.engine->set_source_rate(f.src_id, SiteId(0), 10'000.0);
    f.network.step(t, 1.0);
    f.engine->tick(t);
    const double s = f.engine->total_state_mb(f.map_id);
    max_state = std::max(max_state, s);
    if (t > 20.0 && std::fmod(t, 10.0) < 0.5) {
      state_after_reset = std::min(state_after_reset, s);
    }
  }
  EXPECT_GT(max_state, 5.0);  // ~9 windows * 10k ev/s * 0.1 MB/kev
  EXPECT_LT(state_after_reset, 3.0);
}

TEST(EngineTest, StateOverridePinsStateSize) {
  Fixture f;
  f.engine->set_state_override_mb(f.map_id, 256.0);
  f.run(0.0, 5.0, 1'000.0);
  EXPECT_DOUBLE_EQ(f.engine->total_state_mb(f.map_id), 256.0);
  EXPECT_DOUBLE_EQ(f.engine->state_mb(f.map_id, SiteId(1)), 256.0);
}

TEST(EngineTest, SuspensionStopsProcessingAndQueuesEvents) {
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  f.engine->suspend_stage(f.map_id);
  f.run(10.0, 20.0, 10'000.0);
  EXPECT_DOUBLE_EQ(f.engine->op_metrics(f.map_id).processed_eps, 0.0);
  const double backlog_during = f.engine->source_backlog_events() +
                                f.engine->op_metrics(f.map_id).input_queue_events +
                                f.engine->op_metrics(f.map_id).channel_backlog_events;
  EXPECT_GT(backlog_during, 10'000.0);
  f.engine->resume_stage(f.map_id);
  f.run(20.0, 80.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
  EXPECT_LT(f.engine->source_backlog_events(), 100.0);
}

TEST(EngineTest, ApplyPlacementMovesTasksAndKeepsQueues) {
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  // Move the map from site 1 to site 0 (co-located with the source).
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {1, 0, 0}});
  EXPECT_EQ(f.engine->placement(f.map_id).at(SiteId(0)), 1);
  f.run(10.0, 40.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 300.0);
}

TEST(EngineTest, MigrationSeedsChannelDrainEstimate) {
  // Regression: channels created by rebuild_adjacent_channels used to start
  // with delivered_prev = 0. On a nearly saturated link the freshly rebuilt
  // flow has allocated_mbps = 0 and near-zero headroom, so the WAN drain
  // estimate -- and with it the channel buffer cap -- collapsed to the floor
  // and the sender was spuriously backpressured on the first post-migration
  // tick. The rebuild must seed delivered_prev from the replaced channels'
  // demonstrated drain rate.
  //
  // Setup: two chains sourced at site 0 on 12 Mbps links. Chain A
  // (srcA -> mapA@1) keeps link 0->1 at 11 of 12 Mbps, leaving ~1 Mbps of
  // headroom. Chain B (srcB -> mapB@0) runs intra-site at 10k events/s.
  // Moving mapB to site 1 creates a fresh WAN channel on the saturated link:
  // without seeding its cap is ~5000 + 2 s * ~1000 eps = 7000 events, well
  // under one tick's 10k output -> spurious backpressure.
  net::Network network(net::Topology::make_uniform(3, 4, 12.0, 10.0),
                       std::make_shared<net::ConstantBandwidth>());
  LogicalPlan plan;
  auto make_op = [](const char* name, OperatorKind kind,
                    std::vector<SiteId> pinned) {
    LogicalOperator op;
    op.name = name;
    op.kind = kind;
    op.output_event_bytes = 125.0;
    op.events_per_sec_per_slot = 1e6;
    op.pinned_sites = std::move(pinned);
    return op;
  };
  const OperatorId src_a =
      plan.add_operator(make_op("srcA", OperatorKind::kSource, {SiteId(0)}));
  const OperatorId map_a =
      plan.add_operator(make_op("mapA", OperatorKind::kMap, {}));
  const OperatorId sink_a =
      plan.add_operator(make_op("sinkA", OperatorKind::kSink, {SiteId(1)}));
  const OperatorId src_b =
      plan.add_operator(make_op("srcB", OperatorKind::kSource, {SiteId(0)}));
  const OperatorId map_b =
      plan.add_operator(make_op("mapB", OperatorKind::kMap, {}));
  const OperatorId sink_b =
      plan.add_operator(make_op("sinkB", OperatorKind::kSink, {SiteId(0)}));
  plan.connect(src_a, map_a);
  plan.connect(map_a, sink_a);
  plan.connect(src_b, map_b);
  plan.connect(map_b, sink_b);

  PhysicalPlan physical;
  physical.add_stage(src_a, StagePlacement{.per_site = {1, 0, 0}});
  physical.add_stage(map_a, StagePlacement{.per_site = {0, 1, 0}});
  physical.add_stage(sink_a, StagePlacement{.per_site = {0, 1, 0}});
  physical.add_stage(src_b, StagePlacement{.per_site = {1, 0, 0}});
  physical.add_stage(map_b, StagePlacement{.per_site = {1, 0, 0}});
  physical.add_stage(sink_b, StagePlacement{.per_site = {1, 0, 0}});

  Engine engine(plan, physical, network, EngineConfig{});
  for (double t = 1.0; t <= 30.0 + 1e-9; t += 1.0) {
    engine.set_source_rate(src_a, SiteId(0), 11'000.0);
    engine.set_source_rate(src_b, SiteId(0), 10'000.0);
    network.step(t, 1.0);
    engine.tick(t);
  }
  ASSERT_FALSE(engine.op_metrics(src_a).backpressured);
  ASSERT_FALSE(engine.op_metrics(src_b).backpressured);

  engine.apply_placement(map_b, StagePlacement{.per_site = {0, 1, 0}});

  engine.set_source_rate(src_a, SiteId(0), 11'000.0);
  engine.set_source_rate(src_b, SiteId(0), 10'000.0);
  network.step(31.0, 1.0);
  engine.tick(31.0);
  EXPECT_FALSE(engine.op_metrics(src_b).backpressured)
      << "fresh post-migration channel must inherit the replaced channel's "
         "drain rate, not collapse to the floor buffer";
}

TEST(EngineTest, ScaleOutSplitsStateAcrossSites) {
  Fixture f;
  f.engine->set_state_override_mb(f.map_id, 100.0);
  f.run(0.0, 5.0, 1'000.0);
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {0, 1, 1}});
  EXPECT_NEAR(f.engine->state_mb(f.map_id, SiteId(1)), 50.0, 1e-6);
  EXPECT_NEAR(f.engine->state_mb(f.map_id, SiteId(2)), 50.0, 1e-6);
  f.run(5.0, 40.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 300.0);
}

TEST(EngineTest, FailedSiteStopsProcessingUntilRestore) {
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  f.engine->fail_site(SiteId(1));
  EXPECT_TRUE(f.engine->site_failed(SiteId(1)));
  f.run(10.0, 30.0, 10'000.0);
  EXPECT_DOUBLE_EQ(f.engine->op_metrics(f.map_id).processed_eps, 0.0);
  EXPECT_GT(f.engine->source_backlog_events() +
                f.engine->op_metrics(f.map_id).channel_backlog_events,
            50'000.0);
  f.engine->restore_site(SiteId(1));
  f.run(30.0, 120.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
  EXPECT_LT(f.engine->source_backlog_events(), 1'000.0);
}

TEST(EngineTest, RestoreSiteRollsBackToCheckpointAndReplaysLostDelta) {
  // A failure destroys everything the site accumulated since its last local
  // checkpoint. restore_site must (a) roll the group's window state back to
  // the checkpoint snapshot and (b) re-inject the lost delta at the
  // replayable sources. Pre-fix, the recovered group kept its post-failure
  // window contents and nothing was replayed -- recovery silently "kept"
  // state the failure had destroyed.
  Fixture f;
  auto& map = f.plan.mutable_op(f.map_id);
  map.kind = OperatorKind::kWindowAggregate;
  map.window = query::WindowSpec{1000.0};  // no boundary during the test
  map.state = query::StateSpec::windowed(/*base_mb=*/1.0,
                                         /*mb_per_kevent=*/0.1);
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  // Default checkpoint interval is 30 s: a checkpoint lands at t~30 with
  // ~300k window events. By t=50 the open window holds ~500k.
  f.run(0.0, 40.0, 10'000.0);
  const double state_at_40 = f.engine->state_mb(f.map_id, SiteId(1));
  f.run(40.0, 50.0, 10'000.0);
  const double state_at_50 = f.engine->state_mb(f.map_id, SiteId(1));
  ASSERT_GT(state_at_50, state_at_40 + 5.0) << "window state must be growing";
  const double backlog_before = f.engine->source_backlog_events();

  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));

  // (a) Rollback: state returns to the t~30 checkpoint, i.e. below even the
  // t=40 reading -- not the pre-failure t=50 level.
  EXPECT_LT(f.engine->state_mb(f.map_id, SiteId(1)), state_at_40 + 1e-6);
  // (b) Replay: the ~200k-event delta re-enters the source backlog.
  EXPECT_GT(f.engine->source_backlog_events(), backlog_before + 100'000.0);
}

TEST(EngineTest, ApplyPlacementPreservesInProgressCheckpointReplay) {
  // Re-placing a stage while one of its groups is mid-way through replaying
  // a checkpoint must not cancel the replay pause for groups that stay put:
  // re-placement does not make recovery free. Pre-fix, apply_placement reset
  // restore_until unconditionally and the group resumed processing at once.
  Fixture f;
  f.engine->set_state_override_mb(f.map_id, 2'000.0);  // 10 s restore at 200 MB/s
  f.run(0.0, 35.0, 10'000.0);  // checkpoint at t~30 records the 2 GB state
  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));  // replaying until t=45

  // Same placement re-applied: the map group at site 1 keeps its pause.
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {0, 1, 0}});
  f.run(35.0, 40.0, 10'000.0);
  EXPECT_DOUBLE_EQ(f.engine->op_metrics(f.map_id).processed_eps, 0.0)
      << "group must still be replaying its checkpoint after re-placement";

  // Once the replay deadline passes, processing resumes and drains.
  f.run(40.0, 120.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
}

TEST(EngineTest, FailSiteIsIdempotent) {
  // Chaos schedules (and overlapping injectors) can fail a site that is
  // already down; the second call must not count a second failure or
  // otherwise disturb state.
  obs::MetricsRegistry metrics;
  EngineConfig config;
  config.metrics = &metrics;
  Fixture f(1000.0, 50'000.0, config);
  f.run(0.0, 10.0, 10'000.0);
  f.engine->fail_site(SiteId(1));
  f.engine->fail_site(SiteId(1));
  EXPECT_TRUE(f.engine->site_failed(SiteId(1)));
  EXPECT_DOUBLE_EQ(metrics.counter("engine.site_failures").value(), 1.0);
  // One restore undoes it: fail_site did not "stack".
  f.engine->restore_site(SiteId(1));
  EXPECT_FALSE(f.engine->site_failed(SiteId(1)));
  EXPECT_DOUBLE_EQ(metrics.counter("engine.site_restores").value(), 1.0);
}

TEST(EngineTest, RestoreOnHealthySiteIsANoOp) {
  // restore_site on a site that never failed must not roll its window back
  // to the last checkpoint or re-inject a replay delta.
  Fixture f;
  auto& map = f.plan.mutable_op(f.map_id);
  map.kind = OperatorKind::kWindowAggregate;
  map.window = query::WindowSpec{1000.0};
  map.state = query::StateSpec::windowed(1.0, 0.1);
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  f.run(0.0, 50.0, 10'000.0);
  const double state_before = f.engine->state_mb(f.map_id, SiteId(1));
  const double backlog_before = f.engine->source_backlog_events();
  f.engine->restore_site(SiteId(1));
  EXPECT_DOUBLE_EQ(f.engine->state_mb(f.map_id, SiteId(1)), state_before);
  EXPECT_DOUBLE_EQ(f.engine->source_backlog_events(), backlog_before);
  // No replay pause either: processing continues on the next tick.
  f.run(50.0, 52.0, 10'000.0);
  EXPECT_GT(f.engine->op_metrics(f.map_id).processed_eps, 0.0);
}

TEST(EngineTest, StragglerFactorSurvivesFailAndRestore) {
  // A slow machine does not speed up by crashing: the straggler factor is
  // orthogonal to failure state and must survive a fail/restore cycle.
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  f.engine->set_straggler(SiteId(1), 0.25);
  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));
  EXPECT_DOUBLE_EQ(f.engine->straggler_factor(SiteId(1)), 0.25);
}

TEST(EngineTest, FailDuringReplayComposesRestorePauseInsteadOfResetting) {
  // A site that fails again *while already replaying* a checkpoint must
  // serve the remainder of the first pause plus the new restore: the second
  // replay reads the same snapshot and cannot start before the first one
  // would have finished. Pre-fix, restore_site reset the deadline to
  // now + restore_sec, silently forgiving the time already owed.
  Fixture f;
  f.engine->set_state_override_mb(f.map_id, 2'000.0);  // 10 s at 200 MB/s
  f.run(0.0, 35.0, 10'000.0);  // checkpoint at t~30 records the 2 GB state
  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));
  const double first_until = f.engine->restore_until(f.map_id, SiteId(1));
  ASSERT_NEAR(first_until, 45.0, 1.5);

  // Two ticks into the replay the site crashes and restores again.
  f.run(35.0, 37.0, 10'000.0);
  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));
  const double second_until = f.engine->restore_until(f.map_id, SiteId(1));
  EXPECT_NEAR(second_until, first_until + 10.0, 1e-6)
      << "second restore must queue behind the in-progress replay";

  // The group stays paused through the composed deadline, then drains.
  f.run(37.0, second_until - 1.0, 10'000.0);
  EXPECT_DOUBLE_EQ(f.engine->op_metrics(f.map_id).processed_eps, 0.0)
      << "replay pause ended early: deadline was reset, not composed";
  f.run(second_until - 1.0, second_until + 5.0, 10'000.0);
  EXPECT_GT(f.engine->op_metrics(f.map_id).processed_eps, 0.0);
}

TEST(EngineTest, SecondFailureDuringReplayRerollsWithoutDoubleInject) {
  // A site that fails again while still replaying its checkpoint re-rolls
  // to the same snapshot. Since nothing was processed since the first
  // restore, there is no new delta -- the replay injection must not happen
  // twice.
  Fixture f;
  auto& map = f.plan.mutable_op(f.map_id);
  map.kind = OperatorKind::kWindowAggregate;
  map.window = query::WindowSpec{1000.0};
  map.state = query::StateSpec::windowed(1.0, 0.1);
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  f.run(0.0, 50.0, 10'000.0);  // checkpoint at t~30, window keeps growing
  const double backlog_healthy = f.engine->source_backlog_events();

  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));
  const double state_first = f.engine->state_mb(f.map_id, SiteId(1));
  const double backlog_first = f.engine->source_backlog_events();
  ASSERT_GT(backlog_first, backlog_healthy + 100'000.0)
      << "first restore must replay the lost delta";

  // Replay still pending (no tick ran): fail and restore again.
  f.engine->fail_site(SiteId(1));
  f.engine->restore_site(SiteId(1));
  EXPECT_DOUBLE_EQ(f.engine->state_mb(f.map_id, SiteId(1)), state_first);
  EXPECT_NEAR(f.engine->source_backlog_events(), backlog_first, 1.0)
      << "second restore from the same checkpoint must not re-inject";
}

TEST(EngineTest, StragglerSlowsOnlyItsSite) {
  Fixture f(1000.0, 50'000.0);
  f.run(0.0, 20.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.02);
  // 10x slowdown at the map's site: capacity 5k < 10k input.
  f.engine->set_straggler(SiteId(1), 0.1);
  EXPECT_DOUBLE_EQ(f.engine->straggler_factor(SiteId(1)), 0.1);
  f.run(20.0, 80.0, 10'000.0);
  EXPECT_LT(f.engine->op_metrics(f.map_id).processed_eps, 6'000.0);
  EXPECT_GT(f.engine->last_tick().delay_sec, 5.0);
  // Recovery when the straggler clears.
  f.engine->set_straggler(SiteId(1), 1.0);
  f.run(80.0, 200.0, 10'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
  EXPECT_LT(f.engine->source_backlog_events(), 100.0);
}

TEST(EngineTest, PartitionSkewConcentratesLoadOnHotSite) {
  // Map p=2 across sites 1 and 2, capacity 10k per task, input 16k:
  // balanced -> 8k each (healthy); 3x skew -> 12k on the hot site (> its
  // 10k capacity) -> the stage falls behind despite aggregate headroom.
  Fixture f(1000.0, 10'000.0);
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {0, 1, 1}});
  f.run(0.0, 60.0, 16'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.02);

  f.engine->set_partition_skew(f.map_id, 3.0);
  f.run(60.0, 160.0, 16'000.0);
  EXPECT_LT(f.engine->last_tick().processing_ratio, 0.95);
  EXPECT_GT(f.engine->last_tick().delay_sec, 2.0);

  // Restoring balance heals it.
  f.engine->set_partition_skew(f.map_id, 1.0);
  f.run(160.0, 320.0, 16'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
}

TEST(EngineTest, SlotsInUseTracksPlacements) {
  Fixture f;
  auto used = f.engine->slots_in_use();
  EXPECT_EQ(used[0], 0);  // sources take no computing slot
  EXPECT_EQ(used[1], 1);
  EXPECT_EQ(used[2], 1);
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {0, 2, 0}});
  used = f.engine->slots_in_use();
  EXPECT_EQ(used[1], 2);
}

TEST(EngineTest, OneSitesSlotCountMatchesTheTable) {
  Fixture f;
  const auto expect_every_site_matches = [&f](const char* when) {
    const std::vector<int> table = f.engine->slots_in_use();
    ASSERT_EQ(table.size(), 3u) << when;
    for (std::size_t s = 0; s < table.size(); ++s) {
      EXPECT_EQ(f.engine->slots_in_use(SiteId(static_cast<std::int64_t>(s))),
                table[s])
          << when << ", site " << s;
    }
  };
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {1, 2, 1}});
  expect_every_site_matches("after a placement");
  EXPECT_EQ(f.engine->slots_in_use(SiteId(1)), 2);

  PhysicalPlan replanned;
  replanned.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0}});
  replanned.add_stage(f.map_id, StagePlacement{.per_site = {0, 1, 3}});
  replanned.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 1}});
  f.engine->apply_replan(f.plan, std::move(replanned));
  expect_every_site_matches("after a re-plan");
  EXPECT_EQ(f.engine->slots_in_use(SiteId(2)), 4);
}

TEST(EngineTest, SourceGenerationReflectsActualWorkloadUnderBackpressure) {
  Fixture f(/*bandwidth=*/5.0);  // heavily constrained
  f.run(0.0, 60.0, 10'000.0);
  // Observed throughput is throttled, but the actual workload (§3.3's
  // λ_O[src]) still reports 10k.
  EXPECT_DOUBLE_EQ(f.engine->source_generation_eps(f.src_id), 10'000.0);
  EXPECT_LT(f.engine->op_metrics(f.src_id).processed_eps, 8'000.0);
}

TEST(EngineTest, OperatorMetricsSelectivity) {
  Fixture f;
  f.plan.mutable_op(f.map_id).selectivity = 0.5;
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  f.run(0.0, 20.0, 10'000.0);
  EXPECT_NEAR(f.engine->op_metrics(f.map_id).selectivity, 0.5, 0.01);
}

TEST(EngineTest, ChannelMetricsExposeLinkTelemetry) {
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  const auto channels = f.engine->channels_into(f.map_id);
  ASSERT_EQ(channels.size(), 1u);
  EXPECT_EQ(channels[0].from, SiteId(0));
  EXPECT_EQ(channels[0].to, SiteId(1));
  EXPECT_NEAR(channels[0].delivered_eps, 10'000.0, 300.0);
}

TEST(EngineTest, AdjacentLinkMbpsReportsStageTraffic) {
  Fixture f;
  f.run(0.0, 10.0, 10'000.0);
  const auto links = f.engine->adjacent_link_mbps(f.map_id);
  // 10k ev/s * 125 B = 10 Mbps inbound on 0->1 plus outbound on 1->2.
  const auto n = static_cast<std::int64_t>(3);
  ASSERT_TRUE(links.contains(0 * n + 1));
  EXPECT_NEAR(links.at(0 * n + 1), 10.0, 0.5);
  ASSERT_TRUE(links.contains(1 * n + 2));
  EXPECT_NEAR(links.at(1 * n + 2), 10.0, 0.5);
}

TEST(EngineTest, ReplanCarriesSourceBacklogAndState) {
  Fixture f;
  f.plan.mutable_op(f.map_id).state = query::StateSpec::fixed(64.0);
  f.engine = std::make_unique<Engine>(f.plan, f.physical, f.network,
                                      EngineConfig{});
  // Build a backlog with a suspended map.
  f.engine->suspend_stage(f.map_id);
  f.run(0.0, 20.0, 10'000.0);
  const double backlog_before = f.engine->source_backlog_events();
  ASSERT_GT(backlog_before, 50'000.0);

  // "Re-plan" to a structurally identical plan with the map at site 2.
  LogicalPlan new_plan = f.plan;
  PhysicalPlan new_physical;
  new_physical.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0}});
  new_physical.add_stage(f.map_id, StagePlacement{.per_site = {0, 0, 1}});
  new_physical.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 1}});
  f.engine->apply_replan(std::move(new_plan), std::move(new_physical));

  // Backlog, state, and rates survived the swap.
  EXPECT_GE(f.engine->source_backlog_events(), backlog_before - 1'000.0);
  EXPECT_NEAR(f.engine->total_state_mb(f.map_id), 64.0, 1e-6);
  EXPECT_DOUBLE_EQ(f.engine->source_generation_eps(f.src_id), 10'000.0);
  // And the new execution drains it.
  f.run(20.0, 120.0, 10'000.0);
  EXPECT_LT(f.engine->source_backlog_events(), 1'000.0);
  EXPECT_NEAR(f.engine->last_tick().processing_ratio, 1.0, 0.05);
}

TEST(EngineTest, PartitionSkewStaysPinnedAcrossPlacementChanges) {
  // The hot key pins to the lowest-indexed hosting site *at skew time* and
  // must not migrate when a later placement extends or reorders the site
  // list (a regression pinned it to "first hosting site", which moves).
  Fixture f(1000.0, 10'000.0);
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {0, 1, 1}});
  f.engine->set_partition_skew(f.map_id, 3.0);
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 1);

  // Expanding onto site 0 changes the lowest-indexed hosting site; the hot
  // key stays where the data lives.
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {1, 1, 1}});
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 1);
  f.run(0.0, 30.0, 9'000.0);
  double offered_hot = 0.0, offered_cold = 0.0;
  for (const auto& c : f.engine->channels_into(f.map_id)) {
    (c.to == SiteId(1) ? offered_hot : offered_cold) += c.offered_eps;
  }
  // weights 1:3:1 -> the pinned site draws 3x each cold site's share.
  EXPECT_NEAR(offered_hot, 3.0 * (offered_cold / 2.0), 300.0);

  // Losing the pinned site re-anchors to the new lowest-indexed hosting
  // site; a re-plan then carries the pin by operator signature.
  f.engine->apply_placement(f.map_id, StagePlacement{.per_site = {1, 0, 1}});
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 0);
  LogicalPlan new_plan = f.plan;
  PhysicalPlan new_physical;
  new_physical.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0}});
  new_physical.add_stage(f.map_id, StagePlacement{.per_site = {1, 0, 1}});
  new_physical.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 1}});
  f.engine->apply_replan(std::move(new_plan), std::move(new_physical));
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 0);

  // A re-plan whose placement drops the carried site re-anchors the pin.
  PhysicalPlan moved_physical;
  moved_physical.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0}});
  moved_physical.add_stage(f.map_id, StagePlacement{.per_site = {0, 1, 1}});
  moved_physical.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 1}});
  f.engine->apply_replan(f.plan, std::move(moved_physical));
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 1);

  // Promoting a standby off another site leaves the pin where it is, even
  // though the promotion makes site 0 the lowest-indexed hosting site ...
  f.engine->promote_standby(f.map_id, SiteId(2), SiteId(0), 0.0);
  EXPECT_EQ(f.engine->placement(f.map_id).per_site,
            (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 1);
  // ... and promoting one off the pinned site re-anchors it.
  f.engine->promote_standby(f.map_id, SiteId(1), SiteId(2), 0.0);
  EXPECT_EQ(f.engine->placement(f.map_id).per_site,
            (std::vector<int>{1, 0, 1}));
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), 0);

  // Clearing the skew unpins.
  f.engine->set_partition_skew(f.map_id, 1.0);
  EXPECT_EQ(f.engine->partition_skew_site(f.map_id), -1);
}

TEST(EngineTest, ReplanPrunesStaleSourceTrackers) {
  // Two sources feed one sink; re-planning to a single-source query must
  // drop the orphaned source's delay tracker (a regression kept trackers
  // whose signature no longer matched any live source).
  net::Network network(net::Topology::make_uniform(2, 2, 1000.0, 10.0),
                       std::make_shared<net::ConstantBandwidth>());
  LogicalPlan plan;
  LogicalOperator src_a;
  src_a.name = "src_a";
  src_a.kind = OperatorKind::kSource;
  src_a.events_per_sec_per_slot = 1e6;
  src_a.pinned_sites = {SiteId(0)};
  const OperatorId a = plan.add_operator(std::move(src_a));
  LogicalOperator src_b;
  src_b.name = "src_b";
  src_b.kind = OperatorKind::kSource;
  src_b.events_per_sec_per_slot = 1e6;
  src_b.pinned_sites = {SiteId(1)};
  const OperatorId b = plan.add_operator(std::move(src_b));
  LogicalOperator sink;
  sink.name = "sink";
  sink.kind = OperatorKind::kSink;
  sink.events_per_sec_per_slot = 1e6;
  const OperatorId k = plan.add_operator(std::move(sink));
  plan.connect(a, k);
  plan.connect(b, k);
  PhysicalPlan physical;
  physical.add_stage(a, StagePlacement{.per_site = {1, 0}});
  physical.add_stage(b, StagePlacement{.per_site = {0, 1}});
  physical.add_stage(k, StagePlacement{.per_site = {1, 0}});
  Engine engine(plan, physical, network, EngineConfig{});
  EXPECT_EQ(engine.num_source_trackers(), 2u);

  LogicalPlan pruned;
  LogicalOperator src_a2;
  src_a2.name = "src_a";
  src_a2.kind = OperatorKind::kSource;
  src_a2.events_per_sec_per_slot = 1e6;
  src_a2.pinned_sites = {SiteId(0)};
  const OperatorId a2 = pruned.add_operator(std::move(src_a2));
  LogicalOperator sink2;
  sink2.name = "sink";
  sink2.kind = OperatorKind::kSink;
  sink2.events_per_sec_per_slot = 1e6;
  const OperatorId k2 = pruned.add_operator(std::move(sink2));
  pruned.connect(a2, k2);
  PhysicalPlan pruned_physical;
  pruned_physical.add_stage(a2, StagePlacement{.per_site = {1, 0}});
  pruned_physical.add_stage(k2, StagePlacement{.per_site = {1, 0}});
  engine.apply_replan(std::move(pruned), std::move(pruned_physical));
  EXPECT_EQ(engine.num_source_trackers(), 1u);
}

TEST(EngineTest, ReplanResetsDegradeBudgetAndReplayAccounting) {
  // A re-plan starts delay accounting fresh: the degrade admission budget
  // (previous tick's delay) and any not-yet-folded replay events from an
  // earlier transition must not leak into the new execution.
  Fixture f;
  f.engine->suspend_stage(f.map_id);  // grow delay and in-flight channel data
  f.run(0.0, 20.0, 10'000.0);
  ASSERT_GT(f.engine->last_tick().delay_sec, 1.0);
  ASSERT_GT(f.engine->degrade_budget_delay_sec(), 1.0);

  const auto make_replan = [&f](PhysicalPlan& out) {
    out.add_stage(f.src_id, StagePlacement{.per_site = {1, 0, 0}});
    out.add_stage(f.map_id, StagePlacement{.per_site = {0, 1, 0}});
    out.add_stage(f.sink_id, StagePlacement{.per_site = {0, 0, 1}});
  };
  LogicalPlan plan1 = f.plan;
  PhysicalPlan phys1;
  make_replan(phys1);
  f.engine->apply_replan(std::move(plan1), std::move(phys1));
  EXPECT_DOUBLE_EQ(f.engine->degrade_budget_delay_sec(), 0.0);
  EXPECT_DOUBLE_EQ(f.engine->last_tick().delay_sec, 0.0);
  // The suspended map left events in flight; the re-plan replays them.
  EXPECT_GT(f.engine->replay_pending_events(), 0.0);

  // A second re-plan before any tick: fresh channels hold nothing in
  // flight, and the first re-plan's pending replay must not carry over.
  LogicalPlan plan2 = f.plan;
  PhysicalPlan phys2;
  make_replan(phys2);
  f.engine->apply_replan(std::move(plan2), std::move(phys2));
  EXPECT_DOUBLE_EQ(f.engine->replay_pending_events(), 0.0);
}

// ---------------------------------------------------------------------------
// Chained forward edges
// ---------------------------------------------------------------------------

// Two forward-partitioned sources, a at site 0 and b at site 1, feed a join
// whose placement each test picks; the sink is at site 3 of six.
struct ForwardFixture {
  using Pairs = std::vector<std::pair<std::int64_t, std::int64_t>>;

  explicit ForwardFixture(StagePlacement join_placement)
      : network(net::Topology::make_uniform(6, 4, 1000.0, 10.0),
                std::make_shared<net::ConstantBandwidth>()) {
    const auto add = [this](const char* name, OperatorKind kind,
                            std::vector<SiteId> pinned) {
      LogicalOperator op;
      op.name = name;
      op.kind = kind;
      op.events_per_sec_per_slot = 1e6;
      op.pinned_sites = std::move(pinned);
      if (kind == OperatorKind::kSource) {
        op.output_partitioning = query::Partitioning::kForward;
      }
      return plan.add_operator(std::move(op));
    };
    src_a = add("a", OperatorKind::kSource, {SiteId(0)});
    src_b = add("b", OperatorKind::kSource, {SiteId(1)});
    join = add("join", OperatorKind::kJoin, {});
    sink = add("sink", OperatorKind::kSink, {SiteId(3)});
    plan.connect(src_a, join);
    plan.connect(src_b, join);
    plan.connect(join, sink);
    physical.add_stage(src_a, StagePlacement{.per_site = {1, 0, 0, 0, 0, 0}});
    physical.add_stage(src_b, StagePlacement{.per_site = {0, 1, 0, 0, 0, 0}});
    physical.add_stage(join, std::move(join_placement));
    physical.add_stage(sink, StagePlacement{.per_site = {0, 0, 0, 1, 0, 0}});
    engine = std::make_unique<Engine>(plan, physical, network, EngineConfig{});
  }

  void run(int ticks) {
    for (int k = 0; k < ticks; ++k) {
      t += 1.0;
      engine->set_source_rate(src_a, SiteId(0), 4'000.0);
      engine->set_source_rate(src_b, SiteId(1), 6'000.0);
      network.step(t, 1.0);
      engine->tick(t);
    }
  }

  // The (from site, to site) of each channel from `src` into the join.
  [[nodiscard]] Pairs edge(OperatorId src) const {
    Pairs out;
    for (const ChannelMetrics& c : engine->channels_into(join)) {
      if (c.from_op == src) out.emplace_back(c.from.value(), c.to.value());
    }
    return out;
  }
  [[nodiscard]] double edge_queue(OperatorId src) const {
    double total = 0.0;
    for (const ChannelMetrics& c : engine->channels_into(join)) {
      if (c.from_op == src) total += c.queue_events;
    }
    return total;
  }

  net::Network network;
  LogicalPlan plan;
  PhysicalPlan physical;
  OperatorId src_a, src_b, join, sink;
  std::unique_ptr<Engine> engine;
  double t = 0.0;
};

TEST(ChainedChannelTest, ForwardEdgeFallsBackToHashUntilTheReceiverIsLocal) {
  using Pairs = ForwardFixture::Pairs;
  // No join task at either source's site: both edges hash over the WAN.
  ForwardFixture f(StagePlacement{.per_site = {0, 0, 0, 0, 1, 1}});
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 4}, {0, 5}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 4}, {1, 5}}));
  EXPECT_EQ(f.network.num_flows(), 6u);  // plus 4->3 and 5->3
  f.run(30);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 100.0);

  // A suspended join (a migration) leaves events queued on both edges.
  f.engine->suspend_stage(f.join);
  f.run(5);
  double queued_a = f.edge_queue(f.src_a);
  double queued_b = f.edge_queue(f.src_b);
  ASSERT_GT(queued_a, 1'000.0);
  ASSERT_GT(queued_b, 1'000.0);

  // A join task at a's site chains a's edge: only the local channel
  // remains, and it carries all of a's queued events (half of the join's
  // tasks are elsewhere, so a hash split would strand half of them).
  f.engine->apply_placement(f.join,
                            StagePlacement{.per_site = {1, 0, 0, 0, 1, 0}});
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 0}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 0}, {1, 4}}));
  EXPECT_EQ(f.network.num_flows(), 4u);  // 1->0, 1->4, 0->3, 4->3
  EXPECT_NEAR(f.edge_queue(f.src_a), queued_a, 1e-9 * queued_a);
  EXPECT_NEAR(f.edge_queue(f.src_b), queued_b, 1e-9 * queued_b);

  // Moving the join away again splits the local queue over the new sites.
  f.run(3);
  queued_a = f.edge_queue(f.src_a);
  queued_b = f.edge_queue(f.src_b);
  f.engine->apply_placement(f.join,
                            StagePlacement{.per_site = {0, 0, 1, 0, 0, 2}});
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 2}, {0, 5}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 2}, {1, 5}}));
  EXPECT_NEAR(f.edge_queue(f.src_a), queued_a, 1e-9 * queued_a);
  EXPECT_NEAR(f.edge_queue(f.src_b), queued_b, 1e-9 * queued_b);

  // Every event still reaches the sink once the join resumes.
  f.engine->resume_stage(f.join);
  f.run(60);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 100.0);
  EXPECT_LT(f.engine->source_backlog_events(), 1.0);
}

TEST(ChainedChannelTest, ChainedEdgeRoutesEverythingLocally) {
  using Pairs = ForwardFixture::Pairs;
  // Join tasks at both source sites, two of them at b's: both edges chain.
  ForwardFixture f(StagePlacement{.per_site = {1, 2, 0, 0, 0, 0}});
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 0}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 1}}));
  EXPECT_EQ(f.network.num_flows(), 2u);  // 0->3 and 1->3
  f.run(30);
  for (const ChannelMetrics& c : f.engine->channels_into(f.join)) {
    EXPECT_NEAR(c.offered_eps, c.from_op == f.src_a ? 4'000.0 : 6'000.0,
                1e-6);
  }
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 100.0);
}

TEST(ChainedChannelTest, FailingAChainedReceiverSiteBuildsNoFallback) {
  using Pairs = ForwardFixture::Pairs;
  ForwardFixture f(StagePlacement{.per_site = {1, 1, 0, 0, 0, 0}});
  f.run(10);
  // A failure changes no placement, so the chained edges keep their one
  // local channel and the network gains no flow.
  f.engine->fail_site(SiteId(0));
  f.run(10);
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 0}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 1}}));
  EXPECT_EQ(f.network.num_flows(), 2u);
  // Promoting a standby moves the join task off a's site, which ends the
  // chaining there: a's edge falls back to hash over the join's sites.
  f.engine->promote_standby(f.join, SiteId(0), SiteId(2), 0.0);
  EXPECT_EQ(f.edge(f.src_a), (Pairs{{0, 1}, {0, 2}}));
  EXPECT_EQ(f.edge(f.src_b), (Pairs{{1, 1}}));
  f.engine->restore_site(SiteId(0));
  f.run(60);
  EXPECT_NEAR(f.engine->last_tick().sink_eps, 10'000.0, 100.0);
}

}  // namespace
}  // namespace wasp::engine
