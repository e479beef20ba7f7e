// Tests for the per-record discrete-event micro-engine, including the
// cross-validation suite that pins the fluid engine's approximations to the
// DES ground truth on small deployments.
#include "oracle/micro_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "engine/engine.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"

namespace wasp::micro {
namespace {

using physical::PhysicalPlan;
using physical::StagePlacement;
using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;

// src (site 0) -> mid (site 1) -> sink (site 2).
struct Pipeline {
  LogicalPlan plan;
  PhysicalPlan physical;
  OperatorId src, mid, sink;

  Pipeline(OperatorKind mid_kind, double selectivity, double mid_capacity,
           double window_sec = 0.0, int mid_tasks = 1) {
    LogicalOperator s;
    s.name = "src";
    s.kind = OperatorKind::kSource;
    s.output_event_bytes = 125.0;
    s.events_per_sec_per_slot = 1e6;
    s.pinned_sites = {SiteId(0)};
    src = plan.add_operator(std::move(s));

    LogicalOperator m;
    m.name = "mid";
    m.kind = mid_kind;
    m.selectivity = selectivity;
    m.output_event_bytes = 125.0;
    m.events_per_sec_per_slot = mid_capacity;
    if (window_sec > 0.0) {
      m.window = query::WindowSpec{window_sec};
      m.state = query::StateSpec::windowed(1.0, 0.01);
    }
    mid = plan.add_operator(std::move(m));

    LogicalOperator k;
    k.name = "sink";
    k.kind = OperatorKind::kSink;
    k.events_per_sec_per_slot = 1e6;
    k.pinned_sites = {SiteId(2)};
    sink = plan.add_operator(std::move(k));

    plan.connect(src, mid);
    plan.connect(mid, sink);

    physical.add_stage(src, StagePlacement{.per_site = {1, 0, 0}});
    physical.add_stage(mid, StagePlacement{.per_site = {0, mid_tasks, 0}});
    physical.add_stage(sink, StagePlacement{.per_site = {0, 0, 1}});
  }
};

MicroResults run_micro(const Pipeline& p, const net::Topology& topo,
                       double rate, double horizon = 60.0,
                       std::uint64_t seed = 1) {
  MicroConfig config;
  config.horizon_sec = horizon;
  config.seed = seed;
  MicroEngine engine(p.plan, p.physical, topo, config);
  engine.set_source_rate(p.src, SiteId(0), rate);
  return engine.run();
}

// Runs the fluid engine on the same deployment; returns (sink_eps, delay).
std::pair<double, double> run_fluid(const Pipeline& p, net::Topology topo,
                                    double rate, double horizon = 60.0) {
  net::Network network(std::move(topo),
                       std::make_shared<net::ConstantBandwidth>());
  engine::Engine engine(p.plan, p.physical, network, engine::EngineConfig{});
  double t = 0.0;
  double sink_sum = 0.0;
  int measured = 0;
  for (int tick = 0; tick < static_cast<int>(horizon); ++tick) {
    t += 1.0;
    engine.set_source_rate(p.src, SiteId(0), rate);
    network.step(t, 1.0);
    engine.tick(t);
    if (t > horizon / 2.0) {
      sink_sum += engine.last_tick().sink_eps;
      ++measured;
    }
  }
  return {sink_sum / std::max(measured, 1),
          engine.last_tick().delay_sec};
}

TEST(MicroEngineTest, HealthyPipelineDeliversEverything) {
  Pipeline p(OperatorKind::kMap, 1.0, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults r = run_micro(p, topo, 2'000.0);
  EXPECT_NEAR(r.sink_eps, 2'000.0, 60.0);
  // Latency = two ~10 ms hops + service; well under 0.1 s.
  EXPECT_LT(r.latency.percentile(99), 0.1);
  EXPECT_GT(r.latency.percentile(50), 0.015);
}

TEST(MicroEngineTest, SelectivityThinsTheStream) {
  Pipeline p(OperatorKind::kFilter, 0.25, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults r = run_micro(p, topo, 4'000.0);
  EXPECT_NEAR(r.sink_eps, 1'000.0, 80.0);
}

TEST(MicroEngineTest, ComputeBottleneckCapsThroughputAtCapacity) {
  Pipeline p(OperatorKind::kMap, 1.0, /*capacity=*/1'500.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults r = run_micro(p, topo, 3'000.0);
  EXPECT_NEAR(r.sink_eps, 1'500.0, 80.0);
  // Queueing: records wait behind the slow server, so latency grows far
  // beyond the propagation floor.
  EXPECT_GT(r.latency.percentile(90), 1.0);
}

TEST(MicroEngineTest, ParallelServersMultiplyCapacity) {
  Pipeline p(OperatorKind::kMap, 1.0, 1'500.0, 0.0, /*mid_tasks=*/2);
  const auto topo = net::Topology::make_uniform(3, 4, 1000.0, 10.0);
  const MicroResults r = run_micro(p, topo, 2'500.0);
  EXPECT_NEAR(r.sink_eps, 2'500.0, 80.0);  // 2 x 1500 > 2500: healthy
}

TEST(MicroEngineTest, NetworkBottleneckCapsThroughputAtLinkRate) {
  // 125 B records over a 1 Mbps link: 1000 records/s maximum.
  Pipeline p(OperatorKind::kMap, 1.0, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1.0, 10.0);
  const MicroResults r = run_micro(p, topo, 2'000.0);
  EXPECT_NEAR(r.sink_eps, 1'000.0, 80.0);
}

TEST(MicroEngineTest, WindowedAggregationEmitsAtBoundariesWithLatestTime) {
  // 5-second window, selectivity 0.01: ~chunks of output at each boundary,
  // stamped with the latest contained generation time, so their measured
  // latency is just the post-window path (well under a second), not the
  // window length.
  Pipeline p(OperatorKind::kWindowAggregate, 0.01, 50'000.0, 5.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults r = run_micro(p, topo, 2'000.0);
  EXPECT_NEAR(r.sink_eps, 20.0, 4.0);  // 2000 * 0.01
  EXPECT_LT(r.latency.percentile(95), 0.5);
}

TEST(MicroEngineTest, DeterministicPerSeed) {
  Pipeline p(OperatorKind::kFilter, 0.5, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults a = run_micro(p, topo, 2'000.0, 30.0, 9);
  const MicroResults b = run_micro(p, topo, 2'000.0, 30.0, 9);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.percentile(99), b.latency.percentile(99));
}

TEST(MicroEngineTest, PoissonArrivalsAddQueueingVariance) {
  // Near-negligible propagation (1 ms links) so the M/M/1 queueing tail is
  // visible: at rho = 0.9 the sojourn distribution is exponential with mean
  // 1/(mu - lambda) = 3.3 ms, so p99 runs several times the median.
  Pipeline p(OperatorKind::kMap, 1.0, 3'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 1.0);
  MicroConfig config;
  config.horizon_sec = 60.0;
  config.poisson_arrivals = true;
  config.exponential_service = true;
  MicroEngine engine(p.plan, p.physical, topo, config);
  engine.set_source_rate(p.src, SiteId(0), 2'700.0);  // rho = 0.9
  const MicroResults r = engine.run();
  EXPECT_GT(r.latency.percentile(99), r.latency.percentile(50) * 2.0);
  EXPECT_NEAR(r.sink_eps, 2'700.0, 200.0);
}

// ---------------------------------------------------------------------------
// Cross-validation: fluid engine vs DES ground truth
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, HealthyThroughputMatches) {
  Pipeline p(OperatorKind::kMap, 1.0, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults des = run_micro(p, topo, 5'000.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 5'000.0);
  EXPECT_NEAR(fluid_eps, des.sink_eps, 0.03 * des.sink_eps);
}

TEST(CrossValidationTest, HealthyLatencyMatchesPropagationFloor) {
  Pipeline p(OperatorKind::kMap, 1.0, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 50.0);
  const MicroResults des = run_micro(p, topo, 5'000.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 5'000.0);
  // Both must report ~2 x 50 ms of propagation (the fluid engine does not
  // model per-record service jitter; allow 60% relative slack around the
  // 0.1 s floor).
  EXPECT_NEAR(fluid_delay, des.latency.percentile(50),
              0.6 * des.latency.percentile(50));
}

TEST(CrossValidationTest, ComputeBottleneckThroughputMatches) {
  Pipeline p(OperatorKind::kMap, 1.0, /*capacity=*/1'500.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults des = run_micro(p, topo, 3'000.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 3'000.0);
  // Both saturate at the service capacity.
  EXPECT_NEAR(fluid_eps, des.sink_eps, 0.05 * des.sink_eps);
  EXPECT_NEAR(des.sink_eps, 1'500.0, 80.0);
}

TEST(CrossValidationTest, NetworkBottleneckThroughputMatches) {
  Pipeline p(OperatorKind::kMap, 1.0, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1.0, 10.0);
  const MicroResults des = run_micro(p, topo, 2'000.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 2'000.0);
  EXPECT_NEAR(fluid_eps, des.sink_eps, 0.05 * des.sink_eps);
  EXPECT_NEAR(des.sink_eps, 1'000.0, 80.0);
}

TEST(CrossValidationTest, SelectivityChainMatches) {
  Pipeline p(OperatorKind::kFilter, 0.3, 50'000.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults des = run_micro(p, topo, 6'000.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 6'000.0);
  EXPECT_NEAR(fluid_eps, des.sink_eps, 0.06 * des.sink_eps);
}

TEST(CrossValidationTest, WindowedOutputRateMatches) {
  Pipeline p(OperatorKind::kWindowAggregate, 0.02, 50'000.0, 5.0);
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);
  const MicroResults des = run_micro(p, topo, 4'000.0, 120.0);
  const auto [fluid_eps, fluid_delay] = run_fluid(p, topo, 4'000.0, 120.0);
  // 4000 * 0.02 = 80 records/s on average for both (the DES emits them in
  // boundary bursts; the fluid engine spreads them -- the averages match).
  EXPECT_NEAR(des.sink_eps, 80.0, 10.0);
  EXPECT_NEAR(fluid_eps, 80.0, 10.0);
}

}  // namespace
}  // namespace wasp::micro
