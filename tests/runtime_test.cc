// Integration tests: the full WaspSystem control loop on the paper's
// testbed -- deployment, monitoring cadence, end-to-end adaptations,
// baselines, failures, and forced migrations. These are miniature versions
// of the paper's experiments with assertions on the expected shapes.
#include "runtime/wasp_system.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/run_spec.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {
namespace {

struct Testbed {
  explicit Testbed(std::uint64_t seed = 7,
                   std::shared_ptr<const net::BandwidthModel> model = nullptr)
      : rng(seed),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology,
                model ? model : std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
        edges.push_back(site.id);
      } else if (!sink.valid()) {
        sink = site.id;
      }
    }
  }

  workload::QuerySpec topk() const {
    return workload::make_topk_topics(east, west, sink);
  }

  workload::SteppedWorkload uniform_rates(const workload::QuerySpec& spec,
                                          double eps_per_site) const {
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, eps_per_site);
      }
    }
    return pattern;
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west, edges;
  SiteId sink;
};

// The deployed plan's last window aggregate in topological order: the merge
// when deployment pushed partial aggregates below the union. The query
// spec's operator ids do not survive deployment's rewrites.
OperatorId deployed_window(const WaspSystem& system) {
  const query::LogicalPlan& plan = system.engine().logical();
  OperatorId window;
  for (OperatorId id : plan.topological_order()) {
    if (plan.op(id).kind == query::OperatorKind::kWindowAggregate) window = id;
  }
  return window;
}

TEST(WaspSystemTest, DeploysAllStagesWithinSlotLimits) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  const auto& plan = system.engine().physical_plan();
  EXPECT_GT(plan.num_stages(), 5u);
  const auto used = system.engine().slots_in_use();
  for (std::size_t s = 0; s < used.size(); ++s) {
    EXPECT_LE(used[s], bed.topology.sites()[s].slots);
  }
}

TEST(WaspSystemTest, SteadyStateIsHealthy) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  system.run_until(200.0);
  EXPECT_NEAR(system.recorder().ratio().mean_over(100.0, 200.0), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(100.0, 200.0), 2.0);
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
}

TEST(WaspSystemTest, StepAdvancesTime) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  system.step();
  EXPECT_DOUBLE_EQ(system.now(), 1.0);
  system.run_until(10.0);
  EXPECT_DOUBLE_EQ(system.now(), 10.0);
}

TEST(WaspSystemTest, WaspAdaptsToWorkloadSurge) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  // Took at least one adaptation, kept all events, and recovered.
  EXPECT_FALSE(system.recorder().events().empty());
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(500.0, 600.0), 5.0);
}

TEST(WaspSystemTest, NoAdaptDivergesUnderSurge) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  EXPECT_TRUE(system.recorder().events().empty());
  EXPECT_GT(system.recorder().delay().mean_over(500.0, 600.0), 10.0);
  EXPECT_LT(system.recorder().ratio().mean_over(200.0, 500.0), 0.99);
}

TEST(WaspSystemTest, DegradeBoundsDelayButDropsEvents) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kDegrade;
  config.slo_sec = 10.0;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);
  EXPECT_GT(system.recorder().total_dropped(), 0.0);
  EXPECT_LT(system.recorder().processed_fraction(), 0.99);
  // Bounded delay, far below the NoAdapt divergence.
  EXPECT_LT(system.recorder().delay().mean_over(400.0, 600.0), 60.0);
}

TEST(WaspSystemTest, WaspBeatsNoAdaptOnDelay) {
  auto run = [](AdaptationMode mode) {
    Testbed bed;
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.mode = mode;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(600.0);
    return system.recorder().delay().mean_over(300.0, 600.0);
  };
  EXPECT_LT(10.0 * run(AdaptationMode::kWasp), run(AdaptationMode::kNoAdapt));
}

TEST(WaspSystemTest, RecoversFromFullFailure) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  system.fail_all_sites();
  system.run_until(160.0);
  // Dead: nothing processed.
  EXPECT_LT(system.recorder().ratio().mean_over(110.0, 160.0), 0.1);
  system.restore_all_sites();
  system.run_until(600.0);
  // Accumulated backlog is drained and the system re-stabilizes.
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(550.0, 600.0), 5.0);
}

TEST(WaspSystemTest, ScaleOnlyModeNeverReplans) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.5);
  SystemConfig config;
  config.mode = AdaptationMode::kScaleOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(500.0);
  for (const auto& e : system.recorder().events()) {
    EXPECT_NE(e.kind, "re-plan");
  }
}

TEST(WaspSystemTest, ReassignOnlyModeKeepsParallelism) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.0);
  SystemConfig config;
  config.mode = AdaptationMode::kReassignOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  const int initial = system.initial_total_tasks();
  system.run_until(500.0);
  EXPECT_EQ(system.engine().physical_plan().total_tasks(), initial);
  for (const auto& e : system.recorder().events()) {
    EXPECT_EQ(e.kind, "re-assign");
  }
}

TEST(WaspSystemTest, ForcedReassignMigratesStateAndRecords) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;  // only the forced action
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  // The windowed aggregation (large state) of the deployed plan.
  const OperatorId window_op = deployed_window(system);
  ASSERT_TRUE(window_op.valid());
  ASSERT_EQ(system.engine().logical().op(window_op).kind,
            query::OperatorKind::kWindowAggregate);
  system.mutable_engine().set_state_override_mb(window_op, 60.0);
  system.run_until(100.0);

  // Move the window task to a different data-center site.
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter &&
        current.at(site.id) == 0 && site.id != bed.sink) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  EXPECT_TRUE(system.transition_in_progress());
  system.run_until(300.0);
  EXPECT_FALSE(system.transition_in_progress());

  ASSERT_EQ(system.recorder().events().size(), 1u);
  const auto& event = system.recorder().events()[0];
  EXPECT_NEAR(event.migrated_mb, 60.0, 1.0);
  EXPECT_GT(event.transition_sec(), 0.0);
  EXPECT_EQ(system.engine().placement(window_op), target);
  // Execution resumed and is healthy again.
  EXPECT_NEAR(system.recorder().ratio().mean_over(250.0, 300.0), 1.0, 0.05);
}

TEST(WaspSystemTest, TransitionSuspendsOnlyAffectedStage) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  const OperatorId window_op = deployed_window(system);
  ASSERT_TRUE(window_op.valid());
  ASSERT_EQ(system.engine().logical().op(window_op).kind,
            query::OperatorKind::kWindowAggregate);
  system.mutable_engine().set_state_override_mb(window_op, 200.0);
  system.run_until(50.0);
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && current.at(site.id) == 0) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  system.step();
  EXPECT_TRUE(system.engine().stage_suspended(window_op));
  // Sources keep running (only the migrated stage halts).
  for (OperatorId src : system.engine().logical().sources()) {
    EXPECT_FALSE(system.engine().stage_suspended(src));
  }
}

TEST(WaspSystemTest, StabilizationIsMeasuredAfterTransition) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kNoAdapt;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  const OperatorId window_op = deployed_window(system);
  ASSERT_TRUE(window_op.valid());
  ASSERT_EQ(system.engine().logical().op(window_op).kind,
            query::OperatorKind::kWindowAggregate);
  system.mutable_engine().set_state_override_mb(window_op, 100.0);
  system.run_until(50.0);
  const auto current = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && current.at(site.id) == 0) {
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          current.parallelism();
      break;
    }
  }
  system.force_reassign(window_op, target);
  system.run_until(400.0);
  const auto& event = system.recorder().events().at(0);
  EXPECT_GE(event.stabilized_at, event.transition_end);
  EXPECT_GT(event.transition_sec(), 0.0);
}

TEST(WaspSystemTest, DeterministicGivenSeed) {
  auto run = [] {
    Testbed bed(13);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(400.0);
    return std::make_pair(system.recorder().delay().mean_over(0.0, 400.0),
                          system.recorder().events().size());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// Regression (PR 7): the traced and untraced step paths share state updates
// but take different code routes (the network's per-step grouping vs its
// cached link groups; the engine's trace emission). Tracing must be a pure
// observer: every recorder metric and the final clock must match a same-seed
// untraced run bit-for-bit.
TEST(WaspSystemTest, TracingIsAPureObserver) {
  auto run = [](bool traced) {
    Testbed bed(13);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    if (traced) {
      config.trace_sink = std::make_shared<obs::FileSink>(
          ::testing::TempDir() + "/traced_vs_untraced.jsonl");
    }
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(400.0);
    return std::make_tuple(system.now(), system.metrics().snapshot(),
                           system.recorder().events().size());
  };
  const auto untraced = run(false);
  const auto traced = run(true);
  EXPECT_EQ(std::get<0>(untraced), std::get<0>(traced));
  EXPECT_EQ(std::get<2>(untraced), std::get<2>(traced));
  const auto& mu = std::get<1>(untraced);
  const auto& mt = std::get<1>(traced);
  ASSERT_EQ(mu.size(), mt.size());
  for (std::size_t i = 0; i < mu.size(); ++i) {
    EXPECT_EQ(mu[i].first, mt[i].first);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mu[i].second),
              std::bit_cast<std::uint64_t>(mt[i].second))
        << mu[i].first << ": " << mu[i].second << " vs " << mt[i].second;
  }
}

// A query whose one hash edge fans 40 filter sites into 40 map sites of a
// 48-site clique: 1,600 channels and ~1.6k flows, above the engine's and the
// network's pool dispatch floors (1,024 each), so a pooled run hands the
// tick's regions to the pool. Sources chain into their filters; the window
// aggregate is the stage adaptation moves.
workload::QuerySpec wide_fan_in_query(SiteId sink) {
  std::vector<SiteId> filter_sites, map_sites;
  for (int s = 0; s < 40; ++s) filter_sites.push_back(SiteId(s));
  for (int s = 8; s < 48; ++s) map_sites.push_back(SiteId(s));
  workload::QuerySpec spec;
  query::LogicalPlan& plan = spec.plan;
  const auto add = [&](const char* name, query::OperatorKind kind,
                       double selectivity, std::vector<SiteId> pinned) {
    query::LogicalOperator op;
    op.name = name;
    op.kind = kind;
    op.selectivity = selectivity;
    op.events_per_sec_per_slot = 100'000.0;
    op.pinned_sites = std::move(pinned);
    if (kind == query::OperatorKind::kSource) {
      op.output_partitioning = query::Partitioning::kForward;
    }
    if (kind == query::OperatorKind::kWindowAggregate) {
      op.window = query::WindowSpec{10.0};
      op.state = query::StateSpec::windowed(1.0, 0.05);
    }
    return plan.add_operator(std::move(op));
  };
  const OperatorId src =
      add("events", query::OperatorKind::kSource, 1.0, filter_sites);
  const OperatorId filter =
      add("filter", query::OperatorKind::kFilter, 0.5, filter_sites);
  const OperatorId map = add("spread", query::OperatorKind::kMap, 1.0,
                             map_sites);
  const OperatorId window =
      add("window", query::OperatorKind::kWindowAggregate, 0.01, {});
  const OperatorId snk = add("sink", query::OperatorKind::kSink, 1.0, {sink});
  plan.connect(src, filter);
  plan.connect(filter, map);
  plan.connect(map, window);
  plan.connect(window, snk);
  spec.sources = {src};
  spec.stateful = true;
  return spec;
}

// The intra-run worker count is a pure throughput knob: chunk boundaries are
// layout constants and every reduction is a serial fixed-order combine, so
// --threads N must not change a single bit of any metric.
TEST(WaspSystemTest, ThreadCountCannotChangeAnyMetricBit) {
  auto run = [](int threads) {
    net::Network network(net::Topology::make_uniform(48, 4, 1.2, 20.0),
                         std::make_shared<net::ConstantBandwidth>());
    auto spec = wide_fan_in_query(SiteId(47));
    workload::SteppedWorkload pattern;
    for (SiteId s : spec.plan.op(spec.sources[0]).pinned_sites) {
      pattern.set_base_rate(spec.sources[0], s, 2'000.0);
    }
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    config.threads = threads;
    WaspSystem system(network, std::move(spec), pattern, config);
    system.run_until(300.0);
    if (threads > 1) {
      EXPECT_GT(system.pool()->stats().regions, 0u) << "threads=" << threads;
    }
    return std::make_tuple(system.metrics().snapshot(),
                           system.recorder().events().size(),
                           network.num_flows());
  };
  const auto serial = run(1);
  // The pool is not idle for lack of data, and the run adapts.
  EXPECT_GT(std::get<2>(serial), 1200u);
  EXPECT_GT(std::get<1>(serial), 0u);
  for (int threads : {2, 4}) {
    const auto parallel = run(threads);
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel))
        << "threads=" << threads;
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
    const auto& ms = std::get<0>(serial);
    const auto& mp = std::get<0>(parallel);
    ASSERT_EQ(ms.size(), mp.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
      EXPECT_EQ(ms[i].first, mp[i].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ms[i].second),
                std::bit_cast<std::uint64_t>(mp[i].second))
          << "threads=" << threads << " metric " << ms[i].first;
    }
  }
}

TEST(WaspSystemTest, StatelessQueryDeploysAndAdapts) {
  Testbed bed;
  auto spec = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  pattern.add_step(100.0, 2.5);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(500.0);
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
  EXPECT_LT(system.recorder().delay().mean_over(400.0, 500.0), 5.0);
}

TEST(WaspSystemTest, YsbQueryRunsHealthy) {
  Testbed bed;
  auto spec = workload::make_ysb_campaign(bed.edges, bed.sink);
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  WaspSystem system(bed.network, std::move(spec), pattern, SystemConfig{});
  system.run_until(200.0);
  EXPECT_NEAR(system.recorder().ratio().mean_over(100.0, 200.0), 1.0, 0.02);
}

TEST(WaspSystemTest, HybridBoundsDelayAndAdapts) {
  // §7: degrade as a stopgap while the re-optimization works. Hybrid must
  // (a) adapt like WASP, (b) keep the delay bounded through the transition
  // like Degrade, (c) lose far fewer events than pure Degrade.
  auto run = [](AdaptationMode mode) {
    Testbed bed;
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    pattern.add_step(100.0, 2.5);
    SystemConfig config;
    config.mode = mode;
    config.slo_sec = 10.0;
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(700.0);
    struct Result {
      double peak;
      double dropped;
      std::size_t adaptations;
    } r{0.0, system.recorder().total_dropped(),
        system.recorder().events().size()};
    for (const auto& [t, v] : system.recorder().delay().points()) {
      r.peak = std::max(r.peak, v);
    }
    return r;
  };
  const auto hybrid = run(AdaptationMode::kHybrid);
  const auto degrade = run(AdaptationMode::kDegrade);
  const auto wasp = run(AdaptationMode::kWasp);
  EXPECT_GT(hybrid.adaptations, 0u);
  // Bounded through transitions: strictly better peak than pure WASP.
  EXPECT_LE(hybrid.peak, wasp.peak + 1e-9);
  EXPECT_LT(hybrid.peak, 60.0);
  // Far fewer losses than pure degradation (which sheds forever).
  if (degrade.dropped > 0.0) {
    EXPECT_LT(hybrid.dropped, degrade.dropped);
  }
}

TEST(WaspSystemTest, BackgroundReplanFollowsWorkloadShift) {
  // §6.2 long-term dynamics: with background re-evaluation enabled, a slow
  // workload shift triggers a re-plan even though no acute bottleneck is
  // ever diagnosed.
  Testbed bed;
  std::vector<SiteId> dc_sites;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter) dc_sites.push_back(site.id);
  }
  auto spec = workload::make_four_source_join(dc_sites, bed.sink,
                                              /*stateful_joins=*/false);
  workload::SteppedWorkload pattern;
  // Initially stream-a dominates; later stream-d does: the optimal join
  // order flips.
  pattern.set_base_rate(spec.sources[0],
                        spec.plan.op(spec.sources[0]).pinned_sites[0],
                        20'000.0);
  for (int i = 1; i < 4; ++i) {
    pattern.set_base_rate(spec.sources[static_cast<std::size_t>(i)],
                          spec.plan.op(spec.sources[static_cast<std::size_t>(i)])
                              .pinned_sites[0],
                          2'000.0);
  }
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  config.background_replan_interval_sec = 120.0;
  // A meaningful improvement bar so the background re-plan only fires on a
  // real shift.
  config.policy.replan_improvement = 0.8;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(1200.0);
  // The run must stay healthy regardless of whether a background re-plan
  // fired (it depends on the plan-space economics for this topology).
  EXPECT_NEAR(system.recorder().ratio().mean_over(900.0, 1200.0), 1.0, 0.05);
}

TEST(WaspSystemTest, BackgroundReplanDisabledByDefault) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(400.0);
  // A steady workload with the default config must not churn plans.
  for (const auto& e : system.recorder().events()) {
    EXPECT_NE(e.reason.find("background"), 0u);
  }
}

TEST(WaspSystemTest, JoinQueryCanReplan) {
  Testbed bed;
  std::vector<SiteId> dc_sites;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter) dc_sites.push_back(site.id);
  }
  auto spec = workload::make_four_source_join(dc_sites, bed.sink,
                                              /*stateful_joins=*/false);
  workload::SteppedWorkload pattern;
  // Asymmetric rates make some join orders much cheaper than others.
  double rate = 4'000.0;
  for (OperatorId src : spec.sources) {
    pattern.set_base_rate(src, spec.plan.op(src).pinned_sites[0], rate);
    rate *= 2.0;
  }
  SystemConfig config;
  config.mode = AdaptationMode::kReplanOnly;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(300.0);
  // Regardless of whether a re-plan fired, the query must be running.
  EXPECT_GT(system.recorder().ratio().mean_over(200.0, 300.0), 0.5);
}

// ---------------------------------------------------------------------------
// Chained forward edges
// ---------------------------------------------------------------------------

// The chaining invariant over the engine's current channels, or the first
// violation: on an edge whose sender is forward-partitioned, every sender
// site that hosts a receiver task has exactly one channel, the local one.
std::string chaining_violation(const engine::Engine& eng) {
  const query::LogicalPlan& plan = eng.logical();
  for (const auto& op : plan.operators()) {
    std::map<std::pair<std::int64_t, std::int64_t>, int> local;
    for (const engine::ChannelMetrics& c : eng.channels_into(op.id)) {
      if (plan.op(c.from_op).output_partitioning !=
              query::Partitioning::kForward ||
          eng.placement(op.id).at(c.from) == 0) {
        continue;
      }
      if (c.to != c.from) {
        return plan.op(c.from_op).name + " -> " + op.name +
               " is chained at site " + std::to_string(c.from.value()) +
               " but has a channel to site " + std::to_string(c.to.value());
      }
      ++local[{c.from_op.value(), c.from.value()}];
    }
    for (OperatorId u : plan.upstream(op.id)) {
      if (plan.op(u).output_partitioning != query::Partitioning::kForward) {
        continue;
      }
      for (SiteId su : eng.placement(u).sites()) {
        if (eng.placement(op.id).at(su) == 0) continue;
        const int n = local[{u.value(), su.value()}];
        if (n != 1) {
          return plan.op(u).name + " -> " + op.name + " has " +
                 std::to_string(n) + " local channels at chained site " +
                 std::to_string(su.value());
        }
      }
    }
  }
  return "";
}

std::unique_ptr<Run> build(const std::string& text) {
  std::string error;
  const auto spec = RunSpec::parse(text, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  BuildError build_error;
  auto run = build_run(*spec, RunSettings{}, &build_error);
  EXPECT_NE(run, nullptr) << build_error.message;
  return run;
}

// Top-K on a small clique: each source chains into its filter, so every
// source edge has one local channel per source site and no network flow;
// the only flows are the hash edges' cross-site pairs.
TEST(ChainedChannelsTest, SourcesChainIntoTheirFiltersWithoutAFlow) {
  auto run = build("query=topk topology=uniform:sites=8");
  ASSERT_NE(run, nullptr);
  for (const double t : {0.0, 30.0}) {
    run->run_until(t);
    const engine::Engine& eng = run->system().engine();
    const query::LogicalPlan& plan = eng.logical();
    std::size_t cross_site = 0, source_channels = 0, source_sites = 0;
    for (const auto& op : plan.operators()) {
      for (const engine::ChannelMetrics& c : eng.channels_into(op.id)) {
        if (c.from != c.to) ++cross_site;
        if (!plan.op(c.from_op).is_source()) continue;
        ++source_channels;
        EXPECT_EQ(c.from, c.to) << plan.op(c.from_op).name << " at t=" << t;
      }
      if (op.is_source()) source_sites += eng.placement(op.id).sites().size();
    }
    EXPECT_EQ(source_sites, 7u);  // every site but the sink's
    EXPECT_EQ(source_channels, source_sites) << "t=" << t;
    EXPECT_GT(cross_site, 0u);
    EXPECT_EQ(run->network().num_flows(), cross_site) << "t=" << t;
    EXPECT_EQ(chaining_violation(eng), "") << "t=" << t;
  }
}

// No deployment of any query builds a cross-site channel on a chained edge,
// through deployment, adaptation to a workload step and a compute failure.
TEST(ChainedChannelsTest, NoDeploymentRoutesAChainedEdgeAcrossSites) {
  for (const char* query : {"topk", "ysb", "interest", "join"}) {
    for (const int seed : {3, 7, 11}) {
      const std::string text = std::string("query=") + query +
                                " seed=" + std::to_string(seed) +
                                " workload-step=60:2.5 fail=150:20";
      auto run = build(text);
      ASSERT_NE(run, nullptr) << text;
      for (double t = 0.0; t <= 240.0; t += 20.0) {
        run->run_until(t);
        ASSERT_EQ(chaining_violation(run->system().engine()), "")
            << text << " at t=" << t;
      }
    }
  }
}

}  // namespace
}  // namespace wasp::runtime
