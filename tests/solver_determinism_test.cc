// Oracle harness for the placement solver.
//
// physical::Scheduler folds the bandwidth caps of Eq. 2-3 into per-site
// bounds and places tasks by greedy fill. The reference here is the B&B
// oracle in tests/oracle/, which solves Eq. 1-5 as the paper writes it
// (caps as explicit rows). The two must agree on feasibility and reach the
// same optimal objective; placements are not compared because optimal ties
// may break differently. The scenarios mirror the paper's evaluation setup:
// the §8.2 16-site testbed (fig. 7/9 scale) with the Table 3 benchmark
// queries plus the Fig. 5 four-source join, walked stage by stage; plus a
// randomized per-stage sweep at 8, 16 and 64 sites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/topology.h"
#include "oracle/placement_ilp.h"
#include "physical/physical_plan.h"
#include "physical/placement.h"
#include "physical/scheduler.h"
#include "workload/queries.h"

namespace wasp::physical {
namespace {

// NetworkView over a topology's ground truth (base bandwidth, latency) with
// per-site slot counts the caller can deduct as stages land.
class TopologyView final : public NetworkView {
 public:
  explicit TopologyView(const net::Topology& topo) : topo_(topo) {
    for (const auto& site : topo.sites()) slots_.push_back(site.slots);
  }

  void consume(const StagePlacement& placement) {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      slots_[s] -= placement.per_site[s];
    }
  }

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
    return slots_[static_cast<std::size_t>(site.value())];
  }

 private:
  const net::Topology& topo_;
  std::vector<int> slots_;
};

// Asserts that the scheduler and the oracle agree on `ctx`: same
// feasibility and, when feasible, the same objective within 1e-9 relative.
// Returns the scheduler's outcome.
std::optional<PlacementOutcome> expect_matches_oracle(
    const Scheduler& scheduler, const StageContext& ctx,
    const NetworkView& view, const std::vector<int>& extra_slots = {}) {
  const auto got = scheduler.place_stage(ctx, view, extra_slots);
  const auto want =
      oracle::solve_placement(ctx, view, scheduler.config().alpha, extra_slots);
  EXPECT_EQ(got.has_value(), want.has_value())
      << "parallelism " << ctx.parallelism;
  if (got.has_value() && want.has_value()) {
    EXPECT_NEAR(got->objective, want->objective,
                1e-9 * std::max(std::abs(want->objective), 1e-12))
        << "parallelism " << ctx.parallelism;
  }
  return got;
}

struct Scenario {
  const char* name;
  workload::QuerySpec spec;
  double eps_per_source;
};

std::vector<Scenario> paper_scenarios(const net::Topology& topo) {
  std::vector<SiteId> east, west, edges;
  SiteId sink;
  for (const auto& site : topo.sites()) {
    if (site.type == net::SiteType::kEdge) {
      (east.size() <= west.size() ? east : west).push_back(site.id);
      edges.push_back(site.id);
    } else if (!sink.valid()) {
      sink = site.id;
    }
  }
  std::vector<SiteId> four(edges.begin(), edges.begin() + 4);
  std::vector<Scenario> out;
  out.push_back({"ysb", workload::make_ysb_campaign(edges, sink), 5'000.0});
  out.push_back(
      {"topk", workload::make_topk_topics(east, west, sink), 3'000.0});
  out.push_back({"events_of_interest",
                 workload::make_events_of_interest(edges, sink), 8'000.0});
  out.push_back({"four_source_join",
                 workload::make_four_source_join(four, sink, true), 2'000.0});
  return out;
}

std::unordered_map<OperatorId, query::OperatorRates> scenario_rates(
    const Scenario& sc) {
  std::unordered_map<OperatorId, double> src_rates;
  for (OperatorId src : sc.spec.sources) src_rates[src] = sc.eps_per_source;
  return sc.spec.plan.estimate_rates(src_rates);
}

TEST(SolverDeterminismTest, PaperScenariosPlaceIdenticallyToReference) {
  // Walks each query the way place_plan does: topological order, upstream
  // endpoints from the stages placed so far (balanced partitioning), pinned
  // sinks downstream, slots deducted as stages land, and a scale-out search
  // up to parallelism 4 when a stage does not fit. Every stage context on
  // the way is checked against the oracle.
  Rng rng(7);
  const net::Topology topo = net::Topology::make_paper_testbed(rng);
  const Scheduler scheduler;
  int checked = 0;

  for (const Scenario& sc : paper_scenarios(topo)) {
    SCOPED_TRACE(sc.name);
    const query::LogicalPlan& logical = sc.spec.plan;
    const auto rates = scenario_rates(sc);
    for (int p = 1; p <= 3; ++p) {
      SCOPED_TRACE("parallelism " + std::to_string(p));
      TopologyView view(topo);
      std::unordered_map<OperatorId, StagePlacement> placed;
      for (OperatorId op_id : logical.topological_order()) {
        const query::LogicalOperator& op = logical.op(op_id);
        StageContext ctx;
        ctx.pinned_sites = op.pinned_sites;
        if (!op.pinned_sites.empty()) {
          placed[op_id] = scheduler.place_stage(ctx, view)->placement;
          continue;
        }
        for (OperatorId u : logical.upstream(op_id)) {
          const StagePlacement& up = placed.at(u);
          const double up_p = up.parallelism();
          for (SiteId site : up.sites()) {
            ctx.upstream.push_back(TrafficEndpoint{
                site, rates.at(u).output_eps * up.at(site) / up_p,
                logical.op(u).output_event_bytes});
          }
        }
        for (OperatorId d : logical.downstream(op_id)) {
          const auto& sinks = logical.op(d).pinned_sites;
          for (SiteId site : sinks) {
            ctx.downstream.push_back(TrafficEndpoint{
                site, rates.at(op_id).output_eps / sinks.size(),
                op.output_event_bytes});
          }
        }
        std::optional<PlacementOutcome> outcome;
        for (ctx.parallelism = p; ctx.parallelism <= 4 && !outcome;
             ++ctx.parallelism) {
          outcome = expect_matches_oracle(scheduler, ctx, view);
          ++checked;
        }
        if (!outcome.has_value()) break;  // the whole plan is infeasible
        view.consume(outcome->placement);
        placed[op_id] = outcome->placement;
      }
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(SolverDeterminismTest, RepeatedEpochsAreSelfConsistent) {
  // Placing the same plan twice against the same view must reproduce the
  // first placement exactly: the scheduler keeps no state between calls.
  Rng rng(7);
  const net::Topology topo = net::Topology::make_paper_testbed(rng);
  const TopologyView view(topo);
  const Scheduler scheduler;

  for (const Scenario& sc : paper_scenarios(topo)) {
    SCOPED_TRACE(sc.name);
    const auto rates = scenario_rates(sc);
    const auto first = place_plan(sc.spec.plan, rates, {}, view, scheduler, 4);
    const auto again = place_plan(sc.spec.plan, rates, {}, view, scheduler, 4);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(first->objective, again->objective);
    for (std::size_t i = 0; i < first->plan.num_stages(); ++i) {
      EXPECT_EQ(first->plan.stages()[i].placement,
                again->plan.stages()[i].placement);
    }
  }
}

// Random per-site bandwidth, latency and slots; about one link in ten is
// dead (zero bandwidth).
class RandomView final : public NetworkView {
 public:
  RandomView(std::size_t n, Rng& rng)
      : n_(n), bw_(n * n), lat_(n * n), slots_(n) {
    for (auto& b : bw_) b = rng.uniform() < 0.1 ? 0.0 : rng.uniform(5.0, 200.0);
    for (auto& l : lat_) l = rng.uniform(5.0, 300.0);
    // Negative = over-committed (the site must offer zero slots).
    for (auto& s : slots_) s = static_cast<int>(rng.uniform_int(-2, 4));
  }
  [[nodiscard]] std::size_t num_sites() const override { return n_; }
  [[nodiscard]] double available_mbps(SiteId f, SiteId t) const override {
    return bw_[index(f, t)];
  }
  [[nodiscard]] double latency_ms(SiteId f, SiteId t) const override {
    return lat_[index(f, t)];
  }
  [[nodiscard]] int available_slots(SiteId s) const override {
    return slots_[static_cast<std::size_t>(s.value())];
  }

 private:
  [[nodiscard]] std::size_t index(SiteId f, SiteId t) const {
    return static_cast<std::size_t>(f.value()) * n_ +
           static_cast<std::size_t>(t.value());
  }
  std::size_t n_;
  std::vector<double> bw_, lat_;
  std::vector<int> slots_;
};

StageContext random_context(std::size_t n, Rng& rng) {
  auto site = [&] {
    return SiteId(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  StageContext ctx;
  ctx.parallelism = static_cast<int>(rng.uniform_int(1, 6));
  const int ups = static_cast<int>(rng.uniform_int(1, 3));
  for (int u = 0; u < ups; ++u) {
    ctx.upstream.push_back(TrafficEndpoint{site(), rng.uniform(100.0, 20'000.0),
                                           rng.uniform(50.0, 400.0)});
  }
  const int downs = static_cast<int>(rng.uniform_int(0, 2));
  for (int d = 0; d < downs; ++d) {
    ctx.downstream.push_back(TrafficEndpoint{
        site(), rng.uniform(100.0, 10'000.0), rng.uniform(50.0, 400.0)});
  }
  if (rng.uniform() < 0.3) {  // scale-up floors
    ctx.min_per_site.assign(n, 0);
    for (int k = 0; k < 2; ++k) ctx.min_per_site[site().value()] = 1;
  }
  if (rng.uniform() < 0.3) {  // region caps (-1 = uncapped)
    ctx.max_per_site.assign(n, -1);
    for (std::size_t s = 0; s < n; ++s) {
      if (rng.uniform() < 0.3) {
        ctx.max_per_site[s] = static_cast<int>(rng.uniform_int(0, 2));
      }
    }
  }
  if (rng.uniform() < 0.3) {  // anti-affinity
    ctx.excluded_sites = {site(), site()};
  }
  return ctx;
}

TEST(SolverDeterminismTest, RandomStageContextsMatchReference) {
  // place_stage and the place_with_min_parallelism scale-out search agree
  // with the oracle on feasibility and objective, on random contexts that
  // exercise every bound the scheduler folds: floors, region caps,
  // exclusions, over-committed sites, the re-assignment's extra slots and dead
  // links.
  for (const std::size_t n : {8u, 16u, 64u}) {
    SCOPED_TRACE("sites " + std::to_string(n));
    Rng rng(20260806 + n);
    const Scheduler scheduler;
    const int trials = n == 64 ? 30 : 80;
    int feasible = 0, infeasible = 0;
    for (int trial = 0; trial < trials; ++trial) {
      SCOPED_TRACE(trial);
      const RandomView view(n, rng);
      const StageContext ctx = random_context(n, rng);
      std::vector<int> extra_slots;
      if (rng.uniform() < 0.3) {
        extra_slots.resize(n);
        for (int& e : extra_slots) e = static_cast<int>(rng.uniform_int(0, 2));
      }
      const auto got = expect_matches_oracle(scheduler, ctx, view, extra_slots);
      (got.has_value() ? feasible : infeasible) += 1;

      // The scale-out search returns the smallest feasible parallelism.
      const auto scaled = scheduler.place_with_min_parallelism(
          ctx, view, ctx.parallelism, ctx.parallelism + 3, extra_slots);
      std::optional<PlacementOutcome> want;
      StageContext probe = ctx;
      for (probe.parallelism = ctx.parallelism;
           probe.parallelism <= ctx.parallelism + 3 && !want;
           ++probe.parallelism) {
        want = oracle::solve_placement(probe, view, scheduler.config().alpha,
                                       extra_slots);
      }
      ASSERT_EQ(scaled.has_value(), want.has_value());
      if (scaled.has_value()) {
        EXPECT_EQ(scaled->placement.parallelism(),
                  want->placement.parallelism());
        EXPECT_NEAR(scaled->objective, want->objective,
                    1e-9 * std::max(std::abs(want->objective), 1e-12));
      }
    }
    // The sweep is only meaningful if it covers both outcomes.
    EXPECT_GT(feasible, trials / 10);
    EXPECT_GT(infeasible, trials / 10);
  }
}

}  // namespace
}  // namespace wasp::physical
