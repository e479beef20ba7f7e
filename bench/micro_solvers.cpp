// Micro-benchmarks (google-benchmark) for the control-plane solvers: the
// placement solver (placement-sized instances and a planet-scale sweep), one
// fig-scale decision epoch, and the min-max migration planner. They cover
// sizes perfbench's workloads do not reach (256-site placement, 32-source
// migration); the engine tick is perfbench's (engine.*, net.waterfill.*).
// `--benchmark_out=FILE --benchmark_out_format=json` writes the numbers.
//
// These are not paper figures; they document that the control-plane
// optimizations are cheap enough to run inside a 1 Hz simulation loop (and,
// in the prototype's terms, inside a 40 s monitoring interval).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "physical/scheduler.h"
#include "query/planner.h"
#include "runtime/run_spec.h"
#include "state/migration.h"
#include "workload/queries.h"

namespace {

using namespace wasp;

class RandomView final : public physical::NetworkView {
 public:
  RandomView(std::size_t n, Rng& rng) : n_(n) {
    bw_.resize(n * n);
    lat_.resize(n * n);
    slots_.resize(n);
    for (auto& b : bw_) b = rng.uniform(5.0, 200.0);
    for (auto& l : lat_) l = rng.uniform(5.0, 300.0);
    for (auto& s : slots_) s = static_cast<int>(rng.uniform_int(2, 8));
  }
  std::size_t num_sites() const override { return n_; }
  double available_mbps(SiteId f, SiteId t) const override {
    return bw_[static_cast<std::size_t>(f.value()) * n_ +
               static_cast<std::size_t>(t.value())];
  }
  double latency_ms(SiteId f, SiteId t) const override {
    return lat_[static_cast<std::size_t>(f.value()) * n_ +
                static_cast<std::size_t>(t.value())];
  }
  int available_slots(SiteId s) const override {
    return slots_[static_cast<std::size_t>(s.value())];
  }

 private:
  std::size_t n_;
  std::vector<double> bw_, lat_;
  std::vector<int> slots_;
};

physical::StageContext make_placement_ctx(std::size_t m, Rng& rng) {
  physical::StageContext ctx;
  ctx.parallelism = 3;
  for (int u = 0; u < 4; ++u) {
    ctx.upstream.push_back(physical::TrafficEndpoint{
        SiteId(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)),
        rng.uniform(1'000.0, 20'000.0), 120.0});
  }
  return ctx;
}

void BM_PlacementIlp(benchmark::State& state) {
  // A placement-shaped instance: m sites, Eq. 1-5 structure, probed
  // repeatedly -- the adaptation policy's access pattern (p-sweeps and
  // candidate plans re-probe identical stage contexts).
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementIlp)->Arg(8)->Arg(16);

// ---------------------------------------------------------------------------
// Planet-scale placement suite (DESIGN.md §14): how the placement solver
// scales from the paper's 16-site testbed to hundreds of edge sites.
// ---------------------------------------------------------------------------

void BM_PlacementScale(benchmark::State& state) {
  // Single-stage placement as the site count grows 16 -> 64 -> 256.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const RandomView view(m, rng);
  const physical::StageContext ctx = make_placement_ctx(m, rng);
  physical::Scheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.place_stage(ctx, view));
  }
}
BENCHMARK(BM_PlacementScale)->Arg(16)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// Fig-scale decision-epoch suite: the §8.2 16-site testbed, all four
// benchmark queries, each placed end-to-end at parallelism sweeps 1..3 with
// scale-out fallback -- the work one adaptation epoch does.
// ---------------------------------------------------------------------------

class TopologyView final : public physical::NetworkView {
 public:
  explicit TopologyView(const net::Topology& topo) : topo_(topo) {}
  std::size_t num_sites() const override { return topo_.num_sites(); }
  double available_mbps(SiteId from, SiteId to) const override {
    return topo_.base_bandwidth(from, to);
  }
  double latency_ms(SiteId from, SiteId to) const override {
    return topo_.latency_ms(from, to);
  }
  int available_slots(SiteId site) const override {
    return topo_.site(site).slots;
  }

 private:
  const net::Topology& topo_;
};

struct FigScaleSuite {
  struct Case {
    workload::QuerySpec spec;
    query::OperatorTable<query::OperatorRates> rates;
    double eps_per_source = 0.0;
  };

  FigScaleSuite() {
    Rng rng(7);
    topo = net::Topology::make_paper_testbed(rng);
    const runtime::SiteRoles roles = runtime::site_roles(topo);
    const auto& [east, west, edges, dcs, sink] = roles;
    const std::vector<SiteId> four(edges.begin(), edges.begin() + 4);
    auto add = [&](workload::QuerySpec spec, double eps) {
      query::OperatorTable<double> src(spec.plan.num_operators());
      for (OperatorId s : spec.sources) src[s] = eps;
      Case c{std::move(spec), {}, eps};
      c.rates = c.spec.plan.estimate_rates(src);
      cases.push_back(std::move(c));
    };
    add(workload::make_ysb_campaign(edges, sink), 5'000.0);
    add(workload::make_topk_topics(east, west, sink), 3'000.0);
    add(workload::make_events_of_interest(edges, sink), 8'000.0);
    add(workload::make_four_source_join(four, sink, true), 2'000.0);
  }

  // One decision epoch, mirroring the adaptation policy's probe pattern:
  // (a) a p-sweep placing every query at uniform parallelism 1..3, then
  // (b) per-operator scale-out candidates, each re-placing the plan with a
  // single operator's parallelism bumped.
  double run_epoch(const physical::Scheduler& scheduler,
                   const physical::NetworkView& view) const {
    double total = 0.0;
    for (const Case& c : cases) {
      const std::size_t num_ops = c.spec.plan.num_operators();
      for (int p = 1; p <= 3; ++p) {
        const query::OperatorTable<int> uniform(num_ops, p);
        const auto placed = physical::place_plan(c.spec.plan, c.rates,
                                                 uniform, view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
      }
      query::OperatorTable<int> parallelism(num_ops, 1);
      for (std::size_t id = 0; id < num_ops; ++id) {
        const OperatorId op(static_cast<std::int64_t>(id));
        if (!c.spec.plan.op(op).pinned_sites.empty()) continue;
        parallelism[op] = 2;  // scale-out candidate: bump one operator
        const auto placed = physical::place_plan(c.spec.plan, c.rates,
                                                 parallelism, view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
        parallelism[op] = 1;
      }
      // Re-plan pricing (try_replan): every planner-enumerated candidate
      // plan is placed against the same view.
      for (const query::LogicalPlan& cand : planner.enumerate(c.spec.plan)) {
        query::OperatorTable<double> src(cand.num_operators());
        for (OperatorId s : cand.sources()) src[s] = c.eps_per_source;
        const auto cand_rates = cand.estimate_rates(src);
        const query::OperatorTable<int> cand_par(cand.num_operators(), 1);
        const auto placed = physical::place_plan(cand, cand_rates, cand_par,
                                                 view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
      }
    }
    return total;
  }

  query::QueryPlanner planner;

  net::Topology topo;
  std::vector<Case> cases;
};

void BM_FigScaleEpoch(benchmark::State& state) {
  const FigScaleSuite suite;
  const TopologyView view(suite.topo);
  const physical::Scheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(suite.run_epoch(scheduler, view));
  }
}
BENCHMARK(BM_FigScaleEpoch);

void BM_MigrationMinMaxLp(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  net::Topology topo = net::Topology::make_uniform(
      static_cast<int>(2 * n), 4, 100.0, 20.0);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());

  class TruthView final : public physical::NetworkView {
   public:
    explicit TruthView(const net::Network& network) : network_(network) {}
    std::size_t num_sites() const override {
      return network_.topology().num_sites();
    }
    double available_mbps(SiteId f, SiteId t) const override {
      return network_.capacity(f, t, 0.0);
    }
    double latency_ms(SiteId f, SiteId t) const override {
      return network_.latency_ms(f, t);
    }
    int available_slots(SiteId) const override { return 8; }

   private:
    const net::Network& network_;
  } view(network);

  std::vector<state::StateSource> sources;
  std::vector<state::StateDestination> dests;
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back({SiteId(static_cast<std::int64_t>(i)),
                       rng.uniform(10.0, 200.0)});
  }
  double total = 0.0;
  for (const auto& s : sources) total += s.state_mb;
  for (std::size_t j = 0; j < n; ++j) {
    dests.push_back({SiteId(static_cast<std::int64_t>(n + j)),
                     total / static_cast<double>(n)});
  }
  state::MigrationPlanner planner(state::MigrationStrategy::kNetworkAware,
                                  Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(sources, dests, view));
  }
}
BENCHMARK(BM_MigrationMinMaxLp)->Arg(2)->Arg(4)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
