// Micro-benchmarks (google-benchmark) for the performance-critical
// substrates: the placement solver (placement-sized instances and a
// planet-scale sweep), one fig-scale decision epoch, the min-max migration
// planner, and the engine tick.
//
// These are not paper figures; they document that the control-plane
// optimizations are cheap enough to run inside a 1 Hz simulation loop (and,
// in the prototype's terms, inside a 40 s monitoring interval).
#include <benchmark/benchmark.h>

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/engine.h"
#include "exec/thread_pool.h"
#include "microengine/micro_engine.h"
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
  // Single-stage placement as the site count grows 16 -> 64 -> 256. The CI
  // perf gate asserts the 16 -> 256 growth stays sub-quadratic.
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
    std::unordered_map<OperatorId, query::OperatorRates> rates;
    double eps_per_source = 0.0;
  };

  FigScaleSuite() {
    Rng rng(7);
    topo = net::Topology::make_paper_testbed(rng);
    const runtime::SiteRoles roles = runtime::site_roles(topo);
    const auto& [east, west, edges, dcs, sink] = roles;
    const std::vector<SiteId> four(edges.begin(), edges.begin() + 4);
    auto add = [&](workload::QuerySpec spec, double eps) {
      std::unordered_map<OperatorId, double> src;
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
      std::unordered_map<OperatorId, int> parallelism;
      for (std::size_t id = 0; id < c.spec.plan.num_operators(); ++id) {
        parallelism[OperatorId(static_cast<std::int64_t>(id))] = 1;
      }
      for (int p = 1; p <= 3; ++p) {
        for (auto& [op, par] : parallelism) par = p;
        const auto placed = physical::place_plan(c.spec.plan, c.rates,
                                                 parallelism, view, scheduler,
                                                 /*max_parallelism_fallback=*/4);
        if (placed.has_value()) total += placed->objective;
      }
      for (auto& [op, par] : parallelism) par = 1;
      for (std::size_t id = 0; id < c.spec.plan.num_operators(); ++id) {
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
        std::unordered_map<OperatorId, double> src;
        for (OperatorId s : cand.sources()) src[s] = c.eps_per_source;
        const auto cand_rates = cand.estimate_rates(src);
        std::unordered_map<OperatorId, int> cand_par;
        for (std::size_t id = 0; id < cand.num_operators(); ++id) {
          cand_par[OperatorId(static_cast<std::int64_t>(id))] = 1;
        }
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

// Shared body of the engine-tick benchmarks: top-k query over the given
// topology with wasp_sim's site roles, hub placement at the sink site.
void run_engine_tick_topk(benchmark::State& state, const net::Topology& topo,
                          int threads = 1) {
  const auto [east, west, edges, dcs, sink] = runtime::site_roles(topo);
  net::Network network(topo, std::make_shared<net::ConstantBandwidth>());
  // Intra-run parallelism (DESIGN.md §11): threads-1 pool workers plus the
  // caller. Results are bit-identical across thread counts, so the thread
  // axis measures pure tick throughput scaling.
  std::unique_ptr<exec::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<exec::ThreadPool>(threads - 1);
    network.set_pool(pool.get());
  }
  auto spec = workload::make_topk_topics(east, west, sink);
  physical::PhysicalPlan physical;
  // Simple hub placement for the micro-benchmark.
  for (OperatorId id : spec.plan.topological_order()) {
    const auto& op = spec.plan.op(id);
    physical::StagePlacement placement;
    placement.per_site.assign(topo.num_sites(), 0);
    if (!op.pinned_sites.empty()) {
      for (SiteId s : op.pinned_sites) {
        ++placement.per_site[static_cast<std::size_t>(s.value())];
      }
    } else {
      placement.per_site[static_cast<std::size_t>(sink.value())] = 1;
    }
    physical.add_stage(id, placement);
  }
  engine::EngineConfig config;
  config.pool = pool.get();
  engine::Engine engine(spec.plan, physical, network, config);
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      engine.set_source_rate(src, s, 10'000.0);
    }
  }
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    network.step(t, 1.0);
    engine.tick(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(t));
}

void BM_EngineTickTopk(benchmark::State& state) {
  Rng rng(7);
  run_engine_tick_topk(state, net::Topology::make_paper_testbed(rng));
}
BENCHMARK(BM_EngineTickTopk);

// Scaling variant: uniform topology at 16/64/256 sites, one source per
// non-hub site. Tick cost is dominated by the per-(stage, site) group and
// per-channel loops, so this tracks how the SoA data layout behaves as the
// site count (and with it the channel count) grows. The second axis is the
// intra-run worker count (1 = serial engine, N = pool with N-1 workers);
// ticks are bit-identical across the axis, only wall time moves.
void BM_EngineTickTopkScale(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  run_engine_tick_topk(state, net::Topology::make_uniform(n, 4, 500.0, 20.0),
                       threads);
}
BENCHMARK(BM_EngineTickTopkScale)
    ->ArgsProduct({{16, 64, 256}, {1, 2, 4}});

void BM_MicroEngineRecords(benchmark::State& state) {
  // Per-record DES throughput: how many simulated records per second of
  // wall time the validation engine sustains on a 3-stage pipeline.
  query::LogicalPlan plan;
  query::LogicalOperator src;
  src.name = "src";
  src.kind = query::OperatorKind::kSource;
  src.events_per_sec_per_slot = 1e6;
  src.pinned_sites = {SiteId(0)};
  const OperatorId s = plan.add_operator(std::move(src));
  query::LogicalOperator map;
  map.name = "map";
  map.kind = query::OperatorKind::kMap;
  map.events_per_sec_per_slot = 50'000.0;
  const OperatorId m = plan.add_operator(std::move(map));
  query::LogicalOperator sink;
  sink.name = "sink";
  sink.kind = query::OperatorKind::kSink;
  sink.events_per_sec_per_slot = 1e6;
  sink.pinned_sites = {SiteId(2)};
  const OperatorId k = plan.add_operator(std::move(sink));
  plan.connect(s, m);
  plan.connect(m, k);
  physical::PhysicalPlan physical;
  physical.add_stage(s, physical::StagePlacement{.per_site = {1, 0, 0}});
  physical.add_stage(m, physical::StagePlacement{.per_site = {0, 1, 0}});
  physical.add_stage(k, physical::StagePlacement{.per_site = {0, 0, 1}});
  const auto topo = net::Topology::make_uniform(3, 2, 1000.0, 10.0);

  std::uint64_t records = 0;
  for (auto _ : state) {
    micro::MicroConfig config;
    config.horizon_sec = 10.0;
    micro::MicroEngine engine(plan, physical, topo, config);
    engine.set_source_rate(s, SiteId(0), 5'000.0);
    const auto results = engine.run();
    records += results.generated;
    benchmark::DoNotOptimize(results.sink_eps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_MicroEngineRecords);

// ---------------------------------------------------------------------------
// JSON emission: `--bench-json=PATH` writes BENCH_solvers.json (schema
// documented in DESIGN.md) -- per-benchmark ns/op.
// ---------------------------------------------------------------------------

class CollectingReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      ns_per_op_[run.benchmark_name()] = run.GetAdjustedRealTime();
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::map<std::string, double>& ns_per_op() const {
    return ns_per_op_;
  }

 private:
  std::map<std::string, double> ns_per_op_;  // name -> ns per iteration
};

void write_bench_json(const std::string& path,
                      const std::map<std::string, double>& ns_per_op) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"wasp-bench-solvers-v1\",\n  \"benchmarks\": [\n";
  bool first = true;
  for (const auto& [name, ns] : ns_per_op) {
    out << (first ? "" : ",\n") << "    {\"name\": \"" << name
        << "\", \"ns_per_op\": " << ns << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--bench-json=";
    if (arg.rfind(prefix, 0) == 0) {
      json_path = arg.substr(prefix.size());
    } else {
      args.push_back(argv[i]);
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    write_bench_json(json_path, reporter.ns_per_op());
  }
  return 0;
}
