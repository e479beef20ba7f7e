#include "state/migration.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/units.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wasp::state {
namespace {

// Dinic max flow over doubles, sized for the tiny tripartite graphs the
// network-aware planner probes (super-source -> sources -> destinations ->
// sink).
class DinicMaxFlow {
 public:
  static constexpr double kInf = 1e300;

  explicit DinicMaxFlow(int n) : head_(n, -1), level_(n), it_(n) {}

  // Adds a directed edge u -> v and its zero-capacity reverse; returns the
  // forward edge index (query residuals via flow_on after run()).
  int add_edge(int u, int v, double cap) {
    edges_.push_back(Edge{v, head_[u], cap});
    head_[u] = static_cast<int>(edges_.size()) - 1;
    edges_.push_back(Edge{u, head_[v], 0.0});
    head_[v] = static_cast<int>(edges_.size()) - 1;
    return static_cast<int>(edges_.size()) - 2;
  }

  double run(int s, int t) {
    double flow = 0.0;
    while (bfs(s, t)) {
      it_ = head_;
      double pushed;
      while ((pushed = dfs(s, t, kInf)) > kFlowEps) flow += pushed;
    }
    return flow;
  }

  // Flow routed over forward edge `e` (the reverse edge's residual).
  [[nodiscard]] double flow_on(int e) const {
    return edges_[static_cast<std::size_t>(e) ^ 1].cap;
  }

 private:
  static constexpr double kFlowEps = 1e-11;

  struct Edge {
    int to;
    int next;
    double cap;
  };

  bool bfs(int s, int t) {
    std::fill(level_.begin(), level_.end(), -1);
    queue_.clear();
    queue_.push_back(s);
    level_[s] = 0;
    for (std::size_t q = 0; q < queue_.size(); ++q) {
      const int u = queue_[q];
      for (int e = head_[u]; e != -1; e = edges_[e].next) {
        if (edges_[e].cap > kFlowEps && level_[edges_[e].to] < 0) {
          level_[edges_[e].to] = level_[u] + 1;
          queue_.push_back(edges_[e].to);
        }
      }
    }
    return level_[t] >= 0;
  }

  double dfs(int u, int t, double limit) {
    if (u == t) return limit;
    for (int& e = it_[u]; e != -1; e = edges_[e].next) {
      const int v = edges_[e].to;
      if (edges_[e].cap > kFlowEps && level_[v] == level_[u] + 1) {
        const double pushed = dfs(v, t, std::min(limit, edges_[e].cap));
        if (pushed > kFlowEps) {
          edges_[e].cap -= pushed;
          edges_[static_cast<std::size_t>(e) ^ 1].cap += pushed;
          return pushed;
        }
      }
    }
    level_[u] = -1;  // dead end: prune for the rest of this phase
    return 0.0;
  }

  std::vector<Edge> edges_;
  std::vector<int> head_;
  std::vector<int> level_;
  std::vector<int> it_;
  std::vector<int> queue_;
};

}  // namespace

const char* to_string(MigrationStrategy strategy) {
  switch (strategy) {
    case MigrationStrategy::kNetworkAware:
      return "network-aware";
    case MigrationStrategy::kRandom:
      return "random";
    case MigrationStrategy::kDistant:
      return "distant";
    case MigrationStrategy::kNone:
      return "none";
  }
  return "?";
}

double MigrationPlanner::estimate_makespan(const std::vector<Move>& moves,
                                           const physical::NetworkView& view) {
  // Same-link volumes serialize; distinct links run in parallel. Volumes are
  // accumulated per link in move order (one map pass instead of the old
  // O(moves^2) rescan, which dominated large network-aware plans), so the
  // per-link sums -- and therefore the result -- are bit-identical to the
  // quadratic version.
  std::unordered_map<std::uint64_t, double> link_mb;
  link_mb.reserve(moves.size());
  auto link_key = [](const Move& m) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(m.from.value()))
            << 32) |
           static_cast<std::uint32_t>(m.to.value());
  };
  for (const Move& m : moves) link_mb[link_key(m)] += m.size_mb;
  double worst = 0.0;
  for (const Move& m : moves) {
    const double mbps = view.available_mbps(m.from, m.to);
    worst = std::max(worst, transfer_seconds(link_mb[link_key(m)], mbps));
  }
  return worst;
}

MigrationPlan MigrationPlanner::plan(
    const std::vector<StateSource>& sources,
    const std::vector<StateDestination>& destinations,
    const physical::NetworkView& view) {
  obs::Profiler::Scope profile_solve(profiler_,
                                     obs::Phase::kSolverMigration);
  MigrationPlan out;
  if (strategy_ == MigrationStrategy::kNone) return out;

  // Drop empty endpoints; nothing to move is a valid no-op.
  std::vector<StateSource> srcs;
  for (const auto& s : sources) {
    if (s.state_mb > 1e-9) srcs.push_back(s);
  }
  std::vector<StateDestination> dsts;
  for (const auto& d : destinations) {
    if (d.share_mb > 1e-9) dsts.push_back(d);
  }
  if (srcs.empty() || dsts.empty()) return out;

  // Normalize destination shares to match the source total.
  const double total_src = std::accumulate(
      srcs.begin(), srcs.end(), 0.0,
      [](double acc, const StateSource& s) { return acc + s.state_mb; });
  double total_dst = std::accumulate(
      dsts.begin(), dsts.end(), 0.0,
      [](double acc, const StateDestination& d) { return acc + d.share_mb; });
  assert(total_dst > 0.0);
  for (auto& d : dsts) d.share_mb *= total_src / total_dst;

  const bool tracing = trace_ != nullptr && trace_->enabled();
  obs::TraceEmitter::SpanScope span(tracing ? trace_ : nullptr, "migration_lp");
  if (tracing) {
    span.str("strategy", to_string(strategy_))
        .num("sources", static_cast<double>(srcs.size()))
        .num("destinations", static_cast<double>(dsts.size()));
  }
  switch (strategy_) {
    case MigrationStrategy::kNetworkAware:
      out = plan_network_aware(srcs, dsts, view);
      break;
    case MigrationStrategy::kRandom:
      out = plan_greedy(srcs, dsts, view, /*prefer_slow_links=*/false);
      break;
    case MigrationStrategy::kDistant:
      out = plan_greedy(srcs, dsts, view, /*prefer_slow_links=*/true);
      break;
    case MigrationStrategy::kNone:
      break;
  }

  if (tracing) {
    double total_mb = 0.0;
    for (const Move& m : out.moves) total_mb += m.size_mb;
    span.num("num_moves", static_cast<double>(out.moves.size()))
        .num("total_mb", total_mb)
        .num("estimated_transition_sec", out.estimated_transition_sec);
    // Flat summary event kept for older consumers; nests inside the span.
    trace_->event("migration_plan")
        .str("strategy", to_string(strategy_))
        .num("num_moves", static_cast<double>(out.moves.size()))
        .num("total_mb", total_mb)
        .num("estimated_transition_sec", out.estimated_transition_sec);
  }
  return out;
}

MigrationPlan MigrationPlanner::plan_network_aware(
    const std::vector<StateSource>& sources,
    const std::vector<StateDestination>& destinations,
    const physical::NetworkView& view) const {
  const std::size_t ns = sources.size();
  const std::size_t nd = destinations.size();
  // Node layout: 0 = super source, 1..ns = sources, ns+1..ns+nd =
  // destinations, ns+nd+1 = sink.
  const int super = 0;
  const int sink = static_cast<int>(ns + nd) + 1;
  auto src_node = [](std::size_t i) { return static_cast<int>(i) + 1; };
  auto dst_node = [ns](std::size_t j) { return static_cast<int>(ns + j) + 1; };

  double total_mb = 0.0;
  for (const StateSource& s : sources) total_mb += s.state_mb;
  // A probe is feasible when it routes all the state up to rounding; the
  // slack also bounds how much state the final plan may leave unmoved.
  const double feas_tol = 1e-12 * std::max(1.0, total_mb);

  // Link rates in MB/s; local (src == dst) transfers cost nothing and get
  // infinite capacity, dead links get no edge at all (x_ij forced to 0).
  std::vector<double> rate(ns * nd, 0.0);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) {
      if (sources[i].site == destinations[j].site) {
        rate[i * nd + j] = DinicMaxFlow::kInf;
      } else {
        rate[i * nd + j] = mbps_to_mb_per_sec(
            view.available_mbps(sources[i].site, destinations[j].site));
      }
    }
  }

  // Builds the graph for makespan T and returns the achieved flow; fills
  // `x_edges` (forward edge index per pair, -1 for dead links) so the final
  // probe can read the routed volumes back.
  std::vector<int> x_edges(ns * nd, -1);
  auto probe = [&](double t, DinicMaxFlow* out) {
    DinicMaxFlow graph(static_cast<int>(ns + nd) + 2);
    for (std::size_t i = 0; i < ns; ++i) {
      graph.add_edge(super, src_node(i), sources[i].state_mb);
    }
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < nd; ++j) {
        const double r = rate[i * nd + j];
        if (r <= 1e-9) continue;  // dead link: no edge
        const double cap = r >= DinicMaxFlow::kInf ? DinicMaxFlow::kInf : t * r;
        x_edges[i * nd + j] = graph.add_edge(src_node(i), dst_node(j), cap);
      }
    }
    for (std::size_t j = 0; j < nd; ++j) {
      graph.add_edge(dst_node(j), sink, destinations[j].share_mb);
    }
    const double flow = graph.run(super, sink);
    if (out != nullptr) *out = std::move(graph);
    return flow;
  };
  auto feasible = [&](double t) { return probe(t, nullptr) >= total_mb - feas_tol; };

  // Bracket the minimal makespan: analytic lower bound (each endpoint must
  // drain/fill through its aggregate rate), then doubling until feasible.
  double lo = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    double out_rate = 0.0;
    for (std::size_t j = 0; j < nd; ++j) out_rate += rate[i * nd + j];
    if (out_rate < DinicMaxFlow::kInf) {
      lo = std::max(lo, out_rate > 1e-12 ? sources[i].state_mb / out_rate
                                         : DinicMaxFlow::kInf);
    }
  }
  for (std::size_t j = 0; j < nd; ++j) {
    double in_rate = 0.0;
    for (std::size_t i = 0; i < ns; ++i) in_rate += rate[i * nd + j];
    if (in_rate < DinicMaxFlow::kInf) {
      lo = std::max(lo, in_rate > 1e-12 ? destinations[j].share_mb / in_rate
                                        : DinicMaxFlow::kInf);
    }
  }
  if (lo >= DinicMaxFlow::kInf) {
    // Some endpoint has no usable links at any makespan: no routing exists,
    // so the caller gets a (slow) greedy assignment to execute instead.
    MigrationPlanner greedy(MigrationStrategy::kRandom, Rng(1));
    return greedy.plan(sources, destinations, view);
  }
  double hi = std::max(lo, 1e-3);
  bool bracketed = feasible(hi);
  for (int d = 0; d < 64 && !bracketed; ++d) {
    hi *= 2.0;
    bracketed = feasible(hi);
  }
  if (!bracketed) {
    MigrationPlanner greedy(MigrationStrategy::kRandom, Rng(1));
    return greedy.plan(sources, destinations, view);
  }

  // Bisect to the minimal feasible T, to 1e-12 relative (about 40 halvings
  // from the bracket); the cap only matters when T* is 0 (all state local).
  for (int iter = 0; iter < 55 && hi - lo > 1e-12 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Extract the routing at the minimal feasible T.
  DinicMaxFlow graph(0);
  probe(hi, &graph);
  MigrationPlan out;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < nd; ++j) {
      const int e = x_edges[i * nd + j];
      if (e < 0 || sources[i].site == destinations[j].site) continue;
      const double mb = graph.flow_on(e);
      if (mb > 1e-6) {
        out.moves.push_back(Move{sources[i].site, destinations[j].site, mb});
      }
    }
  }
  out.estimated_transition_sec = estimate_makespan(out.moves, view);
  return out;
}

MigrationPlan MigrationPlanner::plan_greedy(
    const std::vector<StateSource>& sources,
    const std::vector<StateDestination>& destinations,
    const physical::NetworkView& view, bool prefer_slow_links) {
  // Fill destinations one source at a time. Random: destinations in random
  // order. Distant: destinations sorted by ascending bandwidth from the
  // source (worst link first) -- the adversarial WAN-agnostic baseline.
  MigrationPlan out;
  std::vector<double> remaining(destinations.size());
  for (std::size_t j = 0; j < destinations.size(); ++j) {
    remaining[j] = destinations[j].share_mb;
  }
  for (const StateSource& src : sources) {
    double left = src.state_mb;
    std::vector<std::size_t> order(destinations.size());
    std::iota(order.begin(), order.end(), 0);
    if (prefer_slow_links) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return view.available_mbps(src.site, destinations[a].site) <
               view.available_mbps(src.site, destinations[b].site);
      });
    } else {
      // Fisher-Yates with the planner's rng.
      for (std::size_t k = order.size(); k > 1; --k) {
        const auto r = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        std::swap(order[k - 1], order[r]);
      }
    }
    for (std::size_t j : order) {
      if (left <= 1e-9) break;
      if (remaining[j] <= 1e-9) continue;
      const double mb = std::min(left, remaining[j]);
      left -= mb;
      remaining[j] -= mb;
      if (src.site != destinations[j].site) {
        out.moves.push_back(Move{src.site, destinations[j].site, mb});
      }
    }
  }
  out.estimated_transition_sec = estimate_makespan(out.moves, view);
  return out;
}

}  // namespace wasp::state
