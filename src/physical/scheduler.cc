#include "physical/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/units.h"

namespace wasp::physical {
namespace {

// One site of the folded Eq. 1-5 program: the traffic-weighted delay a task
// placed there adds (Eq. 1) and the integer bounds Eq. 2-4 leave on p[s].
struct SiteTerm {
  double cost = 0.0;
  int lo = 0;
  int hi = 0;
};

// Builds the per-site cost and folds constraints (2)-(4) into bounds
// lo[s] <= p[s] <= hi[s]. Returns nullopt when some site's floor exceeds
// what its slots or links allow, which makes the whole program infeasible.
std::optional<std::vector<SiteTerm>> fold_sites(
    const StageContext& ctx, const NetworkView& view, double alpha,
    const std::vector<int>& extra_slots) {
  const std::size_t m = view.num_sites();
  const double p = static_cast<double>(ctx.parallelism);
  assert(ctx.parallelism >= 1);

  // Objective: Σ_s p[s] · (Σ_u w_u ℓ_su + Σ_d w_d ℓ_ds), with endpoint
  // weights proportional to the traffic they exchange with the stage
  // (Eq. 1, traffic-weighted).
  double total_up = 0.0, total_down = 0.0;
  for (const auto& u : ctx.upstream) total_up += u.events_per_sec;
  for (const auto& d : ctx.downstream) total_down += d.events_per_sec;

  std::vector<SiteTerm> sites(m);
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    SiteTerm& term = sites[s];
    for (const auto& u : ctx.upstream) {
      const double w = total_up > 0.0 ? u.events_per_sec / total_up : 1.0;
      term.cost += w * view.latency_ms(u.site, site);
    }
    for (const auto& d : ctx.downstream) {
      const double w = total_down > 0.0 ? d.events_per_sec / total_down : 1.0;
      term.cost += w * view.latency_ms(site, d.site);
    }

    int slots = view.available_slots(site);
    if (s < extra_slots.size()) slots += extra_slots[s];
    // Anti-affinity: an excluded site contributes zero capacity (Eq. 4 with
    // A[s] forced to 0), regardless of its actual slots.
    for (SiteId ex : ctx.excluded_sites) {
      if (ex == site) {
        slots = 0;
        break;
      }
    }
    // Decomposition cap: max_per_site pins out-of-region sites to their
    // current count (-1 entries are uncapped); tighter than slots wins.
    if (s < ctx.max_per_site.size() && ctx.max_per_site[s] >= 0) {
      slots = std::min(slots, ctx.max_per_site[s]);
    }
    // An over-committed site (negative availability, e.g. a pinned sink
    // reserved on a full site) offers no slots; it does not make the other
    // sites' capacity unusable.
    slots = std::max(0, slots);
    // Constraint (4): lo <= p[s] <= A[s].
    term.lo = s < ctx.min_per_site.size() ? ctx.min_per_site[s] : 0;
    if (term.lo > slots) return std::nullopt;  // floor exceeds capacity
    term.hi = slots;

    // Constraints (2) and (3): per (site, neighbor-site) bandwidth caps.
    // Each bounds p[s] alone:
    //   p[s]/p · traffic(u) < α · B(u -> s)   =>   p[s] < p·α·B / traffic,
    // so the tightest one becomes the site's upper bound.
    double cap = p;
    auto apply = [&](double traffic_eps, double event_bytes, double bw_mbps) {
      const double demand = stream_mbps(traffic_eps, event_bytes);
      if (demand <= 0.0) return;
      if (bw_mbps <= 0.0) {
        cap = 0.0;
        return;
      }
      // Strict inequality in the paper; emulate with a tiny epsilon.
      cap = std::min(cap, p * alpha * bw_mbps / demand - 1e-9);
    };
    for (const auto& u : ctx.upstream) {
      if (u.site == site) continue;  // co-located: no WAN traffic
      apply(u.events_per_sec, u.event_bytes,
            view.available_mbps(u.site, site));
    }
    for (const auto& d : ctx.downstream) {
      if (d.site == site) continue;
      apply(d.events_per_sec, d.event_bytes,
            view.available_mbps(site, d.site));
    }
    if (cap < p) {
      term.hi = std::min(term.hi,
                         static_cast<int>(std::max(0.0, std::floor(cap))));
      if (term.hi < term.lo) return std::nullopt;  // floor unsatisfiable
    }
  }
  return sites;
}

// Exact solve of min Σ cost[s]·p[s] s.t. Σ p[s] = p, lo[s] <= p[s] <= hi[s],
// p[s] integer: start every site at its floor, then hand the remaining
// tasks to sites in ascending (cost, index) order. Any other feasible point
// can be turned into this one by moving tasks from a costlier site to a
// cheaper one with headroom, which never raises the objective; integral
// bounds keep the fill integral, so no branching is needed.
std::optional<PlacementOutcome> greedy_fill(const std::vector<SiteTerm>& sites,
                                            int parallelism) {
  const std::size_t m = sites.size();
  PlacementOutcome outcome;
  std::vector<int>& per_site = outcome.placement.per_site;
  per_site.resize(m, 0);
  long long remaining = parallelism;
  for (std::size_t s = 0; s < m; ++s) {
    per_site[s] = sites[s].lo;
    remaining -= sites[s].lo;
  }
  if (remaining < 0) return std::nullopt;  // floors alone exceed p

  std::vector<std::size_t> order(m);
  for (std::size_t s = 0; s < m; ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ca = sites[a].cost;
    const double cb = sites[b].cost;
    return ca != cb ? ca < cb : a < b;
  });
  for (std::size_t s : order) {
    if (remaining == 0) break;
    const long long take =
        std::min<long long>(remaining, sites[s].hi - per_site[s]);
    if (take > 0) {
      per_site[s] += static_cast<int>(take);
      remaining -= take;
    }
  }
  if (remaining > 0) return std::nullopt;  // Σ hi < p: infeasible

  for (std::size_t s = 0; s < m; ++s) {
    outcome.objective += sites[s].cost * per_site[s];
  }
  return outcome;
}

}  // namespace

std::optional<PlacementOutcome> Scheduler::place_stage(
    const StageContext& context, const NetworkView& view,
    const std::vector<int>& extra_slots) const {
  obs::Profiler::Scope profile_solve(profiler_,
                                     obs::Phase::kSolverPlacement);
  if (!context.pinned_sites.empty()) {
    // Pinned stages (sources/sinks) bypass the ILP: one task per pin.
    PlacementOutcome outcome;
    outcome.placement.per_site.resize(view.num_sites(), 0);
    for (SiteId s : context.pinned_sites) {
      ++outcome.placement.per_site[static_cast<std::size_t>(s.value())];
    }
    return outcome;
  }
  const bool tracing = trace_ != nullptr && trace_->enabled();
  obs::TraceEmitter::SpanScope span(tracing ? trace_ : nullptr,
                                    "place_stage");
  if (tracing) span.num("parallelism", context.parallelism);

  std::optional<PlacementOutcome> outcome;
  if (const auto sites =
          fold_sites(context, view, config_.alpha, extra_slots)) {
    outcome = greedy_fill(*sites, context.parallelism);
  }
  if (tracing) {
    span.flag("feasible", outcome.has_value());
    if (outcome.has_value()) span.num("objective", outcome->objective);
  }
  return outcome;
}

std::optional<PlacementOutcome> Scheduler::place_with_min_parallelism(
    const StageContext& context, const NetworkView& view, int min_parallelism,
    int max_parallelism, const std::vector<int>& extra_slots) const {
  StageContext ctx = context;
  for (int p = std::max(1, min_parallelism); p <= max_parallelism; ++p) {
    ctx.parallelism = p;
    if (auto outcome = place_stage(ctx, view, extra_slots)) return outcome;
  }
  return std::nullopt;
}

}  // namespace wasp::physical
