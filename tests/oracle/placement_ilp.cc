#include "oracle/placement_ilp.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"
#include "oracle/branch_and_bound.h"

namespace wasp::oracle {

std::optional<physical::PlacementOutcome> solve_placement(
    const physical::StageContext& ctx, const physical::NetworkView& view,
    double alpha, const std::vector<int>& extra_slots) {
  const std::size_t m = view.num_sites();
  const double p = static_cast<double>(ctx.parallelism);
  double total_up = 0.0, total_down = 0.0;
  for (const auto& u : ctx.upstream) total_up += u.events_per_sec;
  for (const auto& d : ctx.downstream) total_down += d.events_per_sec;

  lp::Problem problem(lp::Sense::kMinimize);
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    // Eq. 1: traffic-weighted latency to the upstream and downstream sites.
    double cost = 0.0;
    for (const auto& u : ctx.upstream) {
      const double w = total_up > 0.0 ? u.events_per_sec / total_up : 1.0;
      cost += w * view.latency_ms(u.site, site);
    }
    for (const auto& d : ctx.downstream) {
      const double w = total_down > 0.0 ? d.events_per_sec / total_down : 1.0;
      cost += w * view.latency_ms(site, d.site);
    }
    // Eq. 4: free slots (plus the stage's own), none on excluded sites,
    // at most the region cap, at least the scale-up floor.
    int slots = view.available_slots(site);
    if (s < extra_slots.size()) slots += extra_slots[s];
    if (std::find(ctx.excluded_sites.begin(), ctx.excluded_sites.end(),
                  site) != ctx.excluded_sites.end()) {
      slots = 0;
    }
    if (s < ctx.max_per_site.size() && ctx.max_per_site[s] >= 0) {
      slots = std::min(slots, ctx.max_per_site[s]);
    }
    slots = std::max(0, slots);  // an over-committed site offers none
    const int lo = s < ctx.min_per_site.size() ? ctx.min_per_site[s] : 0;
    if (lo > slots) return std::nullopt;  // empty box
    problem.add_variable(cost, lo, slots);
  }

  // Eq. 5: Σ p[s] = p.
  problem.add_dense_constraint(std::vector<double>(m, 1.0), lp::RowType::kEq,
                               p);

  // Eq. 2 and 3, one row per (site, remote neighbor) pair.
  auto cap_row = [&](std::size_t s, const physical::TrafficEndpoint& e,
                     double bw_mbps) {
    const double demand = stream_mbps(e.events_per_sec, e.event_bytes);
    if (demand <= 0.0) return;
    lp::Constraint row;
    row.vars = {s};
    row.coeffs = {demand / p};
    row.type = lp::RowType::kLe;
    row.rhs = alpha * bw_mbps;
    problem.add_constraint(std::move(row));
  };
  for (std::size_t s = 0; s < m; ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    for (const auto& u : ctx.upstream) {
      if (u.site != site) cap_row(s, u, view.available_mbps(u.site, site));
    }
    for (const auto& d : ctx.downstream) {
      if (d.site != site) cap_row(s, d, view.available_mbps(site, d.site));
    }
  }

  const ilp::IlpResult result = ilp::solve_all_integer(problem);
  if (!result.optimal()) return std::nullopt;
  physical::PlacementOutcome outcome;
  outcome.placement.per_site.resize(m);
  for (std::size_t s = 0; s < m; ++s) {
    outcome.placement.per_site[s] =
        static_cast<int>(std::lround(result.values[s]));
  }
  outcome.objective = result.objective;
  return outcome;
}

}  // namespace wasp::oracle
