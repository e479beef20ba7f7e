#include "physical/physical_plan.h"

#include <algorithm>
#include <cassert>

#include "common/units.h"

namespace wasp::physical {

StageId PhysicalPlan::add_stage(OperatorId op, StagePlacement placement) {
  const StageId id(static_cast<std::int64_t>(stages_.size()));
  stages_.push_back(Stage{id, op, std::move(placement)});
  if (by_op_.size() <= static_cast<std::size_t>(op.value())) {
    by_op_.resize(static_cast<std::size_t>(op.value()) + 1);
  }
  by_op_[op] = id;
  return id;
}

const Stage& PhysicalPlan::stage(StageId id) const {
  return stages_[static_cast<std::size_t>(id.value())];
}

Stage& PhysicalPlan::mutable_stage(StageId id) {
  return stages_[static_cast<std::size_t>(id.value())];
}

const Stage& PhysicalPlan::stage_for(OperatorId op) const {
  assert(has_stage_for(op));
  return stage(by_op_[op]);
}

Stage& PhysicalPlan::mutable_stage_for(OperatorId op) {
  assert(has_stage_for(op));
  return mutable_stage(by_op_[op]);
}

bool PhysicalPlan::has_stage_for(OperatorId op) const {
  return static_cast<std::size_t>(op.value()) < by_op_.size() &&
         by_op_[op].valid();
}

int PhysicalPlan::total_tasks() const {
  int total = 0;
  for (const Stage& s : stages_) total += s.parallelism();
  return total;
}

namespace {

// Claims the WAN bandwidth of the traffic each endpoint sends to (or
// receives from) the newly-placed stage, split per the placement shares:
// stage k+1 must not count on capacity stage k's streams already claimed
// (stages of one plan share links).
void claim_traffic(AdjustedView& view,
                   const std::vector<TrafficEndpoint>& endpoints,
                   const StagePlacement& placement, bool inbound) {
  const int p = placement.parallelism();
  if (p == 0) return;
  for (const auto& e : endpoints) {
    for (SiteId s : placement.sites()) {
      if (s == e.site) continue;
      const double share = static_cast<double>(placement.at(s)) / p;
      const double mbps = stream_mbps(e.events_per_sec * share, e.event_bytes);
      if (inbound) {
        view.claim_mbps(e.site, s, mbps);
      } else {
        view.claim_mbps(s, e.site, mbps);
      }
    }
  }
}

// Per-site emission rates of a placed stage: balanced partitioning splits
// the operator's output evenly over its tasks (§7).
std::vector<TrafficEndpoint> stage_endpoints(const Stage& stage,
                                             double output_eps,
                                             double event_bytes) {
  std::vector<TrafficEndpoint> out;
  const int p = stage.parallelism();
  if (p == 0) return out;
  for (SiteId site : stage.placement.sites()) {
    const double share =
        static_cast<double>(stage.placement.at(site)) / static_cast<double>(p);
    out.push_back(TrafficEndpoint{site, output_eps * share, event_bytes});
  }
  return out;
}

}  // namespace

std::optional<PlanPlacement> place_plan(
    const query::LogicalPlan& logical,
    const query::OperatorTable<query::OperatorRates>& rates,
    const query::OperatorTable<int>& parallelism,
    const NetworkView& view, const Scheduler& scheduler,
    int max_parallelism_fallback) {
  PlanPlacement result;
  // Slots and bandwidth are deducted as stages land.
  AdjustedView working_view(view);

  // Pinned stages occupy their slots unconditionally; reserve them up front
  // so no unpinned stage is placed into a slot a later pinned stage needs.
  // Sources are external-stream adapters and take no slot (matching
  // Engine::slots_in_use).
  query::OperatorTable<StagePlacement> pinned(logical.num_operators());
  for (const auto& op : logical.operators()) {
    if (op.pinned_sites.empty()) continue;
    StagePlacement& placement = pinned[op.id];
    placement.per_site.resize(view.num_sites(), 0);
    for (SiteId s : op.pinned_sites) {
      ++placement.per_site[static_cast<std::size_t>(s.value())];
    }
    if (!op.is_source()) working_view.claim_slots(placement);
  }

  for (OperatorId op_id : logical.topological_order()) {
    const query::LogicalOperator& op = logical.op(op_id);

    if (!op.pinned_sites.empty()) {
      result.plan.add_stage(op_id, pinned[op_id]);
      continue;
    }

    StageContext ctx;
    ctx.parallelism = std::max(1, parallelism[op_id]);

    // Upstream endpoints come from already-placed stages (topological order
    // guarantees they exist).
    for (OperatorId u : logical.upstream(op_id)) {
      const query::LogicalOperator& up_op = logical.op(u);
      const Stage& up_stage = result.plan.stage_for(u);
      for (auto& e : stage_endpoints(up_stage, rates[u].output_eps,
                                     up_op.output_event_bytes)) {
        ctx.upstream.push_back(e);
      }
    }
    // Downstream endpoints: only pinned operators are known ahead of their
    // placement (initial deployment is one-stage-at-a-time, §4.1).
    for (OperatorId d : logical.downstream(op_id)) {
      const query::LogicalOperator& down_op = logical.op(d);
      if (down_op.pinned_sites.empty()) continue;
      const double out_eps = rates[op_id].output_eps /
                             static_cast<double>(down_op.pinned_sites.size());
      for (SiteId s : down_op.pinned_sites) {
        ctx.downstream.push_back(
            TrafficEndpoint{s, out_eps, op.output_event_bytes});
      }
    }

    auto outcome = scheduler.place_stage(ctx, working_view);
    if (!outcome.has_value() && max_parallelism_fallback > ctx.parallelism) {
      outcome = scheduler.place_with_min_parallelism(
          ctx, working_view, ctx.parallelism + 1, max_parallelism_fallback);
    }
    if (!outcome.has_value()) return std::nullopt;
    working_view.claim_slots(outcome->placement);
    claim_traffic(working_view, ctx.upstream, outcome->placement,
                  /*inbound=*/true);
    claim_traffic(working_view, ctx.downstream, outcome->placement,
                  /*inbound=*/false);
    result.plan.add_stage(op_id, outcome->placement);
    result.objective += outcome->objective;
  }

  return result;
}

}  // namespace wasp::physical
