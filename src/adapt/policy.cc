#include "adapt/policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "common/log.h"
#include "common/units.h"
#include "obs/trace.h"

namespace wasp::adapt {
namespace {

// Migration-time threshold (§6.2): a re-assignment whose state transfer
// would take longer scales out instead.
constexpr double kTMaxSec = 30.0;
// A stage is not scaled down within this long of its last scale-up/out or
// re-assignment (prevents grow-trim oscillation around a dynamic), nor while
// the source backlog exceeds ~this many seconds of workload.
constexpr double kScaleDownCooldownSec = 180.0;
constexpr double kScaleDownMaxBacklogSec = 5.0;

bool query_is_stateless(const query::LogicalPlan& plan) {
  return std::none_of(
      plan.operators().begin(), plan.operators().end(),
      [](const query::LogicalOperator& op) { return op.stateful(); });
}

}  // namespace

void AdaptationPolicy::set_trace(obs::TraceEmitter* trace) {
  trace_ = trace;
  migration_planner_.set_trace(trace);
  scheduler_.set_trace(trace);
}

void AdaptationPolicy::set_profiler(obs::Profiler* profiler) {
  migration_planner_.set_profiler(profiler);
  scheduler_.set_profiler(profiler);
}

void AdaptationPolicy::on_replan_applied(const query::LogicalPlan& old_plan,
                                         const query::LogicalPlan& new_plan) {
  last_grown_.resize(old_plan.num_operators());
  query::OperatorTable<std::optional<double>> remapped(
      new_plan.num_operators());
  for (const auto& [old_op, new_op] : new_plan.matching_operators(old_plan)) {
    remapped[new_op] = last_grown_[old_op];
  }
  last_grown_ = std::move(remapped);
}

const char* to_string(ActionKind kind) {
  switch (kind) {
    case ActionKind::kNone:
      return "none";
    case ActionKind::kReassign:
      return "re-assign";
    case ActionKind::kScaleUp:
      return "scale-up";
    case ActionKind::kScaleOut:
      return "scale-out";
    case ActionKind::kScaleDown:
      return "scale-down";
    case ActionKind::kReplan:
      return "re-plan";
  }
  return "?";
}

double estimate_plan_cost(
    const query::LogicalPlan& logical, const physical::PhysicalPlan& physical,
    const query::OperatorTable<query::OperatorRates>& rates,
    const physical::NetworkView& view, double alpha) {
  // Traffic-weighted latency across all edges plus a steep penalty for every
  // link whose demand exceeds α of the estimated availability; overloaded
  // plans must lose to feasible ones regardless of latency.
  constexpr double kOverloadPenalty = 1e6;
  double cost = 0.0;
  // Every edge share's demand on its directed link (edges can share links),
  // keyed by from * n + to. Sorted stably below, so each link's demand sums
  // its shares in walk order and the penalties sum in ascending (from, to)
  // order, never in hash order.
  std::vector<std::pair<std::int64_t, double>> link_shares_mbps;
  const auto n = static_cast<std::int64_t>(view.num_sites());

  for (const auto& op : logical.operators()) {
    if (!physical.has_stage_for(op.id)) continue;
    const physical::Stage& up = physical.stage_for(op.id);
    const int p_up = up.parallelism();
    if (p_up == 0) continue;
    const double out_eps = rates[op.id].output_eps;
    for (OperatorId d : logical.downstream(op.id)) {
      if (!physical.has_stage_for(d)) continue;
      const physical::Stage& down = physical.stage_for(d);
      const int p_down = down.parallelism();
      if (p_down == 0) continue;
      for (SiteId su : up.placement.sites()) {
        for (SiteId sd : down.placement.sites()) {
          const double share =
              (static_cast<double>(up.placement.at(su)) / p_up) *
              (static_cast<double>(down.placement.at(sd)) / p_down);
          const double eps = out_eps * share;
          if (eps <= 0.0) continue;
          cost += eps * view.latency_ms(su, sd) / 1e3;
          if (su != sd) {
            link_shares_mbps.emplace_back(
                su.value() * n + sd.value(),
                stream_mbps(eps, op.output_event_bytes));
          }
        }
      }
    }
  }
  std::stable_sort(
      link_shares_mbps.begin(), link_shares_mbps.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < link_shares_mbps.size();) {
    const std::int64_t key = link_shares_mbps[i].first;
    double demand = 0.0;
    for (; i < link_shares_mbps.size() && link_shares_mbps[i].first == key;
         ++i) {
      demand += link_shares_mbps[i].second;
    }
    const SiteId from(key / n), to(key % n);
    const double limit = alpha * view.available_mbps(from, to);
    if (demand > limit && limit >= 0.0) {
      cost += kOverloadPenalty * (limit > 0.0 ? demand / limit : demand);
    }
  }
  return cost;
}

std::vector<AdaptationPolicy::OpDiagnosis> AdaptationPolicy::diagnose_all(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor) const {
  std::vector<OpDiagnosis> out;
  const query::LogicalPlan& logical = engine.logical();
  const auto rates = monitor.estimate_actual_rates(logical);

  // Source backlog inflates the whole pipeline's expected workload: every
  // operator will eventually process its (selectivity-scaled) share of the
  // queued events, and provisioning for generation-rate only would let the
  // policy scale down -- or declare health -- while hours of backlog wait
  // at the sources. The inflation factor spreads the backlog over the
  // drain-target horizon.
  double total_source_eps = 0.0;
  for (OperatorId src : logical.sources()) {
    total_source_eps += rates[src].output_eps;
  }
  const double backlog_factor =
      total_source_eps > 0.0
          ? 1.0 + engine.source_backlog_events() / kDrainTargetSec /
                      total_source_eps
          : 1.0;

  for (const auto& op : logical.operators()) {
    if (op.is_source()) continue;
    const OperatorWindowStats stats = monitor.stats(op.id);
    double expected_input = rates[op.id].input_eps * backlog_factor;
    // Plus the operator's own parked queues, cleared on the same horizon.
    expected_input += stats.input_queue_events / kDrainTargetSec;
    expected_input += stats.channel_backlog_events / kDrainTargetSec;
    double upstream_output = 0.0;
    for (OperatorId u : logical.upstream(op.id)) {
      upstream_output += rates[u].output_eps;
    }
    const double capacity = static_cast<double>(stats.parallelism) *
                            op.events_per_sec_per_slot;
    OpDiagnosis d;
    d.op = op.id;
    d.expected_input_eps = expected_input;
    d.upstream_output_eps = upstream_output;
    d.observed_input_eps = stats.lambda_i;
    d.backpressure_frac = stats.backpressure_frac;
    d.actionable = op.pinned_sites.empty() && op.splittable;
    d.diagnosis = diagnose(stats, expected_input, upstream_output, capacity);
    out.push_back(std::move(d));
  }
  return out;
}

AdaptationAction AdaptationPolicy::decide(const engine::Engine& engine,
                                          const GlobalMetricMonitor& monitor,
                                          const physical::NetworkView& view) {
  std::vector<AdaptationAction> actions =
      decide_all(engine, monitor, view, 1);
  return actions.empty() ? AdaptationAction{} : std::move(actions.front());
}

std::vector<AdaptationAction> AdaptationPolicy::decide_all(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view, std::size_t max_actions) {
  std::vector<AdaptationAction> actions;
  if (!monitor.has_data() || max_actions == 0) return actions;
  last_grown_.resize(engine.logical().num_operators());

  std::vector<OpDiagnosis> diags;
  {
    obs::TraceEmitter::SpanScope diagnose_span(trace_, "diagnose");
    diags = diagnose_all(engine, monitor);
    std::size_t unhealthy = 0;
    for (const auto& d : diags) {
      if (d.diagnosis.health != Health::kHealthy) ++unhealthy;
    }
    diagnose_span.num("operators", static_cast<double>(diags.size()))
        .num("unhealthy", static_cast<double>(unhealthy));
  }

  // Most severe bottleneck first.
  std::vector<const OpDiagnosis*> bottlenecks;
  const OpDiagnosis* waste = nullptr;
  for (const auto& d : diags) {
    switch (d.diagnosis.health) {
      case Health::kComputeBottleneck:
      case Health::kNetworkBottleneck:
        bottlenecks.push_back(&d);
        break;
      case Health::kOverprovisioned:
        if (waste == nullptr ||
            d.diagnosis.severity < waste->diagnosis.severity) {
          waste = &d;
        }
        break;
      case Health::kHealthy:
        break;
    }
  }
  std::sort(bottlenecks.begin(), bottlenecks.end(),
            [](const OpDiagnosis* a, const OpDiagnosis* b) {
              return a->diagnosis.severity > b->diagnosis.severity;
            });

  const bool tracing = trace_ != nullptr && trace_->enabled();
  for (const auto& d : diags) {
    if (d.diagnosis.health != Health::kHealthy) {
      log(LogLevel::kDebug, "diagnosis op=", d.op.value(), " ",
          to_string(d.diagnosis.health), " severity=", d.diagnosis.severity,
          " (", d.diagnosis.detail, ")");
      if (tracing) {
        trace_->event("diagnosis")
            .num("op", static_cast<double>(d.op.value()))
            .str("health", to_string(d.diagnosis.health))
            .str("detail", d.diagnosis.detail)
            .num("severity", d.diagnosis.severity)
            .num("expected_input_eps", d.expected_input_eps)
            .num("observed_input_eps", d.observed_input_eps)
            .num("upstream_output_eps", d.upstream_output_eps)
            .num("backpressure_frac", d.backpressure_frac)
            .flag("actionable", d.actionable);
      }
    }
  }

  // Threads slot consumption between successive per-operator decisions.
  physical::AdjustedView working_view(view);
  auto run_handlers = [&](const std::vector<const OpDiagnosis*>& list) {
    for (const OpDiagnosis* d : list) {
      if (actions.size() >= max_actions) break;
      AdaptationAction action;
      {
        obs::TraceEmitter::SpanScope plan_span(trace_, "plan");
        plan_span.num("op", static_cast<double>(d->op.value()))
            .str("health", to_string(d->diagnosis.health));
        action =
            d->diagnosis.health == Health::kComputeBottleneck
                ? handle_compute_bottleneck(engine, monitor, working_view, *d)
                : handle_network_bottleneck(engine, monitor, working_view, *d);
        plan_span.str("result", to_string(action.kind));
      }
      if (action.kind == ActionKind::kNone) continue;
      if (tracing) {
        trace_->event("policy_action")
            .str("kind", to_string(action.kind))
            .num("op", action.op.valid()
                           ? static_cast<double>(action.op.value())
                           : -1.0)
            .str("reason", action.reason)
            .num("estimated_transition_sec", action.estimated_transition_sec)
            .num("num_moves", static_cast<double>(action.migration.moves.size()));
      }
      if (action.kind == ActionKind::kReplan) {
        // A re-plan replaces everything; it cannot compose with others.
        if (actions.empty()) actions.push_back(std::move(action));
        break;
      }
      working_view.release_slots(engine.placement(action.op));
      working_view.claim_slots(action.new_placement);
      last_grown_[action.op] = now_;
      actions.push_back(std::move(action));
    }
  };
  run_handlers(bottlenecks);

  // Query-level guard: a steadily growing source backlog with no effective
  // per-operator action means some link runs at/over capacity with the
  // deficit smeared up the backpressure chain (below thresholds, or
  // attributed to a pinned stage). The constrained edge sits directly below
  // the most-downstream backpressured operator; the stage to re-place is
  // that operator's actionable receiver.
  double source_eps = 0.0;
  for (OperatorId src : engine.logical().sources()) {
    source_eps += engine.source_generation_eps(src);
  }
  const double backlog = engine.source_backlog_events();
  // Guard condition: over a second's worth of events parked at the sources
  // and not draining (growing or plateaued -- a plateau means admission is
  // pinned exactly at the constrained rate).
  const bool not_draining =
      prev_backlog_time_ >= 0.0 && now_ > prev_backlog_time_ &&
      (backlog - prev_backlog_events_) / (now_ - prev_backlog_time_) >
          -0.01 * std::max(source_eps, 1.0);
  prev_backlog_events_ = backlog;
  prev_backlog_time_ = now_;
  log(LogLevel::kDebug, "guard check: actions=", actions.size(),
      " not_draining=", not_draining, " backlog=", backlog,
      " source_eps=", source_eps);
  if (actions.empty() && not_draining && backlog > 1.0 * source_eps) {
    const query::LogicalPlan& logical = engine.logical();
    OperatorId pressured;
    for (OperatorId id : logical.topological_order()) {
      if (logical.op(id).is_source()) {
        if (engine.op_metrics(id).backpressured) pressured = id;
        continue;
      }
      for (const auto& d : diags) {
        if (d.op == id && d.backpressure_frac > 0.3) pressured = id;
      }
    }
    const OpDiagnosis* receiver = nullptr;
    if (pressured.valid()) {
      for (OperatorId d_id : logical.downstream(pressured)) {
        for (const auto& d : diags) {
          if (d.op == d_id && d.actionable) receiver = &d;
        }
      }
    }
    if (receiver != nullptr) {
      OpDiagnosis synthesized = *receiver;
      synthesized.diagnosis.health = Health::kNetworkBottleneck;
      synthesized.diagnosis.severity =
          synthesized.observed_input_eps > 0.0
              ? synthesized.upstream_output_eps /
                    synthesized.observed_input_eps
              : 1.0;
      synthesized.diagnosis.detail =
          "growing source backlog (" + std::to_string(backlog) + " events)";
      log(LogLevel::kDebug, "backlog guard: attributing bottleneck to op=",
          synthesized.op.value());
      run_handlers({&synthesized});
    }
  }
  if (actions.empty() && waste != nullptr) {
    // Gradual scale-down (§4.2), suppressed right after growing the same
    // stage and while queued events still need the extra capacity.
    const std::optional<double> grown = last_grown_[waste->op];
    const bool cooling =
        grown.has_value() && now_ - *grown < kScaleDownCooldownSec;
    const bool backlogged =
        engine.source_backlog_events() >
        kScaleDownMaxBacklogSec * std::max(source_eps, 1.0);
    if (!cooling && !backlogged) {
      AdaptationAction action;
      {
        obs::TraceEmitter::SpanScope plan_span(trace_, "plan");
        plan_span.num("op", static_cast<double>(waste->op.value()))
            .str("health", to_string(waste->diagnosis.health));
        action = handle_overprovisioning(engine, monitor, working_view, *waste);
        plan_span.str("result", to_string(action.kind));
      }
      if (action.kind != ActionKind::kNone) {
        if (tracing) {
          trace_->event("policy_action")
              .str("kind", to_string(action.kind))
              .num("op", static_cast<double>(action.op.value()))
              .str("reason", action.reason)
              .num("estimated_transition_sec",
                   action.estimated_transition_sec);
        }
        actions.push_back(std::move(action));
      }
    } else if (tracing) {
      trace_->event("policy_reject")
          .str("kind", to_string(ActionKind::kScaleDown))
          .num("op", static_cast<double>(waste->op.value()))
          .str("why", cooling ? "scale-down cooldown active"
                              : "source backlog above threshold");
    }
  }
  return actions;
}

physical::StageContext AdaptationPolicy::stage_context(
    const engine::Engine& engine,
    const query::OperatorTable<query::OperatorRates>& rates,
    OperatorId op) const {
  const query::LogicalPlan& logical = engine.logical();
  physical::StageContext ctx;
  ctx.parallelism = engine.placement(op).parallelism();
  for (OperatorId u : logical.upstream(op)) {
    const auto& up = logical.op(u);
    const physical::StagePlacement& pl = engine.placement(u);
    const int p = pl.parallelism();
    if (p == 0) continue;
    const double out_eps = rates[u].output_eps;
    for (SiteId s : pl.sites()) {
      ctx.upstream.push_back(physical::TrafficEndpoint{
          s, out_eps * pl.at(s) / p, up.output_event_bytes});
    }
  }
  const auto& me = logical.op(op);
  for (OperatorId d : logical.downstream(op)) {
    const physical::StagePlacement& pl = engine.placement(d);
    const int p = pl.parallelism();
    if (p == 0) continue;
    const double out_eps = rates[op].output_eps;
    for (SiteId s : pl.sites()) {
      ctx.downstream.push_back(physical::TrafficEndpoint{
          s, out_eps * pl.at(s) / p, me.output_event_bytes});
    }
  }
  return ctx;
}

state::MigrationPlan plan_rebalance(const engine::Engine& engine,
                                    OperatorId op,
                                    const physical::StagePlacement& to,
                                    const physical::NetworkView& view,
                                    state::MigrationPlanner& planner,
                                    const std::vector<bool>& dead) {
  const std::size_t n = engine.placement(op).per_site.size();
  const auto is_dead = [&](std::size_t s) {
    return s < dead.size() && dead[s];
  };
  double total_state = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    if (is_dead(s)) continue;
    total_state += engine.state_mb(op, SiteId(static_cast<std::int64_t>(s)));
  }
  const int p_to = to.parallelism();
  if (total_state <= 1e-9 || p_to == 0) return {};

  // Sources: sites holding more than their balanced share must send the
  // excess. Destinations: sites holding less must receive the difference.
  std::vector<state::StateSource> sources;
  std::vector<state::StateDestination> destinations;
  for (std::size_t s = 0; s < n; ++s) {
    if (is_dead(s)) continue;
    const SiteId site(static_cast<std::int64_t>(s));
    const double here = engine.state_mb(op, site);
    const double target = total_state * to.per_site[s] / p_to;
    if (here > target + 1e-9) {
      sources.push_back(state::StateSource{site, here - target});
    } else if (target > here + 1e-9) {
      destinations.push_back(state::StateDestination{site, target - here});
    }
  }
  return planner.plan(sources, destinations, view);
}

state::MigrationPlan AdaptationPolicy::migration_for(
    const engine::Engine& engine, OperatorId op,
    const physical::StagePlacement& to, const physical::NetworkView& view) {
  if (!engine.logical().op(op).stateful()) return {};
  return plan_rebalance(engine, op, to, view, migration_planner_);
}

AdaptationAction AdaptationPolicy::handle_compute_bottleneck(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view, const OpDiagnosis& diag) {
  AdaptationAction none;
  const query::LogicalPlan& logical = engine.logical();
  const auto& op = logical.op(diag.op);
  if (!op.splittable || !op.pinned_sites.empty()) {
    // Cannot add tasks without changing semantics/pins: re-plan instead.
    return config_.allow_replan
               ? try_replan(engine, monitor, view,
                            "compute bottleneck at non-splittable stage")
               : none;
  }
  if (!config_.allow_scale) {
    // Baselines without scaling fall back to re-assignment (may not help a
    // true compute bottleneck but can exploit under-used sites).
    return config_.allow_replan
               ? try_replan(engine, monitor, view, "compute bottleneck")
               : none;
  }

  // The stage's own traffic moves with it: its links count as free.
  const physical::AdjustedView self_view(view, {},
                                         engine.adjacent_link_mbps(diag.op));
  const OperatorWindowStats stats = monitor.stats(diag.op);
  const physical::StagePlacement& current = engine.placement(diag.op);
  const int p = current.parallelism();
  const double lambda_p = std::max(stats.lambda_p, 1.0);

  // DS2-style minimum parallelism: p' = ceil(λ̂_I / λ_P · p), sanity-bounded
  // by the capacity-based estimate (λ_P can be distorted while stalled).
  const int p_ds2 = static_cast<int>(
      std::ceil(diag.expected_input_eps / lambda_p * static_cast<double>(p)));
  const int p_cap = static_cast<int>(std::ceil(
                        diag.expected_input_eps / op.events_per_sec_per_slot)) +
                    1;
  int p_new = std::clamp(std::min(p_ds2, p_cap), p + 1, p + 8);

  // Prefer scaling up within the sites already hosting tasks (§4.2: avoid
  // spreading state over the WAN); spill to the ILP only if local slots run
  // out.
  physical::StagePlacement grown = current;
  int needed = p_new - p;
  for (SiteId s : current.sites()) {
    if (needed == 0) break;
    const int free = view.available_slots(s);
    const int take = std::min(free, needed);
    grown.per_site[static_cast<std::size_t>(s.value())] += take;
    needed -= take;
  }

  AdaptationAction action;
  action.op = diag.op;
  if (needed == 0) {
    action.kind = ActionKind::kScaleUp;
    action.new_placement = grown;
  } else {
    // Remote spill: ILP with the current tasks pinned in place.
    const auto rates = monitor.estimate_actual_rates(logical);
    physical::StageContext ctx = stage_context(engine, rates, diag.op);
    ctx.min_per_site = current.per_site;
    // The stage's own slots stay available to it (extra_slots), and the
    // floor keeps its existing tasks in place. If the DS2 target does not
    // fit the remaining slots, take the largest feasible step toward it --
    // partial relief beats none (§6.2 limits tasks per iteration anyway).
    std::optional<physical::PlacementOutcome> outcome;
    for (int p_try = p_new; p_try > p && !outcome.has_value(); --p_try) {
      ctx.parallelism = p_try;
      outcome = scheduler_.place_stage(ctx, self_view, current.per_site);
    }
    if (!outcome.has_value()) {
      // Take whatever local growth we got, if any.
      if (grown.parallelism() > p) {
        action.kind = ActionKind::kScaleUp;
        action.new_placement = grown;
      } else {
        return config_.allow_replan
                   ? try_replan(engine, monitor, view,
                                "compute bottleneck, no slots")
                   : none;
      }
    } else {
      action.kind = ActionKind::kScaleOut;
      action.new_placement = outcome->placement;
    }
  }
  action.migration =
      migration_for(engine, diag.op, action.new_placement, self_view);
  action.estimated_transition_sec = action.migration.estimated_transition_sec;
  action.reason = "compute bottleneck: " + diag.diagnosis.detail;
  return action;
}

AdaptationAction AdaptationPolicy::handle_network_bottleneck(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view, const OpDiagnosis& diag) {
  AdaptationAction none;
  const query::LogicalPlan& logical = engine.logical();
  const auto& op = logical.op(diag.op);

  // Non-splittable or pinned stages cannot be re-placed piecemeal.
  if (!op.splittable || !op.pinned_sites.empty()) {
    return config_.allow_replan
               ? try_replan(engine, monitor, view,
                            "network bottleneck at non-splittable stage")
               : none;
  }

  // Stateless query: re-optimize the whole pipeline -- nothing to migrate,
  // and re-planning subsumes re-assignment (§6.2).
  if (query_is_stateless(logical) && config_.allow_replan) {
    AdaptationAction replan = try_replan(
        engine, monitor, view, "network bottleneck, stateless query");
    if (replan.kind != ActionKind::kNone) return replan;
  }

  // The stage's own traffic moves with it: its links count as free.
  const physical::AdjustedView self_view(view, {},
                                         engine.adjacent_link_mbps(diag.op));
  const auto rates = monitor.estimate_actual_rates(logical);
  const physical::StagePlacement& current = engine.placement(diag.op);
  const int p = current.parallelism();

  // 1) Re-assign at the same parallelism (the stage's own slots are free to
  // reuse).
  // Escalation: a stage re-assigned (or scaled) within the cooldown that is
  // bottlenecked *again* gains nothing from another re-assignment -- move
  // straight to the next technique.
  const std::optional<double> grown = last_grown_[diag.op];
  const bool recently_adapted =
      grown.has_value() && now_ - *grown < kScaleDownCooldownSec;

  if (config_.allow_reassign && !recently_adapted) {
    physical::StageContext ctx = stage_context(engine, rates, diag.op);
    ctx.parallelism = p;
    auto outcome = scheduler_.place_stage(ctx, self_view, current.per_site);
    if (!outcome.has_value()) {
      // Best effort: a placement that shaves the headroom is still far
      // better than the congested status quo when scaling is off the
      // table (and when it is not, a feasible-with-headroom scale-out is
      // preferred below, so only accept the relaxed placement here if it
      // is the only option).
      if (!config_.allow_scale || p >= kPMax) {
        const physical::Scheduler relaxed = scheduler_.with_alpha(
            std::min(0.95, scheduler_.config().alpha + 0.15));
        outcome = relaxed.place_stage(ctx, self_view, current.per_site);
      }
    }
    log(LogLevel::kDebug, "re-assign op=", diag.op.value(), ": ",
        !outcome.has_value()
            ? "infeasible"
            : (outcome->placement == current ? "keeps current placement"
                                             : "found alternative"));
    if (outcome.has_value() && !(outcome->placement == current)) {
      state::MigrationPlan migration =
          migration_for(engine, diag.op, outcome->placement, self_view);
      if (migration.estimated_transition_sec <= kTMaxSec) {
        AdaptationAction action;
        action.kind = ActionKind::kReassign;
        action.op = diag.op;
        action.new_placement = outcome->placement;
        action.migration = std::move(migration);
        action.estimated_transition_sec =
            action.migration.estimated_transition_sec;
        action.reason = "network bottleneck: " + diag.diagnosis.detail;
        return action;
      }
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->event("policy_reject")
            .str("kind", to_string(ActionKind::kReassign))
            .num("op", static_cast<double>(diag.op.value()))
            .str("why", "migration would exceed t_max")
            .num("estimated_transition_sec",
                 migration.estimated_transition_sec)
            .num("t_max_sec", kTMaxSec);
      }
    } else if (trace_ != nullptr && trace_->enabled()) {
      trace_->event("policy_reject")
          .str("kind", to_string(ActionKind::kReassign))
          .num("op", static_cast<double>(diag.op.value()))
          .str("why", !outcome.has_value() ? "no feasible placement"
                                           : "keeps current placement");
    }
  } else if (recently_adapted && trace_ != nullptr && trace_->enabled()) {
    trace_->event("policy_reject")
        .str("kind", to_string(ActionKind::kReassign))
        .num("op", static_cast<double>(diag.op.value()))
        .str("why", "recently adapted; escalating");
  }

  // 2) Scale out: more tasks spread the stream (and the state partitions)
  // over more links.
  if (config_.allow_scale && p < kPMax) {
    physical::StageContext ctx = stage_context(engine, rates, diag.op);
    // The stage's own vacated slots stay countable at every candidate
    // parallelism (threaded through to each place_stage probe).
    auto outcome = scheduler_.place_with_min_parallelism(
        ctx, self_view, p + 1, kPMax, current.per_site);
    if (outcome.has_value()) {
      AdaptationAction action;
      action.kind = ActionKind::kScaleOut;
      action.op = diag.op;
      action.new_placement = outcome->placement;
      action.migration =
          migration_for(engine, diag.op, outcome->placement, self_view);
      action.estimated_transition_sec =
          action.migration.estimated_transition_sec;
      action.reason = "network bottleneck: " + diag.diagnosis.detail;
      return action;
    }
  }

  // 3) Parallelism exhausted (p' would exceed p_max): re-plan if the state
  // allows it.
  if (config_.allow_replan) {
    return try_replan(engine, monitor, view,
                      "network bottleneck, parallelism at p_max");
  }
  return none;
}

AdaptationAction AdaptationPolicy::handle_overprovisioning(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view, const OpDiagnosis& diag) {
  AdaptationAction none;
  if (!config_.allow_scale) return none;
  const query::LogicalPlan& logical = engine.logical();
  const auto& op = logical.op(diag.op);
  // Pinned stages run one task per pinned site by design (chained edge
  // pre-processing, sinks); removing one would break their routing.
  if (!op.pinned_sites.empty() || !op.splittable) return none;
  const physical::StagePlacement& current = engine.placement(diag.op);
  const int p = current.parallelism();
  if (p <= 1) return none;

  // Candidate sites to drop one task from, preferring sites not co-located
  // with neighbor tasks (their traffic is pure WAN, §4.2).
  std::set<std::int64_t> neighbor_sites;
  for (OperatorId u : logical.upstream(diag.op)) {
    for (SiteId s : engine.placement(u).sites()) {
      neighbor_sites.insert(s.value());
    }
  }
  for (OperatorId d : logical.downstream(diag.op)) {
    for (SiteId s : engine.placement(d).sites()) {
      neighbor_sites.insert(s.value());
    }
  }
  std::vector<SiteId> candidates = current.sites();
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](SiteId a, SiteId b) {
                     return !neighbor_sites.contains(a.value()) &&
                            neighbor_sites.contains(b.value());
                   });

  // The stage's own traffic moves with it: its links count as free.
  const physical::AdjustedView self_view(view, {},
                                         engine.adjacent_link_mbps(diag.op));
  const auto rates = monitor.estimate_actual_rates(logical);
  const double alpha = scheduler_.config().alpha;
  for (SiteId victim : candidates) {
    physical::StagePlacement shrunk = current;
    --shrunk.per_site[static_cast<std::size_t>(victim.value())];
    // The survivors must absorb the workload: compute and per-link
    // bandwidth checks (§4.2: every remaining task must have sufficient
    // bandwidth and processing capacity).
    const double capacity =
        static_cast<double>(p - 1) * op.events_per_sec_per_slot;
    if (diag.expected_input_eps > capacity * 0.9) continue;
    physical::StageContext ctx = stage_context(engine, rates, diag.op);
    bool feasible = true;
    for (SiteId s : shrunk.sites()) {
      const double share = static_cast<double>(shrunk.at(s)) /
                           static_cast<double>(p - 1);
      for (const auto& u : ctx.upstream) {
        if (u.site == s) continue;
        if (stream_mbps(u.events_per_sec * share, u.event_bytes) >
            alpha * self_view.available_mbps(u.site, s)) {
          feasible = false;
          break;
        }
      }
      if (!feasible) break;
      for (const auto& d : ctx.downstream) {
        if (d.site == s) continue;
        if (stream_mbps(d.events_per_sec * share, d.event_bytes) >
            alpha * self_view.available_mbps(s, d.site)) {
          feasible = false;
          break;
        }
      }
      if (!feasible) break;
    }
    if (!feasible) continue;

    AdaptationAction action;
    action.kind = ActionKind::kScaleDown;
    action.op = diag.op;
    action.new_placement = shrunk;
    action.migration = migration_for(engine, diag.op, shrunk, self_view);
    action.estimated_transition_sec =
        action.migration.estimated_transition_sec;
    action.reason = "overprovisioned: " + diag.diagnosis.detail;
    return action;
  }
  return none;
}

std::vector<AdaptationAction> AdaptationPolicy::plan_recovery(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view,
    const std::vector<SiteId>& dead_sites) {
  std::vector<AdaptationAction> actions;
  if (dead_sites.empty()) return actions;

  const query::LogicalPlan& logical = engine.logical();
  last_grown_.resize(logical.num_operators());
  std::vector<bool> dead(view.num_sites(), false);
  std::string dead_list;
  for (SiteId s : dead_sites) {
    dead[static_cast<std::size_t>(s.value())] = true;
    if (!dead_list.empty()) dead_list += ",";
    dead_list += std::to_string(s.value());
  }

  // Recovery may fire before the first monitoring window closes: fall back
  // to the engine's configured source rates when no observations exist yet.
  const query::OperatorTable<query::OperatorRates> rates =
      monitor.has_data() ? monitor.estimate_actual_rates(logical)
                         : engine.generation_rates();

  // Region decomposition applies when every dead site falls in one failure
  // domain (the localized-failure case: one region lost). A mixed-domain
  // failure re-solves globally as before. kNoDomain disables the fast path.
  constexpr int kNoDomain = std::numeric_limits<int>::min();
  int localized_domain = kNoDomain;
  if (config_.region_decomposition && !config_.site_domains.empty()) {
    bool first = true;
    for (SiteId s : dead_sites) {
      const auto idx = static_cast<std::size_t>(s.value());
      const int d = idx < config_.site_domains.size()
                        ? config_.site_domains[idx]
                        : -1;
      if (first) {
        localized_domain = d;
        first = false;
      } else if (localized_domain != d) {
        localized_domain = kNoDomain;
        break;
      }
    }
  }

  physical::AdjustedView working_view(view);
  for (OperatorId id : logical.topological_order()) {
    const auto& op = logical.op(id);
    const physical::StagePlacement& current = engine.placement(id);
    bool affected = false;
    for (SiteId s : dead_sites) {
      if (current.at(s) > 0) affected = true;
    }
    if (!affected) continue;
    obs::TraceEmitter::SpanScope plan_span(trace_, "plan");
    plan_span.num("op", static_cast<double>(id.value()))
        .str("health", "recovery");
    // Pinned stages (sources, sinks) cannot leave their sites; their tasks
    // wait for the site to come back. Same for non-splittable stages.
    if (!op.pinned_sites.empty() || !op.splittable) {
      plan_span.str("result", "skipped-pinned");
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->event("policy_reject")
            .str("kind", "recovery")
            .num("op", static_cast<double>(id.value()))
            .str("why", "pinned or non-splittable stage on failed site");
      }
      continue;
    }

    const physical::AdjustedView self_view(working_view, {},
                                           engine.adjacent_link_mbps(id));
    physical::StageContext ctx = stage_context(engine, rates, id);
    // The vacated slots on *surviving* sites stay usable by the re-placed
    // stage; slots on the dead site must not be offered back to the ILP.
    std::vector<int> extra = current.per_site;
    for (std::size_t s = 0; s < extra.size(); ++s) {
      if (dead[s]) extra[s] = 0;
    }
    // Same parallelism if the surviving sites can host it; otherwise the
    // largest feasible task count (degraded capacity beats none).
    const int p = current.parallelism();
    std::optional<physical::PlacementOutcome> outcome;
    if (localized_domain != kNoDomain) {
      // Decomposed re-plan (DESIGN.md §14): out-of-region survivors keep
      // exactly their current tasks, so the solver's free variables are the
      // affected region's sites only. Infeasible (the region cannot absorb
      // the lost tasks at full parallelism) falls through to the global
      // degradation sweep below.
      physical::StageContext pinned = ctx;
      pinned.parallelism = p;
      pinned.min_per_site.assign(view.num_sites(), 0);
      pinned.max_per_site.assign(view.num_sites(), -1);
      for (std::size_t s = 0; s < view.num_sites(); ++s) {
        if (dead[s]) continue;
        const int domain = s < config_.site_domains.size()
                               ? config_.site_domains[s]
                               : -1;
        if (domain == localized_domain) continue;
        pinned.min_per_site[s] = current.per_site[s];
        pinned.max_per_site[s] = current.per_site[s];
      }
      outcome = scheduler_.place_stage(pinned, self_view, extra);
    }
    for (int p_try = p; p_try >= 1 && !outcome.has_value(); --p_try) {
      ctx.parallelism = p_try;
      outcome = scheduler_.place_stage(ctx, self_view, extra);
    }
    if (!outcome.has_value()) {
      plan_span.str("result", "infeasible");
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->event("policy_reject")
            .str("kind", "recovery")
            .num("op", static_cast<double>(id.value()))
            .str("why", "no feasible placement on surviving sites");
      }
      continue;
    }
    plan_span.str("result", to_string(ActionKind::kReassign));

    AdaptationAction action;
    action.kind = ActionKind::kReassign;
    action.op = id;
    action.new_placement = outcome->placement;
    // Balance the *surviving* state across the new placement. State that
    // lived on the dead site is not a migration source (nothing to read
    // there); it is recovered via checkpoint replay when the site returns.
    if (op.stateful()) {
      action.migration = plan_rebalance(engine, id, action.new_placement,
                                        self_view, migration_planner_, dead);
    }
    action.estimated_transition_sec =
        action.migration.estimated_transition_sec;
    action.reason = "failure recovery: site " + dead_list + " confirmed failed";
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->event("policy_action")
          .str("kind", to_string(action.kind))
          .num("op", static_cast<double>(id.value()))
          .str("reason", action.reason)
          .num("estimated_transition_sec", action.estimated_transition_sec)
          .num("num_moves",
               static_cast<double>(action.migration.moves.size()));
    }
    // Credit only the slots vacated on *surviving* sites back to the view:
    // a slot freed on the dead site must not make it look placeable to the
    // next stranded stage in this same pass.
    physical::StagePlacement vacated = current;
    for (std::size_t s = 0; s < vacated.per_site.size(); ++s) {
      if (dead[s]) vacated.per_site[s] = 0;
    }
    working_view.release_slots(vacated);
    working_view.claim_slots(action.new_placement);
    last_grown_[id] = now_;
    actions.push_back(std::move(action));
  }
  return actions;
}

AdaptationAction AdaptationPolicy::consider_replan(
    const engine::Engine& engine, const GlobalMetricMonitor& monitor,
    const physical::NetworkView& view, const std::string& why) {
  if (!config_.allow_replan || !monitor.has_data()) return {};
  return try_replan(engine, monitor, view, why);
}

AdaptationAction AdaptationPolicy::try_replan(const engine::Engine& engine,
                                              const GlobalMetricMonitor& monitor,
                                              const physical::NetworkView& view,
                                              const std::string& why) {
  AdaptationAction none;
  obs::TraceEmitter::SpanScope span(trace_, "replan_search");
  span.str("why", why);
  const query::LogicalPlan& current_logical = engine.logical();

  // Rates for the current plan, and source rates by name to transplant into
  // candidates (their operator ids differ). The rates are inflated by the
  // backlog factor so the chosen plan can also *drain* the queued events,
  // not merely keep up with the live rate.
  const auto current_rates = monitor.estimate_actual_rates(current_logical);
  double total_source_eps = 0.0;
  for (OperatorId src : current_logical.sources()) {
    total_source_eps += monitor.actual_source_eps(src);
  }
  const double backlog_factor =
      total_source_eps > 0.0
          ? 1.0 + engine.source_backlog_events() / kDrainTargetSec /
                      total_source_eps
          : 1.0;
  std::unordered_map<std::string, double> source_eps_by_name;
  for (OperatorId src : current_logical.sources()) {
    source_eps_by_name[current_logical.op(src).name] =
        monitor.actual_source_eps(src) * backlog_factor;
  }
  // Current parallelism by signature, to carry into matching operators.
  std::unordered_map<std::string, int> parallelism_by_sig;
  for (const auto& op : current_logical.operators()) {
    parallelism_by_sig[current_logical.signature(op.id)] =
        engine.placement(op.id).parallelism();
  }

  // The whole execution vacates: its traffic and slots are available again.
  const physical::AdjustedView bw_view(view, {}, engine.all_link_mbps());
  const physical::AdjustedView replan_view(bw_view, engine.slots_in_use());
  const double alpha = scheduler_.config().alpha;
  const double current_cost =
      estimate_plan_cost(current_logical, engine.physical_plan(),
                         current_rates, replan_view, alpha);

  std::optional<query::LogicalPlan> best_logical;
  std::optional<physical::PhysicalPlan> best_physical;
  double best_boundary = 0.0;
  double best_cost = current_cost * config_.replan_improvement;
  std::size_t candidates = 0;

  for (query::ReplanCandidate& rc :
       planner_.enumerate_replans(current_logical)) {
    ++candidates;
    query::LogicalPlan& candidate = rc.plan;
    query::OperatorTable<double> src_rates(candidate.num_operators());
    for (OperatorId src : candidate.sources()) {
      const auto it = source_eps_by_name.find(candidate.op(src).name);
      if (it != source_eps_by_name.end()) src_rates[src] = it->second;
    }
    const auto rates = candidate.estimate_rates(src_rates);
    query::OperatorTable<int> parallelism(candidate.num_operators(), 1);
    for (const auto& op : candidate.operators()) {
      const auto it = parallelism_by_sig.find(candidate.signature(op.id));
      if (it != parallelism_by_sig.end()) parallelism[op.id] = it->second;
    }
    // Without scaling a candidate keeps its carried parallelism: no
    // scale-out search when it does not fit.
    auto placed = physical::place_plan(candidate, rates, parallelism,
                                       replan_view, scheduler_,
                                       config_.allow_scale ? kPMax : 0);
    if (!placed.has_value()) continue;
    const double cost =
        estimate_plan_cost(candidate, placed->plan, rates, replan_view, alpha);
    if (cost < best_cost) {
      best_cost = cost;
      best_logical = std::move(candidate);
      best_physical = std::move(placed->plan);
      best_boundary = rc.boundary_window_sec;
    }
  }
  span.num("candidates", static_cast<double>(candidates))
      .num("current_cost", current_cost)
      .flag("accepted", best_logical.has_value());
  if (!best_logical.has_value()) return none;
  span.num("best_cost", best_cost);

  // State migration for matched stateful operators whose placement moves.
  AdaptationAction action;
  action.kind = ActionKind::kReplan;
  for (const auto& [old_op, new_op] :
       best_logical->matching_operators(current_logical)) {
    if (!current_logical.op(old_op).stateful()) continue;
    const physical::StagePlacement& to =
        best_physical->stage_for(new_op).placement;
    state::MigrationPlan part = migration_for(engine, old_op, to, bw_view);
    for (auto& m : part.moves) action.migration.moves.push_back(m);
  }
  action.migration.estimated_transition_sec =
      state::MigrationPlanner::estimate_makespan(action.migration.moves,
                                                 bw_view);
  action.estimated_transition_sec =
      action.migration.estimated_transition_sec;
  action.new_logical = std::move(best_logical);
  action.new_physical = std::move(best_physical);
  action.boundary_window_sec = best_boundary;
  action.reason = "re-plan: " + why;
  return action;
}

}  // namespace wasp::adapt
