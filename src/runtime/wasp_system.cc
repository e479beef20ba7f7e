#include "runtime/wasp_system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string_view>
#include <utility>

#include "common/log.h"
#include "exec/thread_pool.h"
#include "physical/physical_plan.h"

namespace wasp::runtime {

namespace {

// The one mode-name table: to_string() prints a mode's first name, and
// "static" is the sweep's alias of no-adapt.
constexpr std::pair<std::string_view, AdaptationMode> kModeNames[] = {
    {"no-adapt", AdaptationMode::kNoAdapt},
    {"degrade", AdaptationMode::kDegrade},
    {"wasp", AdaptationMode::kWasp},
    {"re-assign", AdaptationMode::kReassignOnly},
    {"scale", AdaptationMode::kScaleOnly},
    {"re-plan", AdaptationMode::kReplanOnly},
    {"hybrid", AdaptationMode::kHybrid},
    {"static", AdaptationMode::kNoAdapt},
};

// The adaptation loop's monitoring interval (§8.2: 40 s).
constexpr double kMonitoringIntervalSec = 40.0;
// Minimum transition pause even with nothing to migrate (task teardown/
// deploy round-trips).
constexpr double kRedeploySec = 2.0;
// Cap of a transition retry's capped exponential backoff.
constexpr double kTransitionBackoffMaxSec = 60.0;

}  // namespace

const char* to_string(AdaptationMode mode) {
  for (const auto& [name, m] : kModeNames) {
    if (m == mode) return name.data();
  }
  return "?";
}

std::optional<AdaptationMode> parse_mode(std::string_view name) {
  for (const auto& [known, m] : kModeNames) {
    if (known == name) return m;
  }
  return std::nullopt;
}

// The control plane's network view: bandwidth from the (noisy, periodically
// refreshed) WAN monitor, latency from the topology (stable, measured once),
// slots from live accounting minus failed sites.
class WaspSystem::MonitorView final : public physical::NetworkView {
 public:
  MonitorView(const WaspSystem& system) : system_(system) {}

  [[nodiscard]] std::size_t num_sites() const override {
    return system_.network_.topology().num_sites();
  }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override {
    return system_.wan_monitor_.available(from, to);
  }
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return system_.network_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    const auto s = static_cast<std::size_t>(site.value());
    // Suspicion, not ground truth: the control plane withholds a site's
    // slots once the heartbeat detector distrusts it, and not before --
    // detection latency is part of the dynamics (the engine's failure flags
    // are never read here).
    if (!system_.detector_.trusted(site)) return 0;
    int used = 0;
    if (system_.engine_ != nullptr) used = system_.engine_->slots_in_use(site);
    if (system_.config_.peer_slot_usage) {
      const auto peers = system_.config_.peer_slot_usage();
      if (s < peers.size()) used += peers[s];
    }
    // Hot-standby reservations: slots held warm for passive replicas are not
    // offered to the placement ILP, so adaptation can't double-book them.
    if (system_.standby_ != nullptr) {
      const auto& reserved = system_.standby_->reserved_slots();
      if (s < reserved.size()) used += reserved[s];
    }
    return system_.network_.topology().sites()[s].slots - used;
  }

 private:
  const WaspSystem& system_;
};

WaspSystem::WaspSystem(net::Network& network, workload::QuerySpec spec,
                       const workload::WorkloadPattern& pattern,
                       SystemConfig config)
    : network_(network),
      pattern_(pattern),
      config_(config),
      rng_(config.seed),
      wan_monitor_(network, net::WanMonitor::Config{},
                   Rng(config.seed ^ 0x9E37)),
      detector_(network),
      scheduler_(config.scheduler),
      planner_(),
      recorder_(&metrics_, &trace_),
      backoff_rng_(config.seed ^ 0xB0FF) {
  recovery_abandoned_.assign(network_.topology().num_sites(), false);
  // Map the adaptation mode onto the policy switches (§8.5 baselines).
  adapt::AdaptationPolicy::Config pc;
  switch (config_.mode) {
    case AdaptationMode::kNoAdapt:
    case AdaptationMode::kDegrade:
      pc.allow_reassign = pc.allow_scale = pc.allow_replan = false;
      break;
    case AdaptationMode::kWasp:
    case AdaptationMode::kHybrid:
      break;
    case AdaptationMode::kReassignOnly:
      pc.allow_scale = false;
      pc.allow_replan = false;
      break;
    case AdaptationMode::kScaleOnly:
      pc.allow_replan = false;
      break;
    case AdaptationMode::kReplanOnly:
      pc.allow_reassign = false;
      pc.allow_scale = false;
      break;
  }
  // Region decomposition (DESIGN.md §14) reads the topology's per-site
  // failure-domain labels.
  pc.region_decomposition = config_.region_decomposition;
  for (const net::Site& s : network_.topology().sites()) {
    pc.site_domains.push_back(s.domain);
  }
  policy_ = std::make_unique<adapt::AdaptationPolicy>(
      pc, scheduler_, planner_,
      state::MigrationPlanner(state::MigrationStrategy::kNetworkAware,
                              rng_.fork()));

  // Observability wiring: one emitter over the configured sink, shared (as a
  // raw pointer) by every layer. The recorder writes its logs' trace events
  // and counters itself.
  if (config_.trace_sink != nullptr) {
    trace_ = obs::TraceEmitter(config_.trace_sink);
    network_.set_trace(&trace_);
  }
  policy_->set_trace(&trace_);
  detector_.set_trace(&trace_);
  scheduler_.set_trace(&trace_);  // deploy-time placement spans
  // Tick-phase profiler (DESIGN.md §13): enabled only by --profile; a
  // disabled profiler is a null hook everywhere it is wired.
  profiler_.set_enabled(config_.profile);
  scheduler_.set_profiler(&profiler_);
  policy_->set_profiler(&profiler_);
  if (config_.slo.has_value() && config_.slo->any()) {
    slo_watchdog_.emplace(*config_.slo, &trace_, &metrics_);
  }

  // Intra-run parallelism: one persistent pool shared by the engine's tick
  // regions and the network's per-link waterfills. The pool has threads-1
  // workers; the calling thread participates in every region, so total
  // concurrency is config_.threads.
  if (config_.threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(config_.threads - 1);
    network_.set_pool(pool_.get());
    // Busy-time clock reads in the pool are profile-gated; the event counts
    // themselves are always on (relaxed increments).
    if (config_.profile) pool_->set_stats_timing(true);
  }

  // Hot-standby replication: the manager plans replica placements in the
  // background and keeps them warm with delta syncs; the promotion decision
  // itself lives in maybe_recover (promote_standbys).
  if (config_.standby_replicas > 0) {
    standby_ = std::make_unique<resilience::StandbyManager>(
        network_, config_.standby_replicas);
    standby_->set_trace(&trace_);
    standby_->set_profiler(&profiler_);
  }

  for (OperatorId src : spec.plan.sources()) {
    pattern_source_ids_.emplace(spec.plan.op(src).name, src);
  }
  deploy(std::move(spec));
}

WaspSystem::~WaspSystem() {
  // Final profile flush: totals accumulated since the last periodic emit
  // must still reach the trace (interrupted runs included).
  if (profiler_.enabled() && trace_.enabled() &&
      tick_count_ > last_profile_emit_) {
    emit_profile_events();
  }
  if (slo_watchdog_.has_value()) slo_watchdog_->finish(now_);
  // Close every span the run left open so the emitted trace stays begin/end
  // balanced (wasp_trace validate asserts this). Must happen in the body:
  // trace_ is destroyed before detector_ by member ordering.
  if (trace_.enabled()) {
    if (transition_.has_value()) {
      for (std::uint64_t span : transition_->transfer_spans) {
        trace_.end_span(span).str("status", "unfinished");
      }
      trace_.end_span(transition_->root_span).str("status", "unfinished");
    }
    trace_.end_span(adaptation_span_).str("status", "unfinished");
    trace_.end_span(stabilize_span_).str("status", "unfinished");
    trace_.end_span(stabilizing_root_).str("status", "unfinished");
    detector_.close_open_spans(now_);
  }
  // The Network may be shared across systems (runtime::Cluster); only detach
  // the trace hook if it still points at this system's emitter.
  if (network_.trace() == &trace_) network_.set_trace(nullptr);
  // Detach the pool before it is destroyed: the Network outlives this system.
  if (pool_ != nullptr && network_.pool() == pool_.get()) {
    network_.set_pool(nullptr);
  }
}

void WaspSystem::deploy(workload::QuerySpec spec) {
  // Initial WAN measurement so the scheduler has bandwidth estimates.
  wan_monitor_.probe_now(0.0);
  const MonitorView view(*this);

  // Source rates at t = 0 drive the deployment-time cost model.
  auto initial_source_rates = [&](const query::LogicalPlan& plan) {
    query::OperatorTable<double> rates(plan.num_operators());
    for (OperatorId src : plan.sources()) {
      const auto it = pattern_source_ids_.find(plan.op(src).name);
      if (it == pattern_source_ids_.end()) continue;
      for (SiteId site : plan.op(src).pinned_sites) {
        rates[src] += pattern_.rate(it->second, site, 0.0);
      }
    }
    return rates;
  };

  // Joint plan/placement optimization: price every candidate logical plan
  // and deploy the cheapest (Fig. 1 pipeline; §4.3).
  std::optional<query::LogicalPlan> best_logical;
  std::optional<physical::PlanPlacement> best_placed;
  double best_cost = 0.0;
  for (query::LogicalPlan& candidate : planner_.enumerate(spec.plan)) {
    const auto rates =
        candidate.estimate_rates(initial_source_rates(candidate));
    const query::OperatorTable<int> parallelism(candidate.num_operators(), 1);
    auto placed =
        physical::place_plan(candidate, rates, parallelism, view, scheduler_,
                             adapt::AdaptationPolicy::kPMax);
    if (!placed.has_value()) continue;
    const double cost =
        adapt::estimate_plan_cost(candidate, placed->plan, rates, view,
                                  scheduler_.config().alpha);
    if (!best_logical.has_value() || cost < best_cost) {
      best_cost = cost;
      best_logical = std::move(candidate);
      best_placed = std::move(placed);
    }
  }
  // Fall back to the original plan with greedy feasibility relaxation: place
  // every unpinned stage at the least-loaded data center.
  if (!best_logical.has_value()) {
    log(LogLevel::kWarn,
        "no WAN-feasible initial placement; using fallback deployment");
    physical::PhysicalPlan fallback;
    // Least-loaded site by slots.
    SiteId hub;
    int best_slots = -1;
    for (const auto& site : network_.topology().sites()) {
      if (site.slots > best_slots) {
        best_slots = site.slots;
        hub = site.id;
      }
    }
    for (OperatorId id : spec.plan.topological_order()) {
      const auto& op = spec.plan.op(id);
      physical::StagePlacement placement;
      placement.per_site.assign(network_.topology().num_sites(), 0);
      if (!op.pinned_sites.empty()) {
        for (SiteId s : op.pinned_sites) {
          ++placement.per_site[static_cast<std::size_t>(s.value())];
        }
      } else {
        placement.per_site[static_cast<std::size_t>(hub.value())] = 1;
      }
      fallback.add_stage(id, placement);
    }
    best_logical = std::move(spec.plan);
    best_placed = physical::PlanPlacement{std::move(fallback), 0.0};
  }

  engine_ = std::make_unique<engine::Engine>(
      std::move(*best_logical), std::move(best_placed->plan), network_,
      engine::EngineConfig{
          .degrade = config_.mode == AdaptationMode::kDegrade ||
                     config_.mode == AdaptationMode::kHybrid,
          .slo_sec = config_.slo_sec,
          .trace = &trace_,
          .metrics = &metrics_,
          .profiler = &profiler_,
          .pool = pool_.get()});
  initial_tasks_ = engine_->physical_plan().total_tasks();
  apply_workload();
}

void WaspSystem::apply_workload() {
  const query::LogicalPlan& plan = engine_->logical();
  for (OperatorId src : engine_->source_ids()) {
    const auto it = pattern_source_ids_.find(plan.op(src).name);
    if (it == pattern_source_ids_.end()) continue;
    for (SiteId site : plan.op(src).pinned_sites) {
      engine_->set_source_rate(src, site, pattern_.rate(it->second, site, now_));
    }
  }
}

void WaspSystem::step(bool drive_network) {
  // Tick-phase accounting (DESIGN.md §13): a root "step" frame plus a chain
  // of top-level segments, one clock read per boundary, shared where frames
  // meet. Pure observer: the profiler touches nothing but its own
  // accumulators.
  obs::Profiler::Scope profile_step(&profiler_, obs::Phase::kStep);
  obs::Profiler::Chain profile(&profiler_);
  now_ += engine::kTickSec;
  trace_.set_now(now_);
  profile.next_at_last_read(obs::Phase::kWorkload);
  apply_workload();
  wan_monitor_.tick(now_);
  profile.next(obs::Phase::kWaterfill);
  if (drive_network) network_.step(now_, engine::kTickSec);
  // The engine's own inclusive "engine" frame opens and closes with the
  // reads that end waterfill and begin monitor.
  profile.close_at_next_read();
  engine_->tick(now_);
  profile.next_at_last_read(obs::Phase::kMonitorExtract);
  metric_monitor_.observe(*engine_, now_);
  profile.next(obs::Phase::kControl);

  // The control plane (detector, adaptation, transition management) freezes
  // during an injected stall; the data plane above keeps running.
  if (!control_stalled()) {
    // The alive callback is a member: a capturing lambda wrapped into
    // std::function every tick would heap-allocate each time.
    if (!site_alive_) {
      site_alive_ = [this](SiteId s) { return !engine_->site_failed(s); };
    }
    detector_.tick(now_, site_alive_);
    for (const faults::HealthTransition& ht : detector_.take_transitions()) {
      recorder_.record_health_change({.t = now_,
                                      .kind = faults::change_kind(ht.to),
                                      .site = ht.site.value(),
                                      .detail = to_string(ht.from)});
      if (ht.to == faults::SiteHealth::kConfirmedFailed) {
        // Anchor for the recovery time-to-stabilize metric: measured from
        // the *last* confirmation of the episode to stabilization.
        last_confirm_at_ = now_;
      }
      if (ht.to == faults::SiteHealth::kTrusted) {
        // A re-trusted site wipes its abandon flag: recovery may be
        // attempted afresh if it fails again later.
        recovery_abandoned_[static_cast<std::size_t>(ht.site.value())] =
            false;
        if (recovery_degrade_active_ &&
            std::none_of(recovery_abandoned_.begin(),
                         recovery_abandoned_.end(),
                         [](bool b) { return b; })) {
          recovery_degrade_active_ = false;
          if (config_.mode != AdaptationMode::kDegrade &&
              config_.mode != AdaptationMode::kHybrid) {
            engine_->set_degrade(false);
          }
          recorder_.record_recovery(
              {.t = now_, .kind = "degrade_off", .site = ht.site.value(),
               .detail = "all abandoned sites re-trusted"});
        }
      }
    }

    // Standby upkeep runs with the rest of the control plane (and freezes
    // with it): pump sync flows, drop dead replicas, re-plan and re-sync at
    // the configured cadence. The trust predicate is a member for the same
    // no-per-tick-allocation reason as site_alive_.
    if (standby_ != nullptr) {
      if (!site_trusted_) {
        site_trusted_ = [this](SiteId s) { return detector_.trusted(s); };
      }
      const MonitorView view(*this);
      standby_->tick(now_, *engine_, scheduler_, view, site_trusted_);
    }

    if (transition_.has_value()) {
      std::string why;
      if (transition_compromised(&why)) {
        abort_transition(why);
      } else {
        // Migration complete when every bulk flow has drained and the
        // minimum redeploy pause elapsed.
        bool done = now_ - transition_->started_at >= kRedeploySec;
        for (FlowId f : transition_->bulk_flows) {
          if (network_.has_flow(f) && !network_.flow(f).done) done = false;
        }
        if (done) finalize_transition();
      }
    } else if (pending_boundary_.has_value()) {
      // A boundary-aligned re-plan waits for the orphaned window's state to
      // re-initialize (§4.3).
      const double w = pending_boundary_->boundary_window_sec;
      if (std::fmod(now_, w) < engine::kTickSec) {
        std::vector<adapt::AdaptationAction> actions;
        actions.push_back(std::move(*pending_boundary_));
        pending_boundary_.reset();
        begin_transition(std::move(actions));
      }
    } else {
      maybe_recover();
      if (!transition_.has_value()) maybe_adapt();
    }
    watch_stabilization();
  }

  profile.next(obs::Phase::kRecord);
  const auto& m = engine_->last_tick();
  recorder_.record_tick(
      now_, m.delay_sec, m.processing_ratio,
      initial_tasks_ > 0
          ? static_cast<double>(engine_->total_parallelism()) / initial_tasks_
          : 1.0,
      engine_->source_backlog_events(), m.generated_eps * engine::kTickSec,
      m.admitted_eps * engine::kTickSec, m.dropped_eps * engine::kTickSec);
  if (slo_watchdog_.has_value()) slo_watchdog_->tick(now_, recorder_);
  profile.close_at_next_read();  // ends with the step frame

  ++tick_count_;
  if (profiler_.enabled() && trace_.enabled() && config_.profile_every > 0 &&
      tick_count_ - last_profile_emit_ >=
          static_cast<std::uint64_t>(config_.profile_every)) {
    emit_profile_events();
  }
}

void WaspSystem::run_until(double t_end) {
  while (now_ + engine::kTickSec <= t_end + 1e-9) step();
}

void WaspSystem::maybe_adapt() {
  if (config_.mode == AdaptationMode::kNoAdapt ||
      config_.mode == AdaptationMode::kDegrade) {
    return;
  }
  if (now_ - last_decision_ < kMonitoringIntervalSec) return;
  last_decision_ = now_;

  // Root span of the decision episode: diagnose/plan/solver spans nest under
  // it. Closed right away on a no-action round; otherwise it stays open
  // through the transition until stabilization (or abort).
  std::uint64_t root = obs::kNoSpan;
  if (trace_.enabled()) {
    trace_.begin_span_event("adaptation", &root, /*parent=*/obs::kNoSpan)
        .str("mode", to_string(config_.mode));
  }

  const MonitorView view(*this);
  policy_->set_now(now_);
  std::vector<adapt::AdaptationAction> actions;
  {
    obs::TraceEmitter::ParentScope in_episode(&trace_, root);
    {
      obs::Profiler::Scope profile_decide(&profiler_,
                                          obs::Phase::kPolicyDecide);
      actions = policy_->decide_all(*engine_, metric_monitor_, view);
    }

    // §6.2 long-term dynamics: with nothing broken, periodically check in the
    // background whether a different plan-placement pair now fits the (slowly
    // shifting) workload better.
    if (actions.empty() && config_.background_replan_interval_sec > 0.0 &&
        now_ - last_background_replan_ >=
            config_.background_replan_interval_sec) {
      last_background_replan_ = now_;
      adapt::AdaptationAction replan = policy_->consider_replan(
          *engine_, metric_monitor_, view, "periodic background re-evaluation");
      if (replan.kind != adapt::ActionKind::kNone) {
        actions.push_back(std::move(replan));
      }
    }
  }
  metric_monitor_.reset_window();
  if (actions.empty()) {
    trace_.end_span(root).str("status", "no-action");
    return;
  }
  adaptation_span_ = root;  // consumed by begin_transition (possibly later,
                            // when the action waits for a window boundary)
  for (const auto& action : actions) {
    log(LogLevel::kInfo, "t=", now_, " adaptation: ", to_string(action.kind),
        " (", action.reason, "), est transition ",
        action.estimated_transition_sec, "s");
  }
  if (actions.size() == 1 &&
      actions[0].kind == adapt::ActionKind::kReplan &&
      actions[0].boundary_window_sec > 0.0) {
    pending_boundary_ = std::move(actions[0]);
    return;
  }
  begin_transition(std::move(actions));
}

void WaspSystem::begin_transition(std::vector<adapt::AdaptationAction> actions,
                                  bool recovery) {
  assert(!actions.empty());
  Transition transition;
  transition.started_at = now_;
  transition.recovery = recovery;
  transition.attempt = retry_.attempts;
  pre_transition_delay_ = engine_->last_tick().delay_sec;

  // Adopt the decision episode's root span (opened by maybe_adapt /
  // maybe_recover / force_reassign); open a fresh root if the transition has
  // none yet. The flat adaptation events and transfer spans nest under it.
  transition.root_span = adaptation_span_;
  adaptation_span_ = obs::kNoSpan;
  if (transition.root_span == obs::kNoSpan && trace_.enabled()) {
    trace_
        .begin_span_event(recovery ? "recovery" : "adaptation",
                          &transition.root_span, /*parent=*/obs::kNoSpan)
        .str("mode", to_string(config_.mode));
  }
  obs::TraceEmitter::ParentScope in_episode(&trace_, transition.root_span);

  for (adapt::AdaptationAction& action : actions) {
    const std::int64_t op = action.op.valid() ? action.op.value() : -1;
    double migrated_mb = 0.0;
    for (const auto& move : action.migration.moves) {
      migrated_mb += move.size_mb;
    }
    transition.event_indices.push_back(recorder_.open_adaptation(
        {.decided_at = now_,
         .kind = to_string(action.kind),
         .reason = action.reason,
         .op = op,
         .estimated_transition_sec = action.estimated_transition_sec,
         .migrated_mb = migrated_mb,
         .attempt = retry_.attempts}));

    // Halt the affected execution (§4.1 step 1) and launch the state
    // transfers as bulk flows that share the WAN with the data plane.
    if (action.kind == adapt::ActionKind::kReplan) {
      engine_->suspend_all();
    } else {
      engine_->suspend_stage(action.op);
    }
    for (const auto& move : action.migration.moves) {
      transition.bulk_flows.push_back(
          network_.add_bulk_flow(move.from, move.to, move.size_mb));
      // One "transfer" span per bulk flow, closed at finalize/abort.
      std::uint64_t span = obs::kNoSpan;
      if (trace_.enabled()) {
        trace_.begin_span_event("transfer", &span)
            .num("op", static_cast<double>(op))
            .num("from", static_cast<double>(move.from.value()))
            .num("to", static_cast<double>(move.to.value()))
            .num("size_mb", move.size_mb)
            .num("attempt", static_cast<double>(retry_.attempts));
      }
      transition.transfer_spans.push_back(span);
    }
  }
  transition.actions = std::move(actions);
  transition_ = std::move(transition);
}

void WaspSystem::finalize_transition() {
  assert(transition_.has_value());

  for (std::uint64_t span : transition_->transfer_spans) {
    trace_.end_span(span).str("status", "done");
  }
  for (FlowId f : transition_->bulk_flows) {
    if (network_.has_flow(f)) network_.remove_flow(f);
  }

  for (adapt::AdaptationAction& action : transition_->actions) {
    if (action.kind == adapt::ActionKind::kReplan) {
      // The new plan may reuse operator ids: remap the policy's per-operator
      // cooldowns before the engine consumes (moves) the new logical plan.
      policy_->on_replan_applied(engine_->logical(), *action.new_logical);
      engine_->apply_replan(std::move(*action.new_logical),
                            std::move(*action.new_physical));
      engine_->resume_all();
      // A re-plan renumbers operator ids: every replica keyed by the old ids
      // is garbage. Drop them all; the next sync boundary rebuilds.
      if (standby_ != nullptr) standby_->reset();
    } else {
      engine_->apply_placement(action.op, action.new_placement);
      engine_->resume_stage(action.op);
    }
  }

  recorder_.end_transition(transition_->event_indices, now_);
  settle(transition_->root_span, transition_->event_indices.front(),
         transition_->recovery);
  // A completed recovery / retried transition closes the retry episode.
  if (transition_->recovery || transition_->attempt > 0) {
    retry_ = RetryState{};
  }
  transition_.reset();
}

void WaspSystem::settle(std::uint64_t root, std::size_t event, bool recovery) {
  // A new episode finishing supersedes any still-settling previous one
  // (stabilizing_event_ is overwritten below): close its spans first.
  if (stabilize_span_ != obs::kNoSpan) {
    trace_.end_span(stabilize_span_).str("status", "superseded");
    trace_.end_span(stabilizing_root_).str("status", "superseded");
    stabilize_span_ = stabilizing_root_ = obs::kNoSpan;
  }
  // The episode root stays open while the deployment settles, with a
  // "stabilize" child covering the settling window.
  stabilizing_root_ = root;
  if (trace_.enabled() && stabilizing_root_ != obs::kNoSpan) {
    trace_.begin_span_event("stabilize", &stabilize_span_,
                            /*parent=*/stabilizing_root_)
        .num("pre_transition_delay_sec", pre_transition_delay_);
  }
  stabilizing_event_ = event;
  stabilizing_recovery_ = recovery;
  metric_monitor_.reset_window();
  last_decision_ = now_;  // give the new deployment a full interval to settle
}

bool WaspSystem::transition_compromised(std::string* why) const {
  if (!transition_.has_value()) return false;
  // Network truth first: a transfer crossing a partitioned link (or touching
  // a down site) will never finish. Then the detector's view: once an
  // endpoint of an in-flight transfer is suspected, the coordinator stops
  // waiting -- wiring state into a possibly-dead site is worse than a
  // restart, and rollback is cheap (the placement only applies at
  // finalization).
  for (FlowId f : transition_->bulk_flows) {
    if (!network_.has_flow(f)) continue;
    const net::Flow& fl = network_.flow(f);
    if (fl.done) continue;
    if (network_.link_partitioned(fl.from, fl.to)) {
      *why = "bulk transfer link " + std::to_string(fl.from.value()) + "->" +
             std::to_string(fl.to.value()) + " partitioned";
      return true;
    }
    for (SiteId endpoint : {fl.from, fl.to}) {
      if (network_.site_down(endpoint) || !detector_.trusted(endpoint)) {
        *why = "bulk transfer endpoint site " +
               std::to_string(endpoint.value()) + " failed or suspected";
        return true;
      }
    }
  }
  // Even a flow-less action is compromised when a destination site of its
  // new placement is confirmed dead: finalizing would wire tasks into it.
  for (const adapt::AdaptationAction& action : transition_->actions) {
    if (action.kind == adapt::ActionKind::kReplan) continue;
    for (SiteId s : action.new_placement.sites()) {
      if (network_.site_down(s) || detector_.confirmed_failed(s)) {
        *why = "destination site " + std::to_string(s.value()) + " failed";
        return true;
      }
    }
  }
  return false;
}

void WaspSystem::abort_transition(const std::string& why) {
  assert(transition_.has_value());
  // Cancel the orphaned transfers and resume the suspended execution.
  // Rollback is trivial by construction: placements and re-plans only apply
  // at finalization, so the pre-transition deployment is still live.
  for (std::uint64_t span : transition_->transfer_spans) {
    trace_.end_span(span).str("status", "aborted").str("reason", why);
  }
  for (FlowId f : transition_->bulk_flows) {
    if (network_.has_flow(f)) network_.remove_flow(f);
  }
  for (const adapt::AdaptationAction& action : transition_->actions) {
    if (action.kind == adapt::ActionKind::kReplan) {
      engine_->resume_all();
    } else {
      engine_->resume_stage(action.op);
    }
  }
  recorder_.abort_transition(transition_->event_indices, now_, why);
  trace_.end_span(transition_->root_span)
      .str("status", "aborted")
      .str("reason", why)
      .num("attempt", static_cast<double>(transition_->attempt));
  transition_.reset();
  metric_monitor_.reset_window();
  last_decision_ = now_;
  schedule_retry(why);
}

void WaspSystem::schedule_retry(const std::string& why) {
  ++retry_.attempts;
  if (retry_.attempts > config_.transition_retry_budget) {
    // Budget exhausted: explicitly abandon. Sites still confirmed dead keep
    // an abandoned flag so recovery is not re-attempted until they come
    // back; a later re-trust wipes the flag.
    bool flagged = false;
    for (std::size_t s = 0; s < recovery_abandoned_.size(); ++s) {
      const SiteId site(static_cast<std::int64_t>(s));
      if (detector_.confirmed_failed(site) && !recovery_abandoned_[s]) {
        recovery_abandoned_[s] = true;
        recorder_.record_recovery({.t = now_, .kind = "abandon",
                                   .site = site.value(),
                                   .attempt = retry_.attempts - 1,
                                   .detail = why});
        flagged = true;
      }
    }
    if (!flagged) {
      recorder_.record_recovery({.t = now_, .kind = "abandon",
                                 .attempt = retry_.attempts - 1,
                                 .detail = why});
    }
    log(LogLevel::kWarn, "t=", now_, " recovery abandoned after ",
        retry_.attempts - 1, " retries (", why, ")");
    metrics_.counter("runtime.recovery_abandoned").inc();
    retry_ = RetryState{};
    if (config_.shed_on_recovery_stall && !engine_->degrade_enabled()) {
      engine_->set_degrade(true);
      recovery_degrade_active_ = true;
      recorder_.record_recovery(
          {.t = now_, .kind = "degrade_on",
           .detail = "shedding past the SLO while recovery is stalled"});
    }
    return;
  }
  retry_.backoff_sec =
      retry_.attempts == 1
          ? kTransitionBackoffInitialSec
          : std::min(kTransitionBackoffMaxSec, 2.0 * retry_.backoff_sec);
  // The doubling chain above stays un-jittered (so caps are exact); only the
  // actual wait is spread, desynchronizing retries that a shared fault
  // aborted in the same tick.
  const double wait = state::jittered_backoff_sec(
      retry_.backoff_sec, kTransitionBackoffJitterFrac, backoff_rng_);
  retry_.next_attempt_at = now_ + wait;
  retry_.pending = true;
  recorder_.record_recovery({.t = now_, .kind = "retry",
                             .attempt = retry_.attempts, .backoff_sec = wait,
                             .detail = why});
  metrics_.counter("runtime.transition_retries").inc();
}

void WaspSystem::maybe_recover() {
  if (config_.mode == AdaptationMode::kNoAdapt ||
      config_.mode == AdaptationMode::kDegrade) {
    return;
  }
  if (transition_.has_value() || pending_boundary_.has_value()) return;
  if (retry_.pending && now_ < retry_.next_attempt_at) return;

  // Confirmed-dead sites still hosting tasks need a recovery re-plan;
  // abandoned ones wait for the site to come back. The slot census (which
  // allocates) is only taken once some site is actually confirmed dead --
  // the overwhelmingly common healthy tick returns without it.
  std::vector<SiteId> dead;
  bool any_confirmed = false;
  for (std::size_t s = 0; s < recovery_abandoned_.size(); ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    if (detector_.confirmed_failed(site) && !recovery_abandoned_[s]) {
      any_confirmed = true;
      break;
    }
  }
  if (any_confirmed) {
    const auto used = engine_->slots_in_use();
    for (std::size_t s = 0; s < used.size(); ++s) {
      const SiteId site(static_cast<std::int64_t>(s));
      if (detector_.confirmed_failed(site) && !recovery_abandoned_[s] &&
          used[s] > 0) {
        dead.push_back(site);
      }
    }
  }
  if (dead.empty()) {
    if (retry_.pending) {
      // The abort's cause cleared before the retry fired (site restored,
      // partition healed): let the regular policy round re-decide now.
      retry_.pending = false;
      last_decision_ = now_ - kMonitoringIntervalSec;
    }
    return;
  }

  // Fast path first: promote warm standbys where one exists (pure lookup +
  // pointer surgery, no solver). Sites fully evacuated this way drop out of
  // `dead`; only the remainder pays for a recovery re-plan.
  promote_standbys(dead);
  if (dead.empty()) return;

  // Failure recovery bypasses the monitoring interval: stranded tasks are
  // re-placed as soon as the failure is confirmed.
  std::uint64_t root = obs::kNoSpan;
  if (trace_.enabled()) {
    trace_.begin_span_event("recovery", &root, /*parent=*/obs::kNoSpan)
        .num("dead_sites", static_cast<double>(dead.size()))
        .num("attempt", static_cast<double>(retry_.attempts));
  }
  const MonitorView view(*this);
  policy_->set_now(now_);
  std::vector<adapt::AdaptationAction> actions;
  {
    obs::TraceEmitter::ParentScope in_episode(&trace_, root);
    actions = policy_->plan_recovery(*engine_, metric_monitor_, view, dead);
  }
  if (actions.empty()) {
    trace_.end_span(root).str("status", "infeasible");
    schedule_retry("recovery placement infeasible with sites " +
                   std::to_string(dead.front().value()) + "+ down");
    return;
  }
  adaptation_span_ = root;  // begin_transition adopts it below
  retry_.pending = false;
  if (trace_.enabled()) {
    // Recovery-path selection record (DESIGN.md §12): no viable standby, so
    // this failure pays for the full re-plan. The fast path emits the same
    // event with mode="standby" from promote_standbys.
    trace_.event("failover")
        .str("mode", "replan")
        .num("dead_sites", static_cast<double>(dead.size()));
  }
  for (SiteId s : dead) {
    recorder_.record_recovery({.t = now_, .kind = "replan", .site = s.value(),
                               .attempt = retry_.attempts,
                               .detail = actions.front().reason});
  }
  log(LogLevel::kInfo, "t=", now_, " failure recovery: re-placing ",
      actions.size(), " stage(s) off ", dead.size(), " dead site(s)");
  begin_transition(std::move(actions), /*recovery=*/true);
}

void WaspSystem::promote_standbys(std::vector<SiteId>& dead) {
  if (standby_ == nullptr) return;
  if (!site_trusted_) {
    site_trusted_ = [this](SiteId s) { return detector_.trusted(s); };
  }

  // Census first, mutate after: viable_standby is a pure lookup, and the
  // per-primary sync snapshots stay valid across earlier promotions in the
  // same tick (promoting op X off site A does not touch site B's group).
  struct Candidate {
    OperatorId op;
    SiteId failed;
    resilience::StandbyManager::Promotion promo;
  };
  std::vector<Candidate> candidates;
  for (SiteId site : dead) {
    const auto s = static_cast<std::size_t>(site.value());
    for (const query::LogicalOperator& lop : engine_->logical().operators()) {
      const physical::StagePlacement& placement = engine_->placement(lop.id);
      if (s >= placement.per_site.size() || placement.per_site[s] == 0) {
        continue;
      }
      auto promo = standby_->viable_standby(lop.id, site, now_, site_trusted_);
      if (promo.has_value()) {
        candidates.push_back(Candidate{lop.id, site, *promo});
      }
    }
  }
  if (candidates.empty()) return;

  // One "failover" episode root covers every promotion this tick, mirroring
  // the re-plan path's "recovery" root; after the promotions it stays open
  // (as stabilizing_root_) with a "stabilize" child until the deployment
  // settles, so wasp_trace sees the same span shape on both recovery paths.
  std::uint64_t root = obs::kNoSpan;
  if (trace_.enabled()) {
    trace_.begin_span_event("failover", &root, /*parent=*/obs::kNoSpan)
        .str("mode", "standby")
        .num("promotions", static_cast<double>(candidates.size()));
  }
  obs::TraceEmitter::ParentScope in_episode(&trace_, root);
  pre_transition_delay_ = engine_->last_tick().delay_sec;

  std::optional<std::size_t> first_event;
  for (const Candidate& c : candidates) {
    const engine::Engine::PromotionResult result = engine_->promote_standby(
        c.op, c.failed, c.promo.standby_site, c.promo.synced_window_events);
    standby_->consume(c.op, c.promo.standby_site);
    if (result.moved_tasks == 0) continue;

    if (trace_.enabled()) {
      trace_.event("failover")
          .str("mode", "standby")
          .num("op", static_cast<double>(c.op.value()))
          .num("site", static_cast<double>(c.failed.value()))
          .num("standby_site", static_cast<double>(c.promo.standby_site.value()))
          .num("staleness_sec", c.promo.staleness_sec)
          .num("moved_tasks", static_cast<double>(result.moved_tasks))
          .num("installed_window_events", result.installed_window_events)
          .num("replayed_source_units", result.replayed_source_units);
    }
    const std::size_t event = recorder_.record_failover(
        now_, c.op.value(), c.failed.value(), c.promo.standby_site.value());
    if (!first_event.has_value()) first_event = event;
    log(LogLevel::kInfo, "t=", now_, " failover: promoted standby of op ",
        c.op.value(), " at site ", c.promo.standby_site.value(),
        " (staleness ", c.promo.staleness_sec, "s, replay ",
        result.replayed_source_units, " source events)");
    metrics_.counter("runtime.failovers").inc();
    metrics_.histogram("failover.staleness_sec").add(c.promo.staleness_sec);
    metrics_.histogram("failover.replayed_source_units")
        .add(result.replayed_source_units);
  }

  if (!first_event.has_value()) {
    trace_.end_span(root).str("status", "no-op");
  } else {
    settle(root, *first_event, /*recovery=*/true);
    retry_ = RetryState{};
  }

  // Re-census: sites fully evacuated by promotions exit the re-plan path.
  const auto used = engine_->slots_in_use();
  std::vector<SiteId> remaining;
  for (SiteId site : dead) {
    if (used[static_cast<std::size_t>(site.value())] > 0) {
      remaining.push_back(site);
    }
  }
  dead.swap(remaining);
}

void WaspSystem::watch_stabilization() {
  if (!stabilizing_event_.has_value()) return;
  // Stable when (a) the events queued during the transition have been
  // consumed (source backlog below one tick of generation) and (b) the
  // delay is back in the neighbourhood of its pre-transition level.
  const double backlog = engine_->source_backlog_events();
  const double per_tick =
      engine_->last_tick().generated_eps * engine::kTickSec;
  const double delay_target =
      std::max(1.0, 2.0 * pre_transition_delay_);
  if (backlog <= std::max(per_tick, 1.0) &&
      engine_->last_tick().delay_sec <= delay_target) {
    recorder_.stabilize(*stabilizing_event_, now_, stabilizing_recovery_);
    const AdaptationEvent& event = recorder_.events()[*stabilizing_event_];
    if (stabilizing_recovery_) {
      // Time-to-stabilize: last failure confirmation -> settled. The CI
      // chaos matrix compares this across --standby-replicas settings.
      if (last_confirm_at_ >= 0.0) {
        metrics_.histogram("recovery.time_to_stabilize_sec")
            .add(now_ - last_confirm_at_);
        last_confirm_at_ = -1.0;
      }
      stabilizing_recovery_ = false;
    }
    trace_.end_span(stabilize_span_)
        .str("status", "stabilized")
        .num("stabilize_sec", event.stabilize_sec());
    trace_.end_span(stabilizing_root_)
        .str("status", "stabilized")
        .str("kind", event.kind)
        .num("op", static_cast<double>(event.op));
    stabilize_span_ = stabilizing_root_ = obs::kNoSpan;
    stabilizing_event_.reset();
  }
}

void WaspSystem::fail_sites(const std::vector<SiteId>& sites) {
  for (SiteId s : sites) {
    engine_->fail_site(s);
    // The Network-level flag stalls every flow touching the site -- stream
    // and bulk alike. An in-flight migration to/from it stops making
    // progress immediately and is aborted (not silently "delivered") by the
    // next control tick's compromise check.
    network_.set_site_down(s, true);
  }
}

void WaspSystem::fail_all_sites() {
  for (const auto& site : network_.topology().sites()) {
    engine_->fail_site(site.id);
    network_.set_site_down(site.id, true);
  }
}

void WaspSystem::restore_sites(const std::vector<SiteId>& sites) {
  for (SiteId s : sites) {
    engine_->restore_site(s);
    network_.set_site_down(s, false);
  }
}

void WaspSystem::restore_all_sites() {
  for (const auto& site : network_.topology().sites()) {
    if (engine_->site_failed(site.id)) engine_->restore_site(site.id);
    network_.set_site_down(site.id, false);
  }
}

void WaspSystem::stall_control_for(double sec) {
  control_stalled_until_ = std::max(control_stalled_until_, now_ + sec);
  if (trace_.enabled()) {
    trace_.event("control_stall").num("until", control_stalled_until_);
  }
}

void WaspSystem::force_reassign(OperatorId op,
                                const physical::StagePlacement& placement,
                                state::MigrationStrategy strategy) {
  assert(!transition_.has_value());
  const MonitorView view(*this);
  state::MigrationPlanner planner(strategy, rng_.fork());
  planner.set_trace(&trace_);

  // Forced reassignments get an episode root too, so their migration-planning
  // and transfer spans nest like a policy-decided adaptation's.
  std::uint64_t root = obs::kNoSpan;
  if (trace_.enabled()) {
    trace_.begin_span_event("adaptation", &root, /*parent=*/obs::kNoSpan)
        .str("mode", "forced");
  }
  obs::TraceEmitter::ParentScope in_episode(&trace_, root);

  adapt::AdaptationAction action;
  action.kind = adapt::ActionKind::kReassign;
  action.op = op;
  action.new_placement = placement;
  action.migration =
      adapt::plan_rebalance(*engine_, op, placement, view, planner);
  action.estimated_transition_sec = action.migration.estimated_transition_sec;
  action.reason = "forced re-assignment (experiment)";
  std::vector<adapt::AdaptationAction> actions;
  actions.push_back(std::move(action));
  adaptation_span_ = root;
  begin_transition(std::move(actions));
}

void WaspSystem::emit_profile_events() {
  if (!profiler_.enabled() || !trace_.enabled()) return;
  last_profile_emit_ = tick_count_;
  // One cumulative line per phase that ever ran. `ticks` and `calls` are
  // deterministic (pure functions of the simulated control flow); every
  // timing field is wall_*-prefixed so the diff/golden machinery skips it.
  const auto& accums = profiler_.accums();
  for (std::size_t i = 0; i < accums.size(); ++i) {
    const obs::PhaseAccum& accum = accums[i];
    if (accum.calls == 0) continue;
    trace_.event("profile")
        .str("phase", obs::phase_name(static_cast<obs::Phase>(i)))
        .num("ticks", static_cast<double>(tick_count_))
        .num("calls", static_cast<double>(accum.calls))
        .num("wall_total_us", static_cast<double>(accum.total_ns) / 1000.0)
        .num("wall_self_us", static_cast<double>(accum.self_ns) / 1000.0);
  }
  // One pool line (threads > 1 only): totals are deterministic, busy time
  // is a scheduling fact and stays wall_*.
  if (pool_ != nullptr) {
    const exec::ThreadPool::PoolStats stats = pool_->stats();
    std::uint64_t busy_min = 0;
    std::uint64_t busy_max = 0;
    for (const auto& t : stats.per_thread) {
      busy_min = busy_min == 0 ? t.busy_ns : std::min(busy_min, t.busy_ns);
      busy_max = std::max(busy_max, t.busy_ns);
    }
    trace_.event("profile")
        .str("phase", "pool")
        .num("ticks", static_cast<double>(tick_count_))
        .num("threads", static_cast<double>(pool_->workers() + 1))
        .num("chunks", static_cast<double>(stats.chunks))
        .num("regions", static_cast<double>(stats.regions))
        .num("wall_busy_us", static_cast<double>(stats.busy_ns) / 1000.0)
        .num("wall_busy_min_us", static_cast<double>(busy_min) / 1000.0)
        .num("wall_busy_max_us", static_cast<double>(busy_max) / 1000.0);
  }
}

void WaspSystem::export_profiler_metrics() {
  if (!profiler_.enabled()) return;
  const auto& accums = profiler_.accums();
  for (std::size_t i = 0; i < accums.size(); ++i) {
    const obs::PhaseAccum& accum = accums[i];
    if (accum.calls == 0) continue;
    const std::string base =
        std::string("profiler.") + obs::phase_name(static_cast<obs::Phase>(i));
    metrics_.gauge(base + ".calls").set(static_cast<double>(accum.calls));
    metrics_.gauge(base + ".wall_total_us")
        .set(static_cast<double>(accum.total_ns) / 1000.0);
    metrics_.gauge(base + ".wall_self_us")
        .set(static_cast<double>(accum.self_ns) / 1000.0);
  }
  if (pool_ != nullptr) {
    const exec::ThreadPool::PoolStats stats = pool_->stats();
    metrics_.gauge("pool.threads")
        .set(static_cast<double>(pool_->workers() + 1));
    metrics_.gauge("pool.chunks").set(static_cast<double>(stats.chunks));
    metrics_.gauge("pool.regions").set(static_cast<double>(stats.regions));
    metrics_.gauge("pool.wall_busy_us")
        .set(static_cast<double>(stats.busy_ns) / 1000.0);
  }
}

}  // namespace wasp::runtime
