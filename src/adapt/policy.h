// WASP's adaptation policy (paper §6, Fig. 6).
//
// Every monitoring interval the policy looks at the diagnosed health of each
// operator and decides ONE adaptation action (adapt, then let the system
// stabilize -- §8.2's 40 s interval exists exactly for this):
//
//   compute bottleneck  -> scale UP: more tasks, same site when slots allow,
//                          spilling to remote sites only when they don't;
//   network bottleneck  -> stateless query: re-plan (re-optimize logical +
//                          physical, nothing to migrate);
//                          stateful query: re-assign tasks at the same
//                          parallelism; if infeasible or the migration would
//                          exceed t_max, scale OUT (state partitioning cuts
//                          the per-link transfer); if that would push p past
//                          p_max, fall back to re-planning when the state
//                          allows (common sub-plans);
//                          non-splittable operator: re-plan;
//   over-provisioned    -> scale DOWN one task per interval (stability over
//                          savings, §4.2), only when the survivors can absorb
//                          the load.
//
// The `allow_*` switches reproduce the §8.5 single-technique baselines
// (Re-assign / Scale / Re-plan) and the ablation benches.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "adapt/diagnosis.h"
#include "adapt/monitor.h"
#include "common/ids.h"
#include "engine/engine.h"
#include "physical/physical_plan.h"
#include "physical/scheduler.h"
#include "query/planner.h"
#include "state/migration.h"

namespace wasp::obs {
class Profiler;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::adapt {

enum class ActionKind {
  kNone,
  kReassign,
  kScaleUp,
  kScaleOut,
  kScaleDown,
  kReplan,
};

[[nodiscard]] const char* to_string(ActionKind kind);

struct AdaptationAction {
  ActionKind kind = ActionKind::kNone;
  OperatorId op;  // target stage (invalid for kReplan / kNone)
  physical::StagePlacement new_placement;
  state::MigrationPlan migration;
  // Populated for kReplan.
  std::optional<query::LogicalPlan> new_logical;
  std::optional<physical::PhysicalPlan> new_physical;
  // Non-zero when the re-plan orphans tumbling-window state: the switch
  // must wait for the next boundary of this window (§4.3).
  double boundary_window_sec = 0.0;
  double estimated_transition_sec = 0.0;
  std::string reason;
};

// Traffic-weighted delay estimate of a deployed plan, with a large penalty
// per link whose demand exceeds α of the estimated available bandwidth.
// Used to compare the current deployment against re-plan candidates.
[[nodiscard]] double estimate_plan_cost(
    const query::LogicalPlan& logical, const physical::PhysicalPlan& physical,
    const query::OperatorTable<query::OperatorRates>& rates,
    const physical::NetworkView& view, double alpha);

// The state moves that re-partition `op`'s state in equal shares over `to`:
// each of its p' tasks ends up holding total / p', where the total sums the
// state on every live site in site order. A site marked in `dead` is neither
// a source nor a destination and its state is not counted: nothing can be
// read there, and it comes back through checkpoint replay. Empty when there
// is no state to move or `to` has no task.
[[nodiscard]] state::MigrationPlan plan_rebalance(
    const engine::Engine& engine, OperatorId op,
    const physical::StagePlacement& to, const physical::NetworkView& view,
    state::MigrationPlanner& planner, const std::vector<bool>& dead = {});

class AdaptationPolicy {
 public:
  // Re-plan instead of scaling a stage past this parallelism (§6.2).
  static constexpr int kPMax = 3;

  struct Config {
    bool allow_reassign = true;
    bool allow_scale = true;
    bool allow_replan = true;
    // Region decomposition for failure recovery (DESIGN.md §14): when every
    // dead site shares one failure domain, re-plans pin each out-of-region
    // site to its current task count (min == max per-site bounds) so the
    // placement solver only re-solves the affected region's subproblem.
    // Falls back to the global solve when the pinned subproblem is
    // infeasible at the stage's current parallelism (the region cannot
    // absorb the lost tasks). Off by default; planet-scale runs enable it.
    bool region_decomposition = false;
    // Per-site failure-domain labels (indexed by site id), required by
    // region_decomposition. WaspSystem takes them from the topology.
    std::vector<int> site_domains;
  };

  AdaptationPolicy(Config config, physical::Scheduler scheduler,
                   query::QueryPlanner planner,
                   state::MigrationPlanner migration_planner)
      : config_(config),
        scheduler_(std::move(scheduler)),
        planner_(std::move(planner)),
        migration_planner_(std::move(migration_planner)) {}

  // Informs the policy of the current time (drives the scale-down
  // cooldown). Call once per decision round.
  void set_now(double t) { now_ = t; }

  // Optional trace hook (non-owning; may be null): decide_all() emits
  // "diagnosis" events for unhealthy operators, "policy_action" per chosen
  // action, and "policy_reject" for considered-but-discarded alternatives.
  // Also forwarded to the embedded migration planner.
  void set_trace(obs::TraceEmitter* trace);

  // Tick-phase profiler hook (DESIGN.md §13), forwarded to the embedded
  // scheduler copy and migration planner so their solver calls land in the
  // control.solver.* phases. Null (the default) disables.
  void set_profiler(obs::Profiler* profiler);

  // Must be called when a kReplan action is applied to the engine. The new
  // plan can reuse OperatorIds for different operators, so the scale-down
  // cooldown table is remapped: operators matched between plans keep their
  // timestamps under their new ids, everything else is dropped. (Without
  // this a fresh operator inherits a stale cooldown -- or escapes one.)
  void on_replan_applied(const query::LogicalPlan& old_plan,
                         const query::LogicalPlan& new_plan);

  // Decides the next action (or kNone). `view` must reflect *currently
  // free* slots; the policy accounts for slots its own reconfiguration
  // releases.
  [[nodiscard]] AdaptationAction decide(const engine::Engine& engine,
                                        const GlobalMetricMonitor& monitor,
                                        const physical::NetworkView& view);

  // Like decide(), but returns up to `max_actions` actions targeting
  // *distinct* operators, with slot accounting threaded between them so two
  // actions never double-book the same slot. A re-plan is always exclusive
  // (it replaces the whole execution). Scale-downs are only issued when no
  // bottleneck needs fixing (one per round: §4.2's gradual scale-down).
  [[nodiscard]] std::vector<AdaptationAction> decide_all(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, std::size_t max_actions = 3);

  // Failure recovery: re-places every unpinned, splittable stage that has
  // tasks on a site in `dead_sites`, excluding those sites from the new
  // placements. Keeps the stage's parallelism when the surviving sites can
  // host it, degrading to fewer tasks when they cannot (partial capacity
  // beats none while the site is out). The returned migrations move state
  // only between live sites -- whatever lived on the dead site is recovered
  // through checkpoint replay, not a bulk transfer. `view` must already
  // report zero slots at the dead sites (the detector-backed MonitorView
  // does). Stages that cannot be re-placed at all are skipped: the caller
  // decides whether to fall back to degrade-mode shedding.
  [[nodiscard]] std::vector<AdaptationAction> plan_recovery(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view,
      const std::vector<SiteId>& dead_sites);

  // §6.2 long-term dynamics: evaluates whether a different plan-placement
  // pair would beat the current deployment under the *current* workload,
  // independent of any diagnosed bottleneck. Used by the runtime's periodic
  // background re-evaluation (e.g. for predictable daily shifts). Returns
  // kReplan or kNone.
  [[nodiscard]] AdaptationAction consider_replan(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, const std::string& why);

 private:
  struct OpDiagnosis {
    OperatorId op;
    Diagnosis diagnosis;
    double expected_input_eps = 0.0;
    double upstream_output_eps = 0.0;
    double observed_input_eps = 0.0;
    double backpressure_frac = 0.0;
    bool actionable = true;  // unpinned and splittable
  };

  [[nodiscard]] std::vector<OpDiagnosis> diagnose_all(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor) const;

  [[nodiscard]] AdaptationAction handle_compute_bottleneck(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, const OpDiagnosis& diag);

  [[nodiscard]] AdaptationAction handle_network_bottleneck(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, const OpDiagnosis& diag);

  [[nodiscard]] AdaptationAction handle_overprovisioning(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, const OpDiagnosis& diag);

  [[nodiscard]] AdaptationAction try_replan(
      const engine::Engine& engine, const GlobalMetricMonitor& monitor,
      const physical::NetworkView& view, const std::string& why);

  // Builds the state-migration plan for moving `op` from its current
  // placement to `to` (plan_rebalance; empty for a stateless operator).
  [[nodiscard]] state::MigrationPlan migration_for(
      const engine::Engine& engine, OperatorId op,
      const physical::StagePlacement& to, const physical::NetworkView& view);

  // Builds the traffic context of `op`'s stage from the estimated rates and
  // the *current* neighbor placements.
  [[nodiscard]] physical::StageContext stage_context(
      const engine::Engine& engine,
      const query::OperatorTable<query::OperatorRates>& rates,
      OperatorId op) const;

  Config config_;
  physical::Scheduler scheduler_;
  query::QueryPlanner planner_;
  state::MigrationPlanner migration_planner_;
  obs::TraceEmitter* trace_ = nullptr;
  double now_ = 0.0;
  // Last time each operator was grown/re-placed (scale-down cooldown); sized
  // to the engine's plan by decide_all and plan_recovery.
  query::OperatorTable<std::optional<double>> last_grown_;
  // Source-backlog trend across decision rounds (query-level guard).
  double prev_backlog_events_ = 0.0;
  double prev_backlog_time_ = -1.0;
};

}  // namespace wasp::adapt
