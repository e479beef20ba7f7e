// WaspSystem: the deployed system facade (paper Fig. 3).
//
// Owns the whole control plane of one wide-area query:
//   - the Job Manager's deployment step: Query Planner enumerates logical
//     plans, the Scheduler prices a WAN-aware placement for each, and the
//     cheapest plan-placement pair is deployed (§8.1);
//   - the WAN Monitor (periodic noisy bandwidth probes);
//   - the Global Metric Monitor and the adaptation policy, evaluated every
//     monitoring interval (§8.2: 40 s);
//   - the Reconfiguration Manager: executes a decided action as a multi-tick
//     transition -- suspend the affected stage(s), push checkpointed state
//     across the WAN as bulk flows that compete with the data plane, then
//     re-wire and resume (§5);
//   - failure injection and recovery;
//   - the experiment recorder.
//
// The adaptation mode selects the paper's baselines: NoAdapt, Degrade (shed
// events past the SLO), full WASP, or the single-technique variants of §8.5.
//
// Lifecycle: construction deploys the query (planner -> scheduler -> engine)
// over the caller's Network; step()/run_until() advance simulated time; the
// destructor closes any episode still open (transition, stabilization, SLO
// violation) so emitted traces stay span-balanced even when a run is
// truncated mid-adaptation. The Network must outlive the system, and the
// WorkloadPattern must outlive every step() call.
//
// Threading: a WaspSystem is single-threaded ("tick-thread-only") -- every
// member, including the Recorder, MetricsRegistry and TraceEmitter it owns,
// must be touched only by the thread driving step()/run_until(), and
// accessors (recorder(), metrics(), engine(), detector()) are safe to read
// only while that thread is not inside step(). Parallelism across *runs* is
// the supported model: the sweep harness (src/exec, DESIGN.md §9) builds one
// fully private Network + WaspSystem + sinks per grid cell and joins the
// worker before reading results. The one shared-state exception is
// SystemConfig::trace_sink: a FileSink may be shared across concurrently
// running systems (its writes are line-atomic), everything else must be
// per-system.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "adapt/monitor.h"
#include "adapt/policy.h"
#include "common/ids.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "faults/failure_detector.h"
#include "net/network.h"
#include "net/wan_monitor.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "physical/scheduler.h"
#include "query/planner.h"
#include "resilience/standby.h"
#include "runtime/recorder.h"
#include "runtime/slo_watchdog.h"
#include "state/migration.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {

enum class AdaptationMode {
  kNoAdapt,
  kDegrade,
  kWasp,          // full policy (re-assign + scale + re-plan)
  kReassignOnly,  // §8.5 "Re-assign"
  kScaleOnly,     // §8.5 "Scale" (re-assign first, scale as needed)
  kReplanOnly,    // §8.5 "Re-plan"
  // §7 "Re-optimize or degrade?": degradation as a stopgap *while* the
  // re-optimization machinery works -- events past the SLO are shed only
  // until the adapted deployment catches up, bounding the delay through
  // transitions at a small quality cost.
  kHybrid,
};

[[nodiscard]] const char* to_string(AdaptationMode mode);
// Inverse of to_string, plus "static" for no-adapt; nullopt on an unknown
// name.
[[nodiscard]] std::optional<AdaptationMode> parse_mode(std::string_view name);

struct SystemConfig {
  AdaptationMode mode = AdaptationMode::kWasp;
  double tick_sec = 1.0;
  double slo_sec = 10.0;  // Degrade's SLO
  // §6.2 long-term dynamics: re-evaluate the query plan in the background
  // every this many seconds, even without a diagnosed bottleneck (for
  // predictable shifts like diurnal workloads). 0 disables.
  double background_replan_interval_sec = 0.0;
  adapt::AdaptationPolicy::Config policy;
  physical::Scheduler::Config scheduler;
  // Transactional migrations: an in-flight transition whose bulk-transfer
  // endpoint fails (or whose link partitions) is aborted and retried with
  // capped exponential backoff, up to this many retries before the action is
  // abandoned.
  int transition_retry_budget = 4;
  // Hot-standby replication (DESIGN.md §12): K passive replicas per
  // protected stateful stage, placed in distinct failure domains and kept
  // warm by periodic delta syncs. On a confirmed failure a fresh replica is
  // promoted instead of running the recovery ILP. 0 disables (replan-only
  // recovery, the paper's §8.6 behavior).
  int standby_replicas = 0;
  // Graceful degradation: when recovery placement is infeasible (or the
  // retry budget is exhausted) with sites suspected, shed events past the
  // SLO until the sites re-trust. Off by default: modes other than Degrade/
  // Hybrid promise lossless processing.
  bool shed_on_recovery_stall = false;
  std::uint64_t seed = 42;
  // Intra-run parallelism: worker threads sharing one run's tick work
  // (engine kernel sweeps, per-site update loops, per-link waterfills).
  // 1 = serial (no pool). Results and traces are bit-identical for any
  // value (DESIGN.md §11); this trades cores for wall-clock only. Compose
  // with sweep-level --jobs carefully: jobs x threads should not exceed the
  // machine's cores.
  int threads = 1;
  // Multi-tenant slot accounting: when set, reports the computing slots
  // per site used by *other* queries sharing the deployment; this query's
  // scheduler subtracts them from availability. Wired by runtime::Cluster.
  std::function<std::vector<int>()> peer_slot_usage;
  // Observability: when set, the system wires a TraceEmitter over this sink
  // through every layer (engine, network, policy, migration planner) and
  // emits its own "adaptation"/"transition_end"/"stabilized" events. Null
  // (the default) disables tracing entirely. See DESIGN.md §6.
  std::shared_ptr<obs::TraceSink> trace_sink;
  // Declarative SLO watchdog (wasp_sim --slo): evaluated over the recorder's
  // series each tick; violation episodes become "slo_violation" spans and
  // slo.* metrics. Unset (or a spec with no bound) disables the watchdog.
  std::optional<SloSpec> slo;
  // Tick-phase profiler (wasp_sim --profile, DESIGN.md §13): times every
  // step phase (waterfill, engine sub-phases, monitor extraction, control
  // plane, solver calls, standby syncs) plus the thread pool, and emits
  // cumulative "profile" events into the trace every `profile_every` ticks
  // (plus once at shutdown). All timing fields are wall_*-prefixed, so
  // `wasp_trace diff` and the golden byte-identity harness ignore them; the
  // profiler itself is a pure observer and cannot change any simulated
  // byte (tests/profiler_test.cc:ProfilingIsAPureObserver).
  bool profile = false;
  int profile_every = 60;
};

class WaspSystem {
 public:
  // First wait of a transition retry's capped exponential backoff.
  static constexpr double kTransitionBackoffInitialSec = 5.0;
  // Seeded retry desynchronization: each backoff wait is jittered uniformly
  // by +/- this fraction (state::jittered_backoff_sec) from a dedicated RNG
  // stream, so retries aborted by one shared fault don't re-collide.
  static constexpr double kTransitionBackoffJitterFrac = 0.25;

  // Deploys `spec` over `network` (which the system advances; one system per
  // network instance). The workload `pattern` outlives the system.
  WaspSystem(net::Network& network, workload::QuerySpec spec,
             const workload::WorkloadPattern& pattern, SystemConfig config);
  ~WaspSystem();

  WaspSystem(const WaspSystem&) = delete;
  WaspSystem& operator=(const WaspSystem&) = delete;

  // Advances one tick (network -> engine -> monitors -> adaptation). Pass
  // `drive_network = false` when an external driver (runtime::Cluster)
  // already advanced the shared Network for this tick.
  void step(bool drive_network = true);

  // Runs until simulated time `t_end`.
  void run_until(double t_end);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] double tick_sec() const { return config_.tick_sec; }
  [[nodiscard]] const engine::Engine& engine() const { return *engine_; }
  [[nodiscard]] engine::Engine& mutable_engine() { return *engine_; }
  [[nodiscard]] const Recorder& recorder() const { return recorder_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] obs::TraceEmitter& trace() { return trace_; }
  [[nodiscard]] int initial_total_tasks() const { return initial_tasks_; }
  [[nodiscard]] bool transition_in_progress() const {
    return transition_.has_value();
  }
  [[nodiscard]] const faults::FailureDetector& detector() const {
    return detector_;
  }
  // Null when no SLO spec was configured.
  [[nodiscard]] const SloWatchdog* slo_watchdog() const {
    return slo_watchdog_.has_value() ? &*slo_watchdog_ : nullptr;
  }
  // Null unless standby_replicas > 0 was configured.
  [[nodiscard]] const resilience::StandbyManager* standby() const {
    return standby_.get();
  }
  // The tick-phase profiler (disabled unless SystemConfig::profile).
  [[nodiscard]] const obs::Profiler& profiler() const { return profiler_; }
  // The intra-run worker pool; null unless SystemConfig::threads > 1.
  [[nodiscard]] exec::ThreadPool* pool() { return pool_.get(); }
  // Copies the profiler's phase totals and the thread pool's counters into
  // the MetricsRegistry (profiler.* / pool.* entries). Deliberately NOT done
  // during the run: the registry's content must be bit-identical with
  // profiling on or off until the caller explicitly asks for the export
  // (wasp_sim does, right before --metrics-out). No-op when profiling is
  // disabled.
  void export_profiler_metrics();

  // Failure injection: fails the site in the engine AND marks it down in
  // the Network, so flows touching it stall instead of silently draining.
  // The control plane only learns about it through the heartbeat detector.
  void fail_sites(const std::vector<SiteId>& sites);
  void fail_all_sites();
  void restore_sites(const std::vector<SiteId>& sites);
  void restore_all_sites();

  // Control-plane stall (chaos): for `sec` seconds the coordinator freezes
  // -- no detector updates, no adaptation decisions, no transition
  // management. The data plane keeps running. Heartbeats that arrived while
  // frozen are processed on resume, so long stalls surface as brief false
  // suspicion followed by re-trust.
  void stall_control_for(double sec);
  [[nodiscard]] bool control_stalled() const {
    return now_ < control_stalled_until_;
  }

  // Force a one-off migration of `op` to `placement` (used by the §8.7
  // controlled-overhead experiments), planned with `strategy`; bypasses the
  // policy, whose own planner is always network-aware.
  void force_reassign(OperatorId op, const physical::StagePlacement& placement,
                      state::MigrationStrategy strategy =
                          state::MigrationStrategy::kNetworkAware);

 private:
  struct Transition {
    // One or more concurrent actions on distinct operators (a re-plan is
    // always alone).
    std::vector<adapt::AdaptationAction> actions;
    std::vector<FlowId> bulk_flows;
    double started_at = 0.0;
    std::vector<std::size_t> event_indices;  // one recorder event per action
    bool recovery = false;  // a failure-recovery re-plan (records the chain)
    int attempt = 0;        // retry number (0 = first try)
    // Root span of this adaptation/recovery episode and the per-bulk-flow
    // "transfer" child spans (parallel to bulk_flows). Closed at finalize
    // ("done"), abort ("aborted"), or shutdown ("unfinished").
    std::uint64_t root_span = obs::kNoSpan;
    std::vector<std::uint64_t> transfer_spans;
  };

  // Capped-exponential-backoff retry state shared by transition aborts and
  // infeasible recovery attempts.
  struct RetryState {
    int attempts = 0;
    double backoff_sec = 0.0;
    double next_attempt_at = -1.0;
    bool pending = false;
  };

  // NetworkView backed by the WAN monitor + free-slot accounting.
  class MonitorView;

  void deploy(workload::QuerySpec spec);
  void apply_workload();
  void maybe_adapt();
  void begin_transition(std::vector<adapt::AdaptationAction> actions,
                        bool recovery = false);
  void finalize_transition();
  // Opens the settling window of a finished episode (a transition or a
  // standby promotion): supersedes a still-settling previous episode, keeps
  // `root` open with a "stabilize" child span, marks recorder event `event`
  // as the one stabilizing, and gives the new deployment a full decision
  // interval. Callers reset their own retry state.
  void settle(std::uint64_t root, std::size_t event, bool recovery);
  // Transactional-migration guard: true (with a reason) when an in-flight
  // bulk transfer's endpoint is dead/suspected or its link is partitioned.
  [[nodiscard]] bool transition_compromised(std::string* why) const;
  void abort_transition(const std::string& why);
  // Escalates the retry state after an abort / infeasible recovery; abandons
  // (and optionally degrades) past the budget.
  void schedule_retry(const std::string& why);
  // Detector-driven recovery: re-plans stages stranded on confirmed-failed
  // sites, and fires pending backoff retries.
  void maybe_recover();
  // Fast recovery path: promotes viable hot standbys for the stages stranded
  // on `dead` sites (no ILP in the hot path). Sites fully recovered this way
  // are removed from `dead`; the remainder falls through to the re-plan path.
  void promote_standbys(std::vector<SiteId>& dead);
  void record_recovery(const std::string& kind, std::int64_t site,
                       std::int64_t op, int attempt, double backoff_sec,
                       const std::string& detail);
  void watch_stabilization();
  // Emits cumulative "profile" events (one per active phase, plus one pool
  // line) into the trace. Called every profile_every ticks and once from the
  // destructor so the final totals always reach the trace.
  void emit_profile_events();

  net::Network& network_;
  const workload::WorkloadPattern& pattern_;
  SystemConfig config_;
  Rng rng_;
  net::WanMonitor wan_monitor_;
  // Heartbeat failure detection: the control plane learns about failures
  // through this detector (fed by the network's delivery truth), never by
  // reading the engine's failure flags directly.
  faults::FailureDetector detector_;
  std::function<bool(SiteId)> site_alive_;  // built once, reused per tick
  std::function<bool(SiteId)> site_trusted_;  // detector-trusted predicate
  physical::Scheduler scheduler_;
  query::QueryPlanner planner_;
  // Declared before policy_/engine_: both hold raw pointers into these and
  // must be destroyed first.
  obs::MetricsRegistry metrics_;
  obs::TraceEmitter trace_;
  // Tick-phase profiler (DESIGN.md §13). Declared before policy_/engine_:
  // the engine and scheduler hold raw pointers into it.
  obs::Profiler profiler_;
  adapt::GlobalMetricMonitor metric_monitor_;
  // Intra-run worker pool (config_.threads > 1 only). Declared before
  // policy_/engine_ so it is destroyed after them: the engine holds a raw
  // pointer and might, in principle, touch it until destruction.
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<adapt::AdaptationPolicy> policy_;
  std::unique_ptr<engine::Engine> engine_;
  // Null unless config.standby_replicas > 0.
  std::unique_ptr<resilience::StandbyManager> standby_;
  Recorder recorder_;
  std::optional<SloWatchdog> slo_watchdog_;

  // Original source ids by name: workload patterns are keyed by the ids of
  // the query spec as built; re-planning renumbers operators.
  std::unordered_map<std::string, OperatorId> pattern_source_ids_;

  double now_ = 0.0;
  double last_decision_ = 0.0;
  double last_background_replan_ = 0.0;
  std::uint64_t tick_count_ = 0;          // steps taken (profile cadence)
  std::uint64_t last_profile_emit_ = 0;   // tick_count_ at last profile emit
  int initial_tasks_ = 0;
  std::optional<Transition> transition_;
  // A re-plan that must wait for a tumbling-window boundary (§4.3).
  std::optional<adapt::AdaptationAction> pending_boundary_;
  std::optional<std::size_t> stabilizing_event_;
  double pre_transition_delay_ = 0.0;  // baseline for stabilization
  bool stabilizing_recovery_ = false;  // stabilizing event is a recovery

  // Causal-span bookkeeping (schema v2, DESIGN.md §6). `adaptation_span_` is
  // a decision-episode root opened by maybe_adapt/maybe_recover and handed to
  // begin_transition (it outlives the decision scope when an action waits for
  // a window boundary). After finalize the episode root moves to
  // `stabilizing_root_` with a "stabilize" child span until the deployment
  // settles. All of these are closed by the destructor if the run ends
  // mid-episode, so traces stay begin/end balanced.
  std::uint64_t adaptation_span_ = obs::kNoSpan;
  std::uint64_t stabilizing_root_ = obs::kNoSpan;
  std::uint64_t stabilize_span_ = obs::kNoSpan;

  double control_stalled_until_ = -1.0;
  RetryState retry_;
  // Dedicated stream for backoff jitter: never forked from rng_, whose draw
  // order downstream components depend on (same rule as the WAN monitor).
  Rng backoff_rng_;
  // Time of the most recent confirm_failure, for the recovery
  // time-to-stabilize histogram observed when the episode stabilizes.
  double last_confirm_at_ = -1.0;
  // Sites whose recovery was abandoned after the retry budget; cleared when
  // the detector re-trusts them.
  std::vector<bool> recovery_abandoned_;
  bool recovery_degrade_active_ = false;  // we enabled engine degrade
};

}  // namespace wasp::runtime
