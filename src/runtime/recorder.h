// Experiment metric recorder.
//
// Collects, per tick, the series the paper's figures plot -- delay,
// processing ratio, parallelism -- plus the event-weighted delay histogram
// (for percentiles), cumulative event accounting (processed-events
// percentages, Fig. 12a), a log of adaptation events with measured
// transition and stabilization times (the §8.7 overhead breakdown), and the
// failure-recovery log (§8.6).
//
// The recorder is the one writer of both logs and of what restates them:
// each log call appends or completes an entry, emits the trace event built
// from that entry, and bumps the counter that counts it (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/time_series.h"

namespace wasp::obs {
class Counter;
class Gauge;
class MetricsRegistry;
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::runtime {

struct AdaptationEvent {
  double decided_at = 0.0;
  double transition_end = -1.0;   // when the new deployment resumed
  double stabilized_at = -1.0;    // when backlog returned to steady state
  std::string kind;               // "re-assign", "scale-out", ...
  std::string reason;
  std::int64_t op = -1;           // target operator id; -1 for re-plans
  double estimated_transition_sec = 0.0;
  double migrated_mb = 0.0;
  // Transactional-migration outcome: set when the transition was aborted
  // mid-transfer (endpoint failed or its link partitioned).
  double aborted_at = -1.0;
  std::string abort_reason{};
  int attempt = 0;  // 0 = first try; >0 = backoff retry number

  [[nodiscard]] bool aborted() const { return aborted_at >= 0.0; }

  [[nodiscard]] double transition_sec() const {
    return transition_end >= 0.0 ? transition_end - decided_at : 0.0;
  }
  [[nodiscard]] double stabilize_sec() const {
    return stabilized_at >= 0.0 && transition_end >= 0.0
               ? stabilized_at - transition_end
               : 0.0;
  }
};

// One entry in the failure-recovery log: the detector's state changes
// ("suspect", "confirm_failure", "trust"), the transition life-cycle under
// faults ("transition_abort", "retry", "abandon"), the recovery re-plan or
// standby promotion ("replan", "failover", "stabilized"), and the degrade
// fallback ("degrade_on", "degrade_off"). Together they give the `suspect ->
// confirm_failure -> replan -> stabilized` chain the chaos acceptance test
// asserts on.
struct RecoveryEvent {
  double t = 0.0;
  std::string kind;
  std::int64_t site = -1;    // subject site, when applicable
  std::int64_t op = -1;      // subject operator, when applicable
  int attempt = 0;           // retry number, for retry/abandon
  double backoff_sec = 0.0;  // wait before the retry fires
  std::string detail;
};

class Recorder {
 public:
  // Registers in `metrics` what only the recorder knows, each tick's
  // runtime.parallelism_factor, runtime.generated_events and
  // runtime.processed_events (the engine's gauges hold the tick's delay,
  // ratio, backlog and drops), and the log counters below on first use.
  // The delay distribution stays here: its total weight is
  // runtime.processed_events. The log calls write their events to `trace`.
  // Both non-owning; a null one records nothing there.
  explicit Recorder(obs::MetricsRegistry* metrics = nullptr,
                    obs::TraceEmitter* trace = nullptr);

  void record_tick(double t, double delay_sec, double ratio,
                   double parallelism_factor, double backlog_events,
                   double generated, double admitted, double dropped);

  [[nodiscard]] const TimeSeries& delay() const { return delay_; }
  [[nodiscard]] const TimeSeries& ratio() const { return ratio_; }
  [[nodiscard]] const TimeSeries& parallelism() const { return parallelism_; }
  [[nodiscard]] const TimeSeries& backlog() const { return backlog_; }
  [[nodiscard]] const WeightedHistogram& delay_histogram() const {
    return delay_hist_;
  }

  [[nodiscard]] double total_generated() const { return total_generated_; }
  [[nodiscard]] double total_processed() const { return total_processed_; }
  [[nodiscard]] double total_dropped() const { return total_dropped_; }
  // Fraction of generated events the query actually processed (Fig. 12a).
  [[nodiscard]] double processed_fraction() const;

  // ---- The adaptation log ---------------------------------------------
  // An adaptation opened: appends `event` with an "adaptation" trace event
  // and counts it in runtime.adaptations. Returns the entry's index.
  std::size_t open_adaptation(AdaptationEvent event);
  // The transition of entries `indices` resumed at `t`: one
  // "transition_end" each.
  void end_transition(const std::vector<std::size_t>& indices, double t);
  // It aborted at `t` for `why`: one "transition_abort" each, one
  // runtime.transition_aborts, and the "transition_abort" recovery step.
  void abort_transition(const std::vector<std::size_t>& indices, double t,
                        const std::string& why);
  // Entry `index`'s deployment settled at `t`: "stabilized", and the
  // "stabilized" recovery step when it settled a failure `recovery`.
  void stabilize(std::size_t index, double t, bool recovery);
  // A hot standby at `standby_site` took over `op` from failed `site` at
  // `t`: a finished "failover" entry and the "failover" recovery step. Its
  // trace record is the caller's "failover" event (mode=standby), which
  // holds the promotion's numbers; runtime.failovers counts it, not
  // runtime.adaptations. Returns the entry's index.
  std::size_t record_failover(double t, std::int64_t op, std::int64_t site,
                              std::int64_t standby_site);
  [[nodiscard]] const std::vector<AdaptationEvent>& events() const {
    return events_;
  }

  // ---- The recovery log (each entry counts in runtime.recovery_events) --
  // A recovery step: appends `event` with a "recovery" trace event.
  void record_recovery(RecoveryEvent event);
  // A detector health change: untraced, since the detector traces it.
  void record_health_change(RecoveryEvent event);
  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_events() const {
    return recovery_events_;
  }

 private:
  [[nodiscard]] bool traced() const;
  void count(const char* name);

  TimeSeries delay_;
  TimeSeries ratio_;
  TimeSeries parallelism_;
  TimeSeries backlog_;
  WeightedHistogram delay_hist_;
  double total_generated_ = 0.0;
  double total_processed_ = 0.0;
  double total_dropped_ = 0.0;
  std::vector<AdaptationEvent> events_;
  std::vector<RecoveryEvent> recovery_events_;
  obs::MetricsRegistry* metrics_;
  obs::TraceEmitter* trace_;
  // Registry handles (resolved once, in the constructor).
  obs::Gauge* m_parallelism_ = nullptr;
  obs::Counter* m_generated_ = nullptr;
  obs::Counter* m_processed_ = nullptr;
};

}  // namespace wasp::runtime
