// Experiment metric recorder.
//
// Collects, per tick, the series the paper's figures plot -- delay,
// processing ratio, parallelism -- plus the event-weighted delay histogram
// (for CDFs / percentiles), cumulative event accounting (processed-events
// percentages, Fig. 12a), and a log of adaptation events with measured
// transition and stabilization times (the §8.7 overhead breakdown).
#pragma once

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
  std::string abort_reason;
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
// faults ("transition_abort", "retry", "abandon"), the recovery re-plan
// ("replan", "stabilized"), and the degrade fallback ("degrade_on",
// "degrade_off"). Together they give the `suspect -> confirm_failure ->
// replan -> stabilized` chain the chaos acceptance test asserts on.
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
  Recorder()
      : delay_("delay_s"),
        ratio_("processing_ratio"),
        parallelism_("parallelism_x"),
        backlog_("backlog_events") {}

  void record_tick(double t, double delay_sec, double ratio,
                   double parallelism_factor, double backlog_events,
                   double generated, double admitted, double dropped);

  // Mirrors every recorded tick into `registry` (runtime.* gauges and
  // counters), so external consumers read the recorder's data through the
  // shared registry instead of duplicating it. The delay distribution stays
  // here (delay_histogram()): its total weight is runtime.processed_events.
  // Non-owning; pass nullptr to detach. Handles are resolved once here (the
  // registry's nodes are address-stable) so record_tick does no name lookups.
  void bind_metrics(obs::MetricsRegistry* registry);

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

  std::vector<AdaptationEvent>& events() { return events_; }
  [[nodiscard]] const std::vector<AdaptationEvent>& events() const {
    return events_;
  }

  void record_recovery(RecoveryEvent event) {
    recovery_events_.push_back(std::move(event));
  }
  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_events() const {
    return recovery_events_;
  }

 private:
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
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached registry handles (resolved in bind_metrics; nullptr when
  // detached).
  obs::Gauge* m_delay_ = nullptr;
  obs::Gauge* m_ratio_ = nullptr;
  obs::Gauge* m_parallelism_ = nullptr;
  obs::Gauge* m_backlog_ = nullptr;
  obs::Counter* m_generated_ = nullptr;
  obs::Counter* m_processed_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
};

}  // namespace wasp::runtime
