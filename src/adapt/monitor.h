// Global Metric Monitor (paper §3.1-§3.3).
//
// Task Managers report per-operator runtime metrics each tick (the engine's
// OperatorMetrics); this monitor aggregates them over the monitoring
// interval and provides:
//   - interval averages of λ_P, λ_O, λ_I and measured selectivity σ,
//   - backpressure incidence and queue growth,
//   - the *actual* workload estimate λ̂ (§3.3): source rates propagated
//     through measured selectivities, immune to backpressure distortion of
//     the observed rates.
#pragma once

#include <vector>

#include "common/ids.h"
#include "engine/engine.h"

namespace wasp::adapt {

// Interval-aggregated statistics for one operator.
struct OperatorWindowStats {
  double lambda_p = 0.0;  // avg processed events/s
  double lambda_o = 0.0;  // avg emitted events/s
  double lambda_i = 0.0;  // avg arrived events/s
  double selectivity = 1.0;
  double backpressure_frac = 0.0;  // fraction of ticks backpressured
  double input_queue_events = 0.0;      // at window end
  double input_queue_growth_eps = 0.0;  // (end - start) / interval
  double channel_backlog_events = 0.0;
  double channel_backlog_growth_eps = 0.0;
  int parallelism = 0;
  std::size_t ticks = 0;
};

class GlobalMetricMonitor {
 public:
  // Records one tick worth of engine metrics. Call every tick.
  void observe(const engine::Engine& engine, double t);

  // Clears the aggregation window (call after each adaptation decision).
  void reset_window();

  [[nodiscard]] bool has_data() const { return ticks_ > 0; }
  [[nodiscard]] std::size_t window_ticks() const { return ticks_; }

  // Aggregated stats for `op`; zeros if never observed.
  [[nodiscard]] OperatorWindowStats stats(OperatorId op) const;

  // Actual workload of a source over the window (avg generation rate).
  [[nodiscard]] double actual_source_eps(OperatorId source) const;

  // §3.3 recursion: expected input/output rates per operator, computed from
  // the actual source workload and *measured* selectivities (falling back
  // to the configured selectivity for operators with no throughput yet).
  [[nodiscard]] query::OperatorTable<query::OperatorRates>
  estimate_actual_rates(const query::LogicalPlan& plan) const;

 private:
  struct Accumulator {
    double lambda_p_sum = 0.0;
    double lambda_o_sum = 0.0;
    double lambda_i_sum = 0.0;
    double backpressure_ticks = 0.0;
    double first_queue = 0.0;
    double last_queue = 0.0;
    double first_channel_backlog = 0.0;
    double last_channel_backlog = 0.0;
    int parallelism = 0;
    std::size_t ticks = 0;
  };

  // Operator ids are dense (0..num_operators-1 within a plan), so the
  // accumulators live in flat vectors indexed by id -- no hashing in the
  // per-tick observe loop. Entries with ticks == 0 are "absent".
  std::vector<Accumulator> per_op_;
  engine::OperatorMetrics scratch_;  // reused across observe() calls
  std::vector<double> source_eps_sum_;
  std::size_t ticks_ = 0;
  double window_start_ = 0.0;
  double window_end_ = 0.0;
};

}  // namespace wasp::adapt
