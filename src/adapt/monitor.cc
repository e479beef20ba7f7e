#include "adapt/monitor.h"

#include <algorithm>

namespace wasp::adapt {

void GlobalMetricMonitor::observe(const engine::Engine& engine, double t) {
  if (ticks_ == 0) window_start_ = t;
  window_end_ = t;
  ++ticks_;
  const std::size_t n = engine.logical().num_operators();
  if (per_op_.size() < n) per_op_.resize(n);
  if (source_eps_sum_.size() < n) source_eps_sum_.resize(n, 0.0);
  for (const auto& op : engine.logical().operators()) {
    // Persistent scratch: op_metrics_into reuses the vectors inside
    // scratch_, so the per-tick observation loop stops allocating. State
    // sizes are skipped -- the window accumulator never reads them.
    engine::OperatorMetrics& m = scratch_;
    engine.op_metrics_into(op.id, m, /*include_state=*/false);
    Accumulator& acc = per_op_[static_cast<std::size_t>(op.id.value())];
    if (acc.ticks == 0) {
      acc.first_queue = m.input_queue_events;
      acc.first_channel_backlog = m.channel_backlog_events;
    }
    acc.lambda_p_sum += m.processed_eps;
    acc.lambda_o_sum += m.emitted_eps;
    acc.lambda_i_sum += m.arrived_eps;
    if (m.backpressured) acc.backpressure_ticks += 1.0;
    acc.last_queue = m.input_queue_events;
    acc.last_channel_backlog = m.channel_backlog_events;
    acc.parallelism = engine.stage_parallelism(op.id);
    ++acc.ticks;

    if (op.is_source()) {
      source_eps_sum_[static_cast<std::size_t>(op.id.value())] +=
          engine.source_generation_eps(op.id);
    }
  }
}

void GlobalMetricMonitor::reset_window() {
  per_op_.clear();
  source_eps_sum_.clear();
  ticks_ = 0;
  window_start_ = window_end_ = 0.0;
}

OperatorWindowStats GlobalMetricMonitor::stats(OperatorId op) const {
  OperatorWindowStats s;
  const auto i = static_cast<std::size_t>(op.value());
  if (i >= per_op_.size() || per_op_[i].ticks == 0) return s;
  const Accumulator& acc = per_op_[i];
  const auto n = static_cast<double>(acc.ticks);
  s.lambda_p = acc.lambda_p_sum / n;
  s.lambda_o = acc.lambda_o_sum / n;
  s.lambda_i = acc.lambda_i_sum / n;
  s.selectivity = s.lambda_p > 0.0 ? s.lambda_o / s.lambda_p : 1.0;
  s.backpressure_frac = acc.backpressure_ticks / n;
  s.input_queue_events = acc.last_queue;
  s.channel_backlog_events = acc.last_channel_backlog;
  const double span = std::max(1.0, window_end_ - window_start_);
  s.input_queue_growth_eps = (acc.last_queue - acc.first_queue) / span;
  s.channel_backlog_growth_eps =
      (acc.last_channel_backlog - acc.first_channel_backlog) / span;
  s.parallelism = acc.parallelism;
  s.ticks = acc.ticks;
  return s;
}

double GlobalMetricMonitor::actual_source_eps(OperatorId source) const {
  const auto i = static_cast<std::size_t>(source.value());
  if (i >= source_eps_sum_.size() || ticks_ == 0) return 0.0;
  return source_eps_sum_[i] / static_cast<double>(ticks_);
}

query::OperatorTable<query::OperatorRates>
GlobalMetricMonitor::estimate_actual_rates(
    const query::LogicalPlan& plan) const {
  // §3.3: λ̂_P = λ̂_I = Σ_u λ̂_O[u] (or λ_O[src] at sources); λ̂_O = σ · λ̂_I.
  // σ is the measured selectivity where the operator has processed anything
  // this window, else the configured one.
  query::OperatorTable<query::OperatorRates> rates(plan.num_operators());
  for (OperatorId id : plan.topological_order()) {
    const query::LogicalOperator& op = plan.op(id);
    query::OperatorRates& r = rates[id];
    if (op.is_source()) {
      r.input_eps = actual_source_eps(id);
      r.output_eps = r.input_eps;  // sources pass events through
    } else {
      for (OperatorId u : plan.upstream(id)) {
        r.input_eps += rates[u].output_eps;
      }
      const OperatorWindowStats s = stats(id);
      const double sigma =
          s.lambda_p > 1.0 ? s.selectivity : op.selectivity;
      r.output_eps = sigma * r.input_eps;
    }
  }
  return rates;
}

}  // namespace wasp::adapt
