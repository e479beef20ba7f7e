#include "runtime/recorder.h"

#include <utility>

#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace wasp::runtime {

Recorder::Recorder(obs::MetricsRegistry* metrics, obs::TraceEmitter* trace)
    : delay_("delay_s"),
      ratio_("processing_ratio"),
      parallelism_("parallelism_x"),
      backlog_("backlog_events"),
      metrics_(metrics),
      trace_(trace) {
  if (metrics_ == nullptr) return;
  m_parallelism_ = &metrics_->gauge("runtime.parallelism_factor");
  m_generated_ = &metrics_->counter("runtime.generated_events");
  m_processed_ = &metrics_->counter("runtime.processed_events");
}

void Recorder::record_tick(double t, double delay_sec, double ratio,
                           double parallelism_factor, double backlog_events,
                           double generated, double admitted, double dropped) {
  delay_.add(t, delay_sec);
  ratio_.add(t, ratio);
  parallelism_.add(t, parallelism_factor);
  backlog_.add(t, backlog_events);
  if (admitted > 0.0) delay_hist_.add(delay_sec, admitted);
  total_generated_ += generated;
  total_processed_ += admitted;
  total_dropped_ += dropped;

  if (metrics_ != nullptr) {
    m_parallelism_->set(parallelism_factor);
    m_generated_->inc(generated);
    m_processed_->inc(admitted);
  }
}

double Recorder::processed_fraction() const {
  return total_generated_ > 0.0 ? total_processed_ / total_generated_ : 1.0;
}

bool Recorder::traced() const { return trace_ != nullptr && trace_->enabled(); }

// Log counters are registered on their first use, so a run without
// adaptations or recovery steps names none of them.
void Recorder::count(const char* name) {
  if (metrics_ != nullptr) metrics_->counter(name).inc();
}

std::size_t Recorder::open_adaptation(AdaptationEvent event) {
  events_.push_back(std::move(event));
  const AdaptationEvent& e = events_.back();
  if (traced()) {
    trace_->event("adaptation")
        .str("kind", e.kind)
        .num("op", static_cast<double>(e.op))
        .str("reason", e.reason)
        .num("estimated_transition_sec", e.estimated_transition_sec)
        .num("migrated_mb", e.migrated_mb);
  }
  count("runtime.adaptations");
  return events_.size() - 1;
}

void Recorder::end_transition(const std::vector<std::size_t>& indices,
                              double t) {
  for (std::size_t index : indices) {
    AdaptationEvent& e = events_[index];
    e.transition_end = t;
    if (traced()) {
      trace_->event("transition_end")
          .str("kind", e.kind)
          .num("op", static_cast<double>(e.op))
          .num("decided_at", e.decided_at)
          .num("transition_sec", e.transition_sec());
    }
  }
}

void Recorder::abort_transition(const std::vector<std::size_t>& indices,
                                double t, const std::string& why) {
  std::int64_t op = -1;  // the first operator targeted; a re-plan has none
  for (std::size_t index : indices) {
    AdaptationEvent& e = events_[index];
    e.aborted_at = t;
    e.abort_reason = why;
    if (op < 0) op = e.op;
    if (traced()) {
      trace_->event("transition_abort")
          .str("kind", e.kind)
          .num("op", static_cast<double>(e.op))
          .str("reason", why)
          .num("attempt", static_cast<double>(e.attempt));
    }
  }
  count("runtime.transition_aborts");
  // Every entry of one transition carries the transition's retry number.
  record_recovery({.t = t, .kind = "transition_abort", .op = op,
                   .attempt = events_[indices.front()].attempt,
                   .detail = why});
}

void Recorder::stabilize(std::size_t index, double t, bool recovery) {
  AdaptationEvent& e = events_[index];
  e.stabilized_at = t;
  if (traced()) {
    trace_->event("stabilized")
        .str("kind", e.kind)
        .num("op", static_cast<double>(e.op))
        .num("decided_at", e.decided_at)
        .num("stabilize_sec", e.stabilize_sec());
  }
  if (recovery) {
    record_recovery({.t = t, .kind = "stabilized", .op = e.op,
                     .attempt = e.attempt, .detail = e.reason});
  }
}

std::size_t Recorder::record_failover(double t, std::int64_t op,
                                      std::int64_t site,
                                      std::int64_t standby_site) {
  events_.push_back({.decided_at = t,
                     .transition_end = t,  // a pointer swap: no transfer
                     .kind = "failover",
                     .reason = "standby promotion off failed site " +
                               std::to_string(site),
                     .op = op});
  record_recovery({.t = t, .kind = "failover", .site = site, .op = op,
                   .detail = "promoted standby at site " +
                             std::to_string(standby_site)});
  return events_.size() - 1;
}

void Recorder::record_recovery(RecoveryEvent event) {
  recovery_events_.push_back(std::move(event));
  const RecoveryEvent& e = recovery_events_.back();
  if (traced()) {
    trace_->event("recovery")
        .str("kind", e.kind)
        .num("site", static_cast<double>(e.site))
        .num("op", static_cast<double>(e.op))
        .num("attempt", static_cast<double>(e.attempt))
        .num("backoff_sec", e.backoff_sec)
        .str("detail", e.detail);
  }
  count("runtime.recovery_events");
}

void Recorder::record_health_change(RecoveryEvent event) {
  recovery_events_.push_back(std::move(event));
  count("runtime.recovery_events");
}

}  // namespace wasp::runtime
