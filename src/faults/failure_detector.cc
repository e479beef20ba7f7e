#include "faults/failure_detector.h"

#include <cassert>

#include "obs/trace.h"

namespace wasp::faults {
namespace {

constexpr double kCapacityEps = 1e-9;

static_assert(FailureDetector::kHeartbeatIntervalSec > 0.0);
static_assert(FailureDetector::kSuspectTimeoutSec >=
              FailureDetector::kHeartbeatIntervalSec);
static_assert(FailureDetector::kConfirmTimeoutSec >=
              FailureDetector::kSuspectTimeoutSec);

}  // namespace

const char* to_string(SiteHealth health) {
  switch (health) {
    case SiteHealth::kTrusted:
      return "trusted";
    case SiteHealth::kSuspected:
      return "suspected";
    case SiteHealth::kConfirmedFailed:
      return "confirmed_failed";
  }
  return "?";
}

const char* change_kind(SiteHealth to) {
  return to == SiteHealth::kTrusted     ? "trust"
         : to == SiteHealth::kSuspected ? "suspect"
                                        : "confirm_failure";
}

FailureDetector::FailureDetector(const net::Network& network)
    : network_(network) {
  const std::size_t n = network_.topology().num_sites();
  assert(n > 0);
  // Deterministic leader stand-in: the site with the most slots, lowest id
  // breaking ties.
  int best_slots = -1;
  for (const net::Site& site : network_.topology().sites()) {
    if (site.slots > best_slots) {
      best_slots = site.slots;
      coordinator_ = site.id;
    }
  }
  assert(static_cast<std::size_t>(coordinator_.value()) < n);
  health_.assign(n, SiteHealth::kTrusted);
  last_heartbeat_.assign(n, 0.0);
  next_send_.assign(n, kHeartbeatIntervalSec);
  suspicion_span_.assign(n, obs::kNoSpan);
  suspicion_since_.assign(n, 0.0);
}

void FailureDetector::tick(double t, const std::function<bool(SiteId)>& alive) {
  const std::size_t n = health_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const SiteId site(static_cast<std::int64_t>(i));
    if (site == coordinator_) {
      last_heartbeat_[i] = t;
      continue;
    }
    // Timeout checks run against the table as of the *previous* deliveries:
    // a coordinator that was stalled (or simply did not hear anything) first
    // consults its stale view, then processes whatever arrives this tick.
    // That ordering is what makes post-stall false suspicion observable.
    // Escalation is at most one level per tick: a site is only *confirmed*
    // failed if it stayed suspected across a full tick with its gap past the
    // confirm timeout. A coordinator waking from a long stall therefore
    // suspects everyone, then re-trusts as the backlog of heartbeats lands,
    // instead of declaring the whole fleet dead off one stale table.
    const double gap = t - last_heartbeat_[i];
    if (gap >= kConfirmTimeoutSec && health_[i] == SiteHealth::kSuspected) {
      transition(t, site, SiteHealth::kConfirmedFailed);
    } else if (gap >= kSuspectTimeoutSec &&
               health_[i] == SiteHealth::kTrusted) {
      transition(t, site, SiteHealth::kSuspected);
    }

    if (t >= next_send_[i]) {
      const bool delivered =
          alive(site) && network_.capacity(site, coordinator_, t) > kCapacityEps;
      next_send_[i] = t + kHeartbeatIntervalSec;
      if (delivered) {
        last_heartbeat_[i] = t;
        if (health_[i] != SiteHealth::kTrusted) {
          transition(t, site, SiteHealth::kTrusted);
        }
      }
    }
  }
}

SiteHealth FailureDetector::health(SiteId site) const {
  const auto i = static_cast<std::size_t>(site.value());
  assert(i < health_.size());
  return health_[i];
}

std::vector<HealthTransition> FailureDetector::take_transitions() {
  std::vector<HealthTransition> out = std::move(pending_);
  pending_.clear();
  return out;
}

void FailureDetector::close_open_spans(double t) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  for (std::size_t i = 0; i < suspicion_span_.size(); ++i) {
    if (suspicion_span_[i] == obs::kNoSpan) continue;
    trace_->end_span_at(t, suspicion_span_[i])
        .str("status", "unresolved")
        .num("site", static_cast<double>(i))
        .num("duration_sec", t - suspicion_since_[i]);
    suspicion_span_[i] = obs::kNoSpan;
  }
}

void FailureDetector::transition(double t, SiteId site, SiteHealth to) {
  const auto i = static_cast<std::size_t>(site.value());
  const SiteHealth from = health_[i];
  health_[i] = to;
  pending_.push_back(HealthTransition{t, site, from, to});
  if (trace_ != nullptr && trace_->enabled()) {
    // A suspicion episode is a span (root: detector activity is causally
    // independent of any in-flight adaptation): opened at trusted->suspected,
    // held open through confirmation, closed at re-trust. The flat
    // suspect/confirm_failure/trust events nest inside it.
    if (from == SiteHealth::kTrusted && to == SiteHealth::kSuspected) {
      trace_
          ->begin_span_event_at(t, "suspicion", &suspicion_span_[i],
                                /*parent=*/obs::kNoSpan)
          .num("site", static_cast<double>(site.value()));
      suspicion_since_[i] = t;
    }
    obs::TraceEmitter::ParentScope in_episode(trace_, suspicion_span_[i]);
    trace_->event_at(t, change_kind(to))
        .num("site", static_cast<double>(site.value()))
        .num("gap_sec", t - last_heartbeat_[i])
        .str("from_state", to_string(from));
    if (to == SiteHealth::kTrusted && suspicion_span_[i] != obs::kNoSpan) {
      const char* status = from == SiteHealth::kSuspected ? "false_alarm"
                                                          : "recovered";
      trace_->end_span_at(t, suspicion_span_[i])
          .str("status", status)
          .num("site", static_cast<double>(site.value()))
          .num("duration_sec", t - suspicion_since_[i]);
      suspicion_span_[i] = obs::kNoSpan;
    }
  }
}

}  // namespace wasp::faults
