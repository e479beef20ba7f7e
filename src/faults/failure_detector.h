// Heartbeat-timeout failure detection for the control plane.
//
// WASP assumes failures are detected, not known (§1, §7): the coordinator
// does not get to read the engine's ground-truth failure flag. Each site
// sends a heartbeat to the coordinator every `kHeartbeatIntervalSec`; a
// heartbeat is delivered in a tick iff the site is alive *and* the directed
// link site -> coordinator has non-zero capacity. The detector tracks, per
// site, the time since the last delivered heartbeat:
//
//   gap >= kSuspectTimeoutSec  -> kSuspected       (trace "suspect")
//   gap >= kConfirmTimeoutSec  -> kConfirmedFailed (trace "confirm_failure")
//   a delivery at any state    -> kTrusted         (trace "trust")
//
// This makes detection latency, false suspicion on partitioned/stalled links,
// and re-trust on recovery observable dynamics instead of implementation
// shortcuts. The detector is deliberately RNG-free and depends only on the
// network's capacity view, so same-seed replays produce identical state
// transition sequences.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "net/network.h"

namespace wasp::obs {
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::faults {

enum class SiteHealth {
  kTrusted,
  kSuspected,
  kConfirmedFailed,
};

[[nodiscard]] const char* to_string(SiteHealth health);
// A change into `to` as the detector's trace event type and the recovery
// log's kind: "trust", "suspect" or "confirm_failure".
[[nodiscard]] const char* change_kind(SiteHealth to);

// One detector state change, drained via take_transitions() so the runtime
// can mirror detector activity into its recorder.
struct HealthTransition {
  double t = 0.0;
  SiteId site{-1};
  SiteHealth from = SiteHealth::kTrusted;
  SiteHealth to = SiteHealth::kTrusted;
};

class FailureDetector {
 public:
  static constexpr double kHeartbeatIntervalSec = 2.0;
  // Gap after which a site is suspected (slots withheld from placement).
  static constexpr double kSuspectTimeoutSec = 6.0;
  // Gap after which the failure is confirmed (recovery re-plan triggers).
  static constexpr double kConfirmTimeoutSec = 20.0;

  // The coordinator is the site with the most slots (lowest id breaking
  // ties), a deterministic stand-in for leader election.
  explicit FailureDetector(const net::Network& network);

  // Advances the detector to time `t`. `alive(site)` is the data-plane truth
  // the heartbeats sample: typically `!engine.site_failed(site)`. The
  // coordinator trusts itself unconditionally.
  void tick(double t, const std::function<bool(SiteId)>& alive);

  [[nodiscard]] SiteHealth health(SiteId site) const;
  [[nodiscard]] bool trusted(SiteId site) const {
    return health(site) == SiteHealth::kTrusted;
  }
  [[nodiscard]] bool confirmed_failed(SiteId site) const {
    return health(site) == SiteHealth::kConfirmedFailed;
  }
  [[nodiscard]] SiteId coordinator() const { return coordinator_; }

  // Returns and clears the state changes accumulated since the last call,
  // in detection order.
  std::vector<HealthTransition> take_transitions();

  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }

  // Closes any suspicion spans still open (status "unresolved") -- the
  // runtime calls this at shutdown so traces stay begin/end balanced even
  // when the run ends mid-suspicion.
  void close_open_spans(double t);

 private:
  void transition(double t, SiteId site, SiteHealth to);

  const net::Network& network_;
  SiteId coordinator_{-1};
  std::vector<SiteHealth> health_;
  std::vector<double> last_heartbeat_;  // delivery time, per site
  std::vector<double> next_send_;       // next heartbeat send time, per site
  std::vector<HealthTransition> pending_;
  // Open "suspicion" span per site (0 = none): opened at trusted->suspected,
  // closed at re-trust or close_open_spans(). `suspicion_since_` is the span
  // open time, for the episode duration on close.
  std::vector<std::uint64_t> suspicion_span_;
  std::vector<double> suspicion_since_;
  obs::TraceEmitter* trace_ = nullptr;
};

}  // namespace wasp::faults
