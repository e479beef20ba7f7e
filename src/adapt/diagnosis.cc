#include "adapt/diagnosis.h"

#include <algorithm>
#include <sstream>

namespace wasp::adapt {
namespace {

// Relative slack on the rate equalities (absorbs fluid noise).
constexpr double kTolerance = 0.08;
// A stage is over-provisioned when expected input uses less than this
// fraction of its capacity (and it has more than one task).
constexpr double kUnderutilization = 0.45;
// Require sustained queue growth (events/s) before declaring a bottleneck,
// filtering transient spikes (§7).
constexpr double kMinQueueGrowthEps = 1.0;
// ... or an already-standing channel backlog of at least this many events
// (saturated buffers stop growing under backpressure).
constexpr double kMinBacklogEvents = 2'000.0;
// A non-draining inbound-channel backlog worth this many seconds of upstream
// traffic marks a network bottleneck even when the rate deficit is within
// tolerance (a link pinned at ~100% utilization). Must sit below ~1.9 s:
// saturated channel buffers cap at about twice their drain rate, so a higher
// threshold can never be reached.
constexpr double kStandingBacklogSec = 1.5;

}  // namespace

const char* to_string(Health health) {
  switch (health) {
    case Health::kHealthy:
      return "healthy";
    case Health::kComputeBottleneck:
      return "compute-bottleneck";
    case Health::kNetworkBottleneck:
      return "network-bottleneck";
    case Health::kOverprovisioned:
      return "overprovisioned";
  }
  return "?";
}

Diagnosis diagnose(const OperatorWindowStats& stats,
                   double expected_input_eps, double upstream_output_eps,
                   double capacity_eps) {
  Diagnosis d;
  if (stats.ticks == 0) return d;

  // Compute bottleneck: the expected workload exceeds what the stage's
  // allocated slots can process (λ_P < λ̂_I), and the input queue confirms
  // it is actually falling behind.
  const bool capacity_exceeded =
      expected_input_eps > capacity_eps * (1.0 + kTolerance) &&
      (stats.input_queue_growth_eps > kMinQueueGrowthEps ||
       stats.lambda_p < expected_input_eps * (1.0 - kTolerance));
  // Straggler: events arrive and pile up in the *input* queue while the
  // nominal capacity claims headroom -- the tasks are simply slower than
  // advertised (§1). Network bottlenecks park backlog in the channels, not
  // the input queue, so this clause does not misfire on them.
  const bool straggling =
      stats.lambda_p < expected_input_eps * (1.0 - kTolerance) &&
      stats.input_queue_growth_eps > kMinQueueGrowthEps;
  if (capacity_exceeded || straggling) {
    d.health = Health::kComputeBottleneck;
    std::ostringstream os;
    if (capacity_exceeded) {
      d.severity =
          capacity_eps > 0.0 ? expected_input_eps / capacity_eps : 1e9;
      os << "expected input " << expected_input_eps << " ev/s > capacity "
         << capacity_eps << " ev/s";
    } else {
      d.severity = expected_input_eps / std::max(stats.lambda_p, 1.0);
      os << "straggling: processing " << stats.lambda_p
         << " ev/s against expected " << expected_input_eps << " ev/s";
    }
    d.detail = os.str();
    return d;
  }

  // Network bottleneck: upstream emits more than arrives (λ_I < Σ λ_O[u])
  // with backlog accumulating in the inbound channels, or a standing
  // channel backlog worth several seconds of traffic that never drains
  // (a link pinned at 100% utilization).
  // The deficit must come with evidence in the channels -- either growing
  // backlog (onset) or an existing one (saturated buffers stop growing once
  // backpressure caps them, but the deficit persists).
  const bool rate_deficit =
      upstream_output_eps > stats.lambda_i * (1.0 + kTolerance) &&
      (stats.channel_backlog_growth_eps > kMinQueueGrowthEps ||
       stats.channel_backlog_events > kMinBacklogEvents);
  const bool standing_backlog =
      upstream_output_eps > 0.0 &&
      stats.channel_backlog_events >
          kStandingBacklogSec * upstream_output_eps &&
      stats.channel_backlog_growth_eps > -kMinQueueGrowthEps;
  const bool network_constrained = rate_deficit || standing_backlog;
  if (network_constrained) {
    d.health = Health::kNetworkBottleneck;
    d.severity =
        stats.lambda_i > 0.0 ? upstream_output_eps / stats.lambda_i : 1e9;
    std::ostringstream os;
    os << "upstream emits " << upstream_output_eps << " ev/s but only "
       << stats.lambda_i << " ev/s arrives";
    d.detail = os.str();
    return d;
  }

  // Over-provisioning: capacity far above the expected workload with
  // parallelism to spare, and no residual backlog being drained.
  if (stats.parallelism > 1 && capacity_eps > 0.0 &&
      expected_input_eps < kUnderutilization * capacity_eps &&
      stats.input_queue_growth_eps <= 0.0 &&
      stats.channel_backlog_growth_eps <= 0.0 &&
      stats.input_queue_events < expected_input_eps + 1.0) {
    d.health = Health::kOverprovisioned;
    d.severity = expected_input_eps / capacity_eps;
    std::ostringstream os;
    os << "utilization " << d.severity << " with p=" << stats.parallelism;
    d.detail = os.str();
    return d;
  }
  return d;
}

}  // namespace wasp::adapt
