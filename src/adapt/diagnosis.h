// Execution health diagnosis (paper §3.2).
//
// An execution is healthy when no backpressure is observed and
//   (1) λ_P = λ_I           -- enough compute to keep up, and
//   (2) λ_I ≈ Σ_u λ_O[u]    -- enough network to receive the upstream output.
// Violation of (1) with the input actually reaching the operator indicates a
// compute bottleneck; violation of (2) -- data leaving upstream but not
// arriving -- indicates a constrained/congested network path. A third
// diagnosis, over-provisioning, flags stages whose allocated capacity far
// exceeds the expected workload so the policy can scale them down (§4.2).
#pragma once

#include <string>

#include "adapt/monitor.h"
#include "common/ids.h"

namespace wasp::adapt {

enum class Health {
  kHealthy,
  kComputeBottleneck,
  kNetworkBottleneck,
  kOverprovisioned,
};

[[nodiscard]] const char* to_string(Health health);

struct Diagnosis {
  Health health = Health::kHealthy;
  // How far the execution is from healthy: for bottlenecks, the ratio of
  // expected input rate to sustainable rate (>1 = worse); for
  // over-provisioning, the utilization (<1 = more wasteful).
  double severity = 1.0;
  std::string detail;
};

// Accumulated backlog is folded into the expected workload as
// backlog / kDrainTargetSec: the stage should be provisioned to clear its
// backlog within this horizon (drives post-failure scale-out, §8.6).
inline constexpr double kDrainTargetSec = 60.0;

// Diagnoses one operator from its window stats, the §3.3 expected input
// rate, the upstream expected output sum, and the stage's aggregate
// processing capacity (events/s across its tasks).
[[nodiscard]] Diagnosis diagnose(const OperatorWindowStats& stats,
                                 double expected_input_eps,
                                 double upstream_output_eps,
                                 double capacity_eps);

}  // namespace wasp::adapt
