// Fingerprint of one run's simulated outputs.
//
// Two runs simulated the same thing exactly when their digests match: the
// Recorder's per-tick series and totals, the adaptation and recovery logs,
// and the metrics snapshot. Wall-clock observers are left out: profiler.*
// and pool.* entries (present only after export_profiler_metrics()) and the
// trace. No expected digest is stored anywhere; digests are only compared
// between runs of one invocation.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/wasp_system.h"

namespace perfbench {

[[nodiscard]] std::uint64_t sim_digest(const wasp::runtime::WaspSystem& system);

// 16 lowercase hex digits.
[[nodiscard]] std::string to_hex(std::uint64_t digest);

}  // namespace perfbench
