// Declarative SLO watchdog (in-runtime, windowed).
//
// The runtime evaluates a small declarative SLO spec against the Recorder's
// series once per tick, over a sliding window:
//
//   delay_p99=5s    p99 of per-tick delay over the window must be <= 5 s
//   delay_p95=...   same at p95
//   delay_max=...   worst per-tick delay over the window
//   ratio_min=0.9   mean processing ratio over the window must be >= 0.9
//   window=30s      sliding-window width (default 30 s)
//
// Specs are comma-separated key=value pairs ("delay_p99=5s,ratio_min=0.9,
// window=30s", the wasp_sim --slo syntax). Seconds values accept an optional
// trailing "s"/"sec". A violation *episode* opens when any bound is breached
// and closes when every bound holds again; each episode is one
// "slo_violation" span (root) with flat "slo_violation_begin"/"_end" events
// nested inside, plus slo.* counters/gauges in the MetricsRegistry:
//   slo.violations          episodes opened
//   slo.violation_seconds   total time spent in violation
//   slo.in_violation        gauge: 1 while an episode is open
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/recorder.h"

namespace wasp::runtime {

struct SloSpec {
  // Bounds; negative = not set. At least one must be set for a valid spec.
  double delay_p99_sec = -1.0;
  double delay_p95_sec = -1.0;
  double delay_max_sec = -1.0;
  double ratio_min = -1.0;
  double window_sec = 30.0;

  [[nodiscard]] bool any() const {
    return delay_p99_sec >= 0.0 || delay_p95_sec >= 0.0 ||
           delay_max_sec >= 0.0 || ratio_min >= 0.0;
  }

  // Parses "delay_p99=5s,ratio_min=0.9,window=30s". Returns nullopt (and
  // fills *error when non-null) on unknown keys, malformed numbers, or a
  // spec with no bound at all.
  static std::optional<SloSpec> parse(std::string_view text,
                                      std::string* error = nullptr);

  // Canonical "key=value,..." rendering of the set fields, doubles in
  // shortest round-trip form (parse(to_string()) == *this).
  [[nodiscard]] std::string to_string() const;

  bool operator==(const SloSpec&) const = default;
};

class SloWatchdog {
 public:
  // `trace` and `metrics` are non-owning and may be null (no trace events /
  // no counters, evaluation still runs).
  SloWatchdog(SloSpec spec, obs::TraceEmitter* trace,
              obs::MetricsRegistry* metrics)
      : spec_(spec), trace_(trace), metrics_(metrics) {}

  // Evaluates the window ending at `now`; opens/closes the violation episode.
  void tick(double now, const Recorder& recorder);

  // Closes a still-open episode at end of run (status "unresolved").
  void finish(double now);

  [[nodiscard]] const SloSpec& spec() const { return spec_; }
  [[nodiscard]] bool in_violation() const { return violating_; }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] double violation_seconds() const {
    return violation_seconds_;
  }

 private:
  void open_episode(double now, const std::string& reasons);
  void close_episode(double now, std::string_view status);

  SloSpec spec_;
  obs::TraceEmitter* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

  bool violating_ = false;
  double violation_began_ = 0.0;
  std::uint64_t violation_span_ = obs::kNoSpan;
  std::uint64_t violations_ = 0;
  double violation_seconds_ = 0.0;
  std::string active_reasons_;
};

}  // namespace wasp::runtime
