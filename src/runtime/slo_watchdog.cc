#include "runtime/slo_watchdog.h"

#include <cstdio>

#include "common/number.h"

namespace wasp::runtime {
namespace {

// Parses a non-negative number with an optional "s"/"sec" suffix ("5",
// "5s", "5.5sec"). Returns false on anything else.
bool parse_value(std::string_view text, double* out) {
  for (std::string_view suffix : {"sec", "s"}) {
    if (text.ends_with(suffix)) {
      text.remove_suffix(suffix.size());
      break;
    }
  }
  double v = 0.0;
  if (!parse_number(text, &v) || v < 0.0) return false;
  *out = v;
  return true;
}

void append_bound(std::string& out, const char* key, double value) {
  if (value < 0.0) return;
  if (!out.empty()) out += ',';
  out += key;
  out += '=';
  out += format_number(value);
}

}  // namespace

std::optional<SloSpec> SloSpec::parse(std::string_view text,
                                      std::string* error) {
  SloSpec spec;
  auto fail = [&](const std::string& why) -> std::optional<SloSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view part = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      return fail("expected key=value, got '" + std::string(part) + "'");
    }
    const std::string_view key = part.substr(0, eq);
    const std::string_view value = part.substr(eq + 1);
    double v = 0.0;
    if (!parse_value(value, &v)) {
      return fail("bad value '" + std::string(value) + "' for '" +
                  std::string(key) + "'");
    }
    if (key == "delay_p99") {
      spec.delay_p99_sec = v;
    } else if (key == "delay_p95") {
      spec.delay_p95_sec = v;
    } else if (key == "delay_max") {
      spec.delay_max_sec = v;
    } else if (key == "ratio_min") {
      spec.ratio_min = v;
    } else if (key == "window") {
      if (v <= 0.0) return fail("window must be positive");
      spec.window_sec = v;
    } else {
      return fail("unknown SLO key '" + std::string(key) + "'");
    }
  }
  if (!spec.any()) {
    return fail(
        "no SLO bound set (need delay_p99/delay_p95/delay_max/ratio_min)");
  }
  return spec;
}

std::string SloSpec::to_string() const {
  std::string out;
  append_bound(out, "delay_p99", delay_p99_sec);
  append_bound(out, "delay_p95", delay_p95_sec);
  append_bound(out, "delay_max", delay_max_sec);
  append_bound(out, "ratio_min", ratio_min);
  append_bound(out, "window", window_sec);
  return out;
}

void SloWatchdog::tick(double now, const Recorder& recorder) {
  const double t0 = now - spec_.window_sec;
  const double t1 = now + 1e-9;  // include the tick recorded at `now`

  std::string reasons;
  auto breach = [&](const char* key, double observed, double bound) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%.3g>%.3g",
                  reasons.empty() ? "" : ",", key, observed, bound);
    reasons += buf;
  };

  if (spec_.delay_p99_sec >= 0.0) {
    const double p99 = recorder.delay().percentile_over(t0, t1, 99.0);
    if (p99 > spec_.delay_p99_sec) {
      breach("delay_p99", p99, spec_.delay_p99_sec);
    }
  }
  if (spec_.delay_p95_sec >= 0.0) {
    const double p95 = recorder.delay().percentile_over(t0, t1, 95.0);
    if (p95 > spec_.delay_p95_sec) {
      breach("delay_p95", p95, spec_.delay_p95_sec);
    }
  }
  if (spec_.delay_max_sec >= 0.0) {
    const double worst = recorder.delay().max_over(t0, t1);
    if (worst > spec_.delay_max_sec) {
      breach("delay_max", worst, spec_.delay_max_sec);
    }
  }
  if (spec_.ratio_min >= 0.0 && !recorder.ratio().empty()) {
    const double mean = recorder.ratio().mean_over(t0, t1);
    if (mean < spec_.ratio_min) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%sratio_min=%.3g<%.3g",
                    reasons.empty() ? "" : ",", mean, spec_.ratio_min);
      reasons += buf;
    }
  }

  const bool breached = !reasons.empty();
  if (breached && !violating_) {
    open_episode(now, reasons);
  } else if (!breached && violating_) {
    close_episode(now, "resolved");
  } else if (violating_) {
    active_reasons_ = reasons;  // episode continues; remember latest breach
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("slo.in_violation").set(violating_ ? 1.0 : 0.0);
  }
}

void SloWatchdog::finish(double now) {
  if (violating_) close_episode(now, "unresolved");
  if (metrics_ != nullptr) metrics_->gauge("slo.in_violation").set(0.0);
}

void SloWatchdog::open_episode(double now, const std::string& reasons) {
  violating_ = true;
  violation_began_ = now;
  active_reasons_ = reasons;
  ++violations_;
  if (metrics_ != nullptr) metrics_->counter("slo.violations").inc();
  if (trace_ != nullptr && trace_->enabled()) {
    trace_
        ->begin_span_event("slo_violation", &violation_span_,
                           /*parent=*/obs::kNoSpan)
        .str("reasons", reasons);
    obs::TraceEmitter::ParentScope in_episode(trace_, violation_span_);
    trace_->event("slo_violation_begin").str("reasons", reasons);
  }
}

void SloWatchdog::close_episode(double now, std::string_view status) {
  const double duration = now - violation_began_;
  violation_seconds_ += duration;
  violating_ = false;
  if (metrics_ != nullptr) {
    metrics_->counter("slo.violation_seconds").inc(duration);
  }
  if (trace_ != nullptr && trace_->enabled()) {
    {
      obs::TraceEmitter::ParentScope in_episode(trace_, violation_span_);
      trace_->event("slo_violation_end")
          .str("status", status)
          .num("duration_sec", duration)
          .str("reasons", active_reasons_);
    }
    trace_->end_span(violation_span_)
        .str("status", status)
        .num("duration_sec", duration)
        .str("reasons", active_reasons_);
  }
  violation_span_ = obs::kNoSpan;
  active_reasons_.clear();
}

}  // namespace wasp::runtime
