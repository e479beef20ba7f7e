#include "driver/digest.h"

#include <cstdio>
#include <string_view>

namespace perfbench {
namespace {

// 64-bit FNV-1a over exact bit patterns (no formatting, no rounding).
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ULL;
    }
  }
  void num(double v) { bytes(&v, sizeof v); }
  void num(std::int64_t v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    num(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

bool is_wall_clock_metric(std::string_view name) {
  return name.starts_with("profiler.") || name.starts_with("pool.");
}

}  // namespace

std::uint64_t sim_digest(const wasp::runtime::WaspSystem& system) {
  Fnv1a h;
  const wasp::runtime::Recorder& rec = system.recorder();
  for (const wasp::TimeSeries* series :
       {&rec.delay(), &rec.ratio(), &rec.parallelism(), &rec.backlog()}) {
    h.num(static_cast<std::int64_t>(series->size()));
    for (const auto& [t, v] : series->points()) {
      h.num(t);
      h.num(v);
    }
  }
  h.num(rec.total_generated());
  h.num(rec.total_processed());
  h.num(rec.total_dropped());
  for (const auto& e : rec.events()) {
    h.num(e.decided_at);
    h.num(e.transition_end);
    h.num(e.stabilized_at);
    h.str(e.kind);
    h.str(e.reason);
    h.num(e.op);
    h.num(e.estimated_transition_sec);
    h.num(e.migrated_mb);
    h.num(e.aborted_at);
    h.str(e.abort_reason);
    h.num(static_cast<std::int64_t>(e.attempt));
  }
  for (const auto& e : rec.recovery_events()) {
    h.num(e.t);
    h.str(e.kind);
    h.num(e.site);
    h.num(e.op);
    h.num(static_cast<std::int64_t>(e.attempt));
    h.num(e.backoff_sec);
    h.str(e.detail);
  }
  for (const auto& [name, value] : system.metrics().snapshot()) {
    if (is_wall_clock_metric(name)) continue;
    h.str(name);
    h.num(value);
  }
  return h.value();
}

std::string to_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
