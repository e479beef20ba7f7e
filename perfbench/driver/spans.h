// The layer run's own spans, recorded around the public calls the benchmark
// makes (set-up stages, FaultInjector::tick, WaspSystem::step).
//
// Spans are kept in memory and written once, when the run ends, as a Chrome
// trace-event file (chrome://tracing or ui.perfetto.dev). Every span is also
// folded into per-name totals, so the totals stay exact after the stored
// list reaches its capacity; later spans are then counted as dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoSpan = 0;

  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

  // Ids are handed out before a span ends, so children recorded while it is
  // open can name it as their parent.
  std::uint32_t new_id() { return next_id_++; }

  // Records a finished span. `name` must be a string literal (stored by
  // pointer).
  void record(std::uint32_t id, const char* name, std::uint32_t parent,
              std::int64_t start_ns, std::int64_t end_ns);

  struct Total {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
  };
  [[nodiscard]] const std::map<std::string, Total>& totals() const {
    return totals_;
  }
  [[nodiscard]] Total total(const std::string& name) const;
  [[nodiscard]] std::size_t stored() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  // {"traceEvents": [...]} with one complete ("X") event per stored span;
  // times in microseconds from the first span.
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::size_t capacity_;
  std::uint32_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::string, Total> totals_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
