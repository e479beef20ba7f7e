// Named counters / gauges / histograms with near-zero hot-path cost.
//
// The registry resolves a name to a metric handle once (a map lookup at
// registration time); after that the handle is a plain pointer into
// node-stable storage, so hot-path updates are a single add or store with no
// locking and no lookup. Snapshots walk the registry for reporting; the
// naming convention is dotted lower-case paths such as
// `engine.ticks`, `runtime.adaptations`, `policy.actions.scale_out`
// (see DESIGN.md §6).
//
// Thread safety: none, by design -- the no-locking hot path is the point.
// One registry belongs to one simulation run (WaspSystem owns it), and a run
// executes on a single thread; the parallel sweep harness (src/exec) gives
// every run its own registry and merges *after* the runs join, so the
// registry is never read or written concurrently. Do not share a registry
// across concurrently running systems.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace wasp::obs {

// Monotonically increasing value (event counts, totals).
class Counter {
 public:
  void inc(double delta = 1.0) { value_ += delta; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Last-written value (queue depths, rates, currently-active anything).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  // Handles are stable for the lifetime of the registry (std::map nodes do
  // not move), so callers may cache the returned references/pointers.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  WeightedHistogram& histogram(std::string_view name);

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const WeightedHistogram* find_histogram(
      std::string_view name) const;

  // Sorted (name, value) pairs for every counter and gauge. A histogram is
  // reported as (<name>.count, total weight): its weighted sample count,
  // which is the number of samples for the runtime's histograms (they add
  // each sample at weight 1).
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot() const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, WeightedHistogram, std::less<>> histograms_;
};

}  // namespace wasp::obs
