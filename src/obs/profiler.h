// Always-on tick-phase profiler (DESIGN.md §13).
//
// A hierarchical scoped timer over a *static* phase registry: every
// instrumented region names one of the Phase enumerators below, so the
// accumulator table is a flat array indexed by phase -- no hashing, no
// allocation, no strings on the hot path. Two instrumentation idioms:
//
//  - Scope: classic RAII, two clock reads (enter/exit). Use for regions
//    entered at control-plane cadence (solver calls, standby syncs).
//  - Chain: a sequence of sibling phases inside one parent where each
//    boundary closes the previous segment and opens the next with a
//    *single* clock read. Use on the per-tick hot path: the engine tick's
//    six phases cost six clock reads, not twelve.
//
// Both nest arbitrarily through one frame stack, so a phase's `self_ns` is
// its elapsed time minus the time attributed to phases opened inside it,
// and `total_ns` is the full inclusive time. The stack lives on the
// profiler object and is only ever touched by the thread driving the
// simulation (the controller); worker-thread observability goes through the
// lock-free counters in exec::ThreadPool instead and is merged serially at
// tick barriers (see WaspSystem::emit_profile_events).
//
// Pure-observer contract: the profiler reads the steady clock and writes
// its own accumulators -- nothing else. It must never touch the Rng, the
// Recorder, MetricsRegistry, or the content of any simulated trace event;
// `tests/profiler_test.cc:ProfilingIsAPureObserver` enforces this by
// comparing same-seed runs with profiling on and off.
//
// A disabled or null profiler costs one predictable branch per
// instrumentation point (Scope/Chain check `enabled()` before reading the
// clock), which is what keeps `--profile` safe to compile in everywhere.
#pragma once

#include <array>
#include <cstdint>

namespace wasp::obs {

// Static phase registry. Order is presentation order in `wasp_trace
// profile`; kStep is the root that wraps one whole WaspSystem::step.
enum class Phase : int {
  kStep = 0,          // one whole system tick
  kWorkload,          // workload pattern + WAN monitor updates
  kWaterfill,         // net::Network::step max-min fair share
  kEngine,            // engine::Engine::tick, inclusive
  kEngineReset,       //   per-tick state reset + admission kernels
  kEngineStage,       //   topo-order stage processing pass
  kEngineChannel,     //   channel flow demands on WAN links
  kEngineCheckpoint,  //   checkpoint scheduling + dirty-group deltas
  kEngineDelay,       //   delay metric fold
  kEngineEmit,        //   tick trace event emission
  kMonitorExtract,    // metric monitor observation + extraction
  kControl,           // control plane, inclusive (detector/transitions)
  kPolicyDecide,      //   adaptation policy decide_all
  kSolverPlacement,   //   placement ILP solve
  kSolverMigration,   //   migration min-max solve
  kStandbySync,       //   hot-standby delta sync pump
  kRecord,            // recorder + SLO watchdog fold
  kMicroBatch,        // microengine event-loop batches (bench/validation)
  kCount
};

// Stable short name ("engine.stage", ...) used in profile events and tools.
const char* phase_name(Phase phase);

// Parses a phase name back to its enumerator; returns false on unknown.
bool phase_from_name(const char* name, Phase* out);

struct PhaseAccum {
  std::uint64_t calls = 0;     // times the phase was entered (deterministic)
  std::uint64_t total_ns = 0;  // inclusive wall time
  std::uint64_t self_ns = 0;   // total minus time in nested phases
};

class Profiler {
 public:
  // Injectable monotonic clock (nanoseconds). Tests substitute a counter to
  // make accounting assertions exact.
  using ClockFn = std::uint64_t (*)();

  explicit Profiler(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void set_clock(ClockFn clock) { clock_ = clock; }

  // The accumulator table (indexed by Phase). Cumulative since construction
  // or the last reset(); readers snapshot it between ticks.
  [[nodiscard]] const std::array<PhaseAccum, static_cast<std::size_t>(
      Phase::kCount)>& accums() const {
    return accums_;
  }

  void reset();

  // RAII inclusive timer for one phase. Null-safe: a Scope over a null or
  // disabled profiler is a no-op.
  class Scope {
   public:
    Scope(Profiler* profiler, Phase phase)
        : profiler_(profiler != nullptr && profiler->enabled() ? profiler
                                                               : nullptr) {
      if (profiler_ != nullptr) profiler_->push(phase, profiler_->clock_());
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->pop(profiler_->clock_());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_;
  };

  // A run of sibling phases: next() closes the current segment and opens
  // the next one with one clock read; destruction (or close()) ends the
  // last segment. Null-safe like Scope.
  class Chain {
   public:
    explicit Chain(Profiler* profiler)
        : profiler_(profiler != nullptr && profiler->enabled() ? profiler
                                                               : nullptr) {}
    ~Chain() { close(); }
    Chain(const Chain&) = delete;
    Chain& operator=(const Chain&) = delete;

    void next(Phase phase) {
      if (profiler_ == nullptr) return;
      const std::uint64_t now = profiler_->clock_();
      if (open_) profiler_->pop(now);
      profiler_->push(phase, now);
      open_ = true;
    }

    void close() {
      if (profiler_ == nullptr || !open_) return;
      profiler_->pop(profiler_->clock_());
      open_ = false;
    }

   private:
    Profiler* profiler_;
    bool open_ = false;
  };

 private:
  friend class Scope;
  friend class Chain;

  static constexpr std::size_t kMaxDepth = 16;

  struct Frame {
    Phase phase = Phase::kStep;
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };

  static std::uint64_t steady_now_ns();

  void push(Phase phase, std::uint64_t now);
  void pop(std::uint64_t now);

  bool enabled_ = false;
  ClockFn clock_ = &steady_now_ns;
  std::size_t depth_ = 0;
  std::size_t overflow_ = 0;  // pushes skipped past kMaxDepth
  std::array<Frame, kMaxDepth> stack_{};
  std::array<PhaseAccum, static_cast<std::size_t>(Phase::kCount)> accums_{};
};

}  // namespace wasp::obs
