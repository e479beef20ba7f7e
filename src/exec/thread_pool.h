// Deterministic parallel execution substrate for simulation sweeps and for
// intra-run tick phases.
//
// WASP simulations are embarrassingly parallel across configurations: every
// run owns its whole world (Rng, Topology, Network, WaspSystem, Recorder,
// MetricsRegistry, TraceEmitter) and touches nothing shared, so a grid of
// runs can fan out across cores with no synchronization beyond one claim
// counter. What must NOT vary with the fan-out is the *result*: the sweep
// contract (DESIGN.md §9) is that `--jobs N` produces byte-identical merged
// output to `--jobs 1`. The executor is therefore deliberately boring:
//
//   - a fixed worker count decided at construction (no elastic growth);
//   - one dispatch path, a fork/join region: parallel_for(n, fn) publishes
//     a chunk count plus a chunk function, workers and the calling thread
//     claim indices in ascending order from one atomic counter (no work
//     stealing, no per-worker deques), and the caller returns once every
//     index ran;
//   - no executor-provided randomness or time: anything a chunk needs that
//     could differ between schedules (seeds above all) is derived from its
//     index via `fork_seed`, never from which worker ran it or when.
//
// Determinism then reduces to a caller-side rule: chunks write only to
// per-index slots (results[i]) and the merge walks indices in order. The
// same region serves whole sweep cells (the free parallel_for below) and
// the fluid engine's tick phases (DESIGN.md §11), whose dispatch must cost a
// few microseconds: chunk *indices* -- and therefore the data each chunk
// touches -- are fixed by the caller independent of worker count, and any
// cross-chunk reduction is the caller's (serial, fixed-order) job.
//
// Threading guarantees:
//   - ThreadPool is externally synchronized: parallel_for() may be called
//     from one controller thread (typically main). Chunks run on worker
//     threads and must be shared-nothing with respect to each other.
//   - parallel_for is a self-contained fork/join: it returns only after
//     every index ran (or, if any indices threw, after every index ran and
//     the lowest-index exception is rethrown), so the caller's vectors are
//     safe to read -- and the chunk function safe to destroy -- immediately
//     after it returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wasp::exec {

// Splits `base_seed` into the seed for run `index`. Pure function of
// (base_seed, index) -- scheduling order, worker identity, and the number of
// workers cannot perturb it. Uses the splitmix64 finalizer (the same mixer
// wasp::Rng seeds through), so adjacent indices land in decorrelated streams.
[[nodiscard]] std::uint64_t fork_seed(std::uint64_t base_seed,
                                      std::uint64_t index);

// Fixed-size worker pool over one fork/join region slot.
//
// Lifecycle: constructing starts the workers; the destructor stops and joins
// them. No region can be in flight then, because parallel_for returns only
// once its region is done.
class ThreadPool {
 public:
  using RegionFn = std::function<void(std::size_t)>;

  // `workers` is clamped to >= 1.
  explicit ThreadPool(int workers);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Fork/join parallel region: runs fn(0) .. fn(n-1) across the workers and
  // the calling thread, returning once every index ran. Designed for
  // microsecond-scale phases issued back-to-back (engine tick passes):
  // dispatch is a generation bump on an atomic plus at most one condvar
  // broadcast, and workers that just finished a region spin briefly before
  // sleeping so consecutive regions skip the wakeup entirely.
  //
  // Chunks must be shared-nothing (distinct indices touch distinct data).
  // If one or more chunks throw, every index still runs and the exception of
  // the *lowest* index is rethrown (schedule-independent, matching the free
  // parallel_for below); the pool stays usable. Must not be called
  // concurrently with itself, nor from inside a chunk.
  void parallel_for(std::size_t n, const RegionFn& fn);

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  // max(1, std::thread::hardware_concurrency()) -- the default --jobs.
  [[nodiscard]] static int hardware_workers();

  // --- observability (DESIGN.md §13) -------------------------------------
  // Counters the pool maintains about its own scheduling. The chunk / region
  // *totals* are deterministic (they are fixed by what callers publish);
  // per-thread attribution and busy time depend on real scheduling and must
  // only surface through wall_* trace fields or explicitly profile-gated
  // exports.
  struct PoolStats {
    struct PerThread {
      std::uint64_t busy_ns = 0;  // time inside chunk bodies
      std::uint64_t chunks = 0;
    };
    std::uint64_t regions = 0;  // parallel_for regions published
    std::uint64_t chunks = 0;   // region chunks executed (total)
    std::uint64_t busy_ns = 0;  // sum of per_thread busy_ns
    // [0] is the controller thread (it claims chunks inside parallel_for);
    // [1..] are the pool workers.
    std::vector<PerThread> per_thread;
  };

  // Busy-time measurement costs two extra clock reads per chunk body, so it
  // is off by default; `--profile` turns it on. Event counts are always
  // maintained (relaxed increments, no clock involved).
  void set_stats_timing(bool enabled) {
    stats_timing_.store(enabled, std::memory_order_relaxed);
  }
  // Serial merge of the per-thread counters. Call from the controller at a
  // point where no region is in flight (between ticks).
  [[nodiscard]] PoolStats stats() const;

 private:
  void worker_loop(std::size_t stats_slot);
  // Latches onto the current region, claims and runs its chunks, and returns
  // once that region is known complete (every chunk done, or a newer region
  // has been published -- which implies completion). Returns the generation
  // it processed so the caller can de-duplicate re-entry.
  std::uint64_t run_region_chunks(std::size_t stats_slot);

  // One cache line per thread so workers never contend on the counters;
  // updates are relaxed (totals are read serially between regions).
  struct alignas(64) ThreadCounters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> chunks{0};
  };

  std::mutex mu_;
  std::condition_variable work_available_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;

  // --- parallel region slot (see thread_pool.cc for the claim protocol) ---
  // One word packs the region generation (high 32 bits, even = open, odd =
  // mid-publish) with the next chunk index (low 32 bits), so a claim
  // validates its region atomically with taking an index. See the protocol
  // comment above run_region_chunks().
  std::atomic<std::uint64_t> region_claim_{0};
  std::atomic<const RegionFn*> region_fn_{nullptr};
  std::atomic<std::size_t> region_n_{0};
  std::atomic<std::size_t> region_done_{0};
  std::size_t region_error_index_ = 0;   // guarded by mu_
  std::exception_ptr region_error_;      // guarded by mu_

  // --- observability state (sized at construction, never resized) ---------
  std::atomic<bool> stats_timing_{false};
  std::vector<ThreadCounters> counters_;  // [0] controller, [1..] workers
  std::uint64_t regions_ = 0;             // controller-only
};

// Fork/join helper: runs fn(0) .. fn(n-1) across up to `jobs` workers and
// returns when all are done. jobs <= 1 (or n <= 1) runs inline on the
// calling thread -- the serial and parallel paths execute the same code, so
// a shared-nothing fn gives identical per-index results either way. If one
// or more calls throw, the exception of the *lowest index* is rethrown after
// every index has run (lowest-index, not first-in-time, so the error too is
// schedule-independent). Constructs a pool per call: fine for coarse tasks
// (whole sweep cells), unusable per-tick -- hold a ThreadPool and call its
// parallel_for member for that.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wasp::exec
