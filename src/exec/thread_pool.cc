#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace wasp::exec {
namespace {

// region_claim_ packs (generation << 32) | next-chunk-index. Even
// generations are open regions; the odd generation between region G and
// region G+2 marks the publish window, during which no claim can succeed.
constexpr std::uint64_t kGenShift = 32;
constexpr std::uint64_t kIndexMask = 0xffff'ffffULL;

inline std::uint64_t claim_gen(std::uint64_t claim) {
  return claim >> kGenShift;
}
inline std::size_t claim_index(std::uint64_t claim) {
  return static_cast<std::size_t>(claim & kIndexMask);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Bounded spin between pause and sleep. Yields periodically so that on an
// oversubscribed host (more threads than cores) a spinning worker cannot
// starve the thread that is producing the work it waits for.
struct SpinWait {
  int spins = 0;
  void pause() {
    if (++spins % 64 == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
};

inline std::uint64_t stats_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t fork_seed(std::uint64_t base_seed, std::uint64_t index) {
  // splitmix64 finalizer over the (base, index) pair. Mixing the index with
  // the golden-ratio increment before the finalizer keeps index 0 from
  // degenerating to a plain hash of the base seed.
  std::uint64_t z = base_seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(int workers)
    : counters_(static_cast<std::size_t>(std::max(1, workers)) + 1) {
  const int n = std::max(1, workers);
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Stats slot 0 belongs to the controller thread; workers take 1..n.
    const std::size_t slot = static_cast<std::size_t>(i) + 1;
    threads_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

// Region claim protocol. region_claim_ packs (gen << 32) | next-index in
// ONE atomic word, so a claim -- a CAS that bumps the index -- validates the
// generation and the index bound atomically. The controller publishes a
// region in this order (G = previous even generation):
//
//   1. region_claim_ := (G+1) << 32 (release)   odd gen: claims impossible
//   2. region_done_ := 0, region_n_ := n (release), region_fn_ := &fn
//   3. region_claim_ := (G+2) << 32 (release, under mu_)   claim window opens
//
// A claimer latches the current even generation g and its n, then claims
// index i only via compare_exchange on the (g, i) word it last read. That
// closes the classic straggler race of a bare fetch_add counter: a stale
// thread still holding region G state cannot accidentally consume -- or
// out-of-range-run -- an index of region G+2, because its expected word has
// the wrong generation and the CAS fails.
//
// Why the latched `n` always matches the claimed generation: region_n_ is
// only overwritten during a publish, which first flips region_claim_ to an
// odd generation (step 1, release) before touching region_n_ (step 2). A
// claimer that acquire-reads the NEW n value therefore also observes the
// park (happens-before through the release/acquire pair on region_n_), so
// its next CAS -- whose expected word still carries the old even generation
// -- must fail. A successful CAS thus implies the n it validated against
// belonged to the same generation it claimed from.
//
// The controller returns from parallel_for only once region_done_ reached n.
// Each index is claimed exactly once (CAS) and bumps region_done_ exactly
// once, so at that point every chunk body has finished and `fn` (often a
// lambda on the controller's stack) outlives every dereference. A later
// publish therefore implies the previous region completed, which is why a
// worker observing a generation change may simply return.
//
// Generations wrap after 2^31 publishes; a stale claim word surviving an
// exact wrap is not a realistic schedule (workers re-read the word every
// loop iteration).
std::uint64_t ThreadPool::run_region_chunks(std::size_t stats_slot) {
  ThreadCounters& counters = counters_[stats_slot];
  const bool timing = stats_timing_.load(std::memory_order_relaxed);
  SpinWait spin;
  std::uint64_t c = region_claim_.load(std::memory_order_acquire);
  while (claim_gen(c) % 2 != 0) {  // mid-publish: wait for the window to open
    spin.pause();
    c = region_claim_.load(std::memory_order_acquire);
  }
  const std::uint64_t g = claim_gen(c);
  const std::size_t n = region_n_.load(std::memory_order_acquire);
  for (;;) {
    if (claim_gen(c) != g) return g;  // superseded => region g completed
    const std::size_t i = claim_index(c);
    if (i < n) {
      if (region_claim_.compare_exchange_weak(c, c + 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        const RegionFn* fn = region_fn_.load(std::memory_order_acquire);
        const std::uint64_t start = timing ? stats_now_ns() : 0;
        try {
          (*fn)(i);
        } catch (...) {
          std::unique_lock<std::mutex> lock(mu_);
          if (region_error_ == nullptr || i < region_error_index_) {
            region_error_index_ = i;
            region_error_ = std::current_exception();
          }
        }
        counters.chunks.fetch_add(1, std::memory_order_relaxed);
        if (timing) {
          counters.busy_ns.fetch_add(stats_now_ns() - start,
                                     std::memory_order_relaxed);
        }
        region_done_.fetch_add(1, std::memory_order_release);
        c = region_claim_.load(std::memory_order_acquire);
      }
      continue;  // CAS failure reloaded c; revalidate from the top
    }
    if (region_done_.load(std::memory_order_acquire) >= n) return g;
    spin.pause();
    c = region_claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::parallel_for(std::size_t n, const RegionFn& fn) {
  if (n == 0) return;
  // Chunk indices live in the low 32 bits of the claim word; a region that
  // somehow exceeds that (callers chunk work, so real n is tiny) runs
  // serially rather than corrupting the packed counter.
  if (threads_.empty() || n == 1 || n > kIndexMask) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Publish steps 1-3 (see the protocol comment above run_region_chunks).
  const std::uint64_t g =
      claim_gen(region_claim_.load(std::memory_order_relaxed));
  region_claim_.store((g + 1) << kGenShift, std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(mu_);
    region_error_index_ = 0;
    region_error_ = nullptr;
  }
  region_done_.store(0, std::memory_order_relaxed);
  region_n_.store(n, std::memory_order_release);
  region_fn_.store(&fn, std::memory_order_release);
  {
    // Opening the claim window must happen under mu_ so a worker checking
    // the sleep predicate cannot miss it between its predicate evaluation
    // and its wait.
    std::unique_lock<std::mutex> lock(mu_);
    region_claim_.store((g + 2) << kGenShift, std::memory_order_release);
  }
  ++regions_;
  work_available_.notify_all();
  run_region_chunks(/*stats_slot=*/0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    error = std::exchange(region_error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t stats_slot) {
  std::uint64_t seen_gen = 0;
  SpinWait spin;
  for (;;) {
    const std::uint64_t gen =
        claim_gen(region_claim_.load(std::memory_order_acquire));
    if (gen != seen_gen) {
      // A new region (or its odd mid-publish window) appeared. Help run it;
      // run_region_chunks returns the even generation whose completion it
      // confirmed, which de-duplicates re-entry into a finished region.
      seen_gen = run_region_chunks(stats_slot);
      spin.spins = 0;
      continue;
    }
    // No region can be in flight at destruction: parallel_for returns only
    // once its region is done.
    if (stopping_.load(std::memory_order_acquire)) return;
    if (spin.spins < 4096) {
      // Fresh off a region: the next tick phase is likely microseconds
      // away. Spin briefly before paying the condvar sleep.
      spin.pause();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    work_available_.wait(lock, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             claim_gen(region_claim_.load(std::memory_order_relaxed)) !=
                 seen_gen;
    });
    spin.spins = 0;
  }
}

ThreadPool::PoolStats ThreadPool::stats() const {
  PoolStats out;
  out.per_thread.reserve(counters_.size());
  for (const ThreadCounters& counters : counters_) {
    PoolStats::PerThread t;
    t.busy_ns = counters.busy_ns.load(std::memory_order_relaxed);
    t.chunks = counters.chunks.load(std::memory_order_relaxed);
    out.chunks += t.chunks;
    out.busy_ns += t.busy_ns;
    out.per_thread.push_back(t);
  }
  out.regions = regions_;
  return out;
}

int ThreadPool::hardware_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Total concurrency is `jobs`: a pool of jobs-1 workers plus the calling
  // thread, which participates in the region. Indices are claimed in
  // ascending order (one atomic counter), so cells start in index order.
  const std::size_t width = std::min(static_cast<std::size_t>(jobs), n);
  ThreadPool pool(static_cast<int>(width) - 1);
  pool.parallel_for(n, fn);
}

}  // namespace wasp::exec
