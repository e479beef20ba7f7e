// Per-tick SoA kernels for the fluid engine's hot loops.
//
// Each kernel is an elementwise loop annotated for vectorization. The
// determinism contract is 0 ULP: a kernel applies the identical
// per-element operation sequence a plain scalar loop would -- kernels are
// elementwise only, never reassociated reductions -- so vectorizing them
// cannot change a single bit of any result. The engine's ordered FP
// reductions (group sums, channel-bucket sums) stay scalar in engine.cc;
// only the embarrassingly-parallel per-element updates live here. There is
// no runtime switch: engine_kernels_test.cc holds the plain scalar
// reference loops and fuzzes every kernel against them bitwise.
//
// All kernels are subrange-safe: because every kernel is elementwise, calling
// it on [begin, end) slices of the same arrays (any partition, any order)
// produces bit-identical results to one full-range call. That is what lets
// the engine chunk these sweeps across a thread pool (DESIGN.md §11) without
// touching the determinism contract; engine_kernels_test.cc fuzzes the
// chunked-vs-whole property too.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/units.h"

#if defined(__GNUC__) && !defined(__clang__)
#define WASP_VECTORIZE_LOOP _Pragma("GCC ivdep")
#elif defined(__clang__)
#define WASP_VECTORIZE_LOOP _Pragma("clang loop vectorize(enable)")
#else
#define WASP_VECTORIZE_LOOP
#endif

namespace wasp::engine::kernels {

// Start-of-tick channel state roll: a channel whose receiver is live latches
// last tick's delivery as its drain estimate (delivered_prev); a suspended
// receiver keeps the previous live estimate. Both counters then reset.
// Branchless select so the loop vectorizes.
inline void reset_channel_tick(std::size_t n, const std::int32_t* to_stage,
                               const char* stage_suspended,
                               double* __restrict delivered_prev,
                               double* __restrict delivered,
                               double* __restrict offered) {
  WASP_VECTORIZE_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const bool live = stage_suspended[to_stage[i]] == 0;
    delivered_prev[i] = live ? delivered[i] : delivered_prev[i];
    delivered[i] = 0.0;
    offered[i] = 0.0;
  }
}

// Per-channel stream bandwidth demand: stream_mbps(queue / dt, event_bytes),
// with the exact same operation order as the scalar expression the engine
// historically evaluated per channel.
inline void flow_demand_mbps(std::size_t n, const double* __restrict queue,
                             const double* __restrict event_bytes, double dt,
                             double* __restrict out) {
  WASP_VECTORIZE_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = stream_mbps(queue[i] / dt, event_bytes[i]);
  }
}

// End-of-tick stage observation reset (processed/emitted/arrived rates and
// the backpressure flag).
inline void reset_stage_tick(std::size_t n, double* __restrict processed,
                             double* __restrict emitted,
                             double* __restrict arrived,
                             char* __restrict backpressured) {
  WASP_VECTORIZE_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    processed[i] = 0.0;
    emitted[i] = 0.0;
    arrived[i] = 0.0;
    backpressured[i] = 0;
  }
}

// Start-of-tick group-capacity snapshot for one stage's row of the gid
// array: capacity = failed ? 0 : tasks * eps_per_slot * straggler. Evaluating
// the row densely equals the legacy "fill zero + hosting-sites loop" exactly:
// a non-hosting group has tasks == 0 and 0 * x * y is +0.0 for the finite
// non-negative factors involved, the same +0.0 the fill wrote.
inline void group_capacity_row(std::size_t n_sites,
                               const std::int32_t* __restrict tasks,
                               double eps_per_slot,
                               const char* __restrict failed,
                               const double* __restrict straggler,
                               double* __restrict out) {
  WASP_VECTORIZE_LOOP
  for (std::size_t s = 0; s < n_sites; ++s) {
    out[s] =
        failed[s] != 0 ? 0.0 : tasks[s] * eps_per_slot * straggler[s];
  }
}

}  // namespace wasp::engine::kernels
