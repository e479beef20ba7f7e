// 0-ULP equivalence between the vectorization-annotated engine kernels
// (src/engine/kernels.h) and plain scalar reference loops, plus the
// chunked-vs-whole property the engine's parallel tick phases rely on. This
// is the enforcement half of the determinism contract documented in
// kernels.h.
#include "engine/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace wasp::engine {
namespace {

// Scalar references: each body equals its kernel's, minus __restrict and the
// vectorize pragma -- the semantic definition the kernels must match bit
// for bit.
namespace reference {

void reset_channel_tick(std::size_t n, const std::int32_t* to_stage,
                        const char* stage_suspended, double* delivered_prev,
                        double* delivered, double* offered) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool live = stage_suspended[to_stage[i]] == 0;
    delivered_prev[i] = live ? delivered[i] : delivered_prev[i];
    delivered[i] = 0.0;
    offered[i] = 0.0;
  }
}

void flow_demand_mbps(std::size_t n, const double* queue,
                      const double* event_bytes, double dt, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = stream_mbps(queue[i] / dt, event_bytes[i]);
  }
}

void reset_stage_tick(std::size_t n, double* processed, double* emitted,
                      double* arrived, char* backpressured) {
  for (std::size_t i = 0; i < n; ++i) {
    processed[i] = 0.0;
    emitted[i] = 0.0;
    arrived[i] = 0.0;
    backpressured[i] = 0;
  }
}

void group_capacity_row(std::size_t n_sites, const std::int32_t* tasks,
                        double eps_per_slot, const char* failed,
                        const double* straggler, double* out) {
  for (std::size_t s = 0; s < n_sites; ++s) {
    out[s] =
        failed[s] != 0 ? 0.0 : tasks[s] * eps_per_slot * straggler[s];
  }
}

}  // namespace reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Bitwise comparison: 0 ULP means the representations are equal, which is
// stricter than operator== (it also distinguishes -0.0 from +0.0).
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "element " << i << ": " << a[i]
                                      << " vs " << b[i];
  }
}

// Adversarial magnitudes: subnormals, huge values, negative zero, and the
// ordinary range all mixed together. Vectorization must not change any of
// them by even the last bit.
std::vector<double> random_doubles(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (auto& x : v) {
    switch (rng.uniform_int(0, 4)) {
      case 0: x = rng.uniform(0.0, 1e6); break;
      case 1: x = rng.uniform(-1e-8, 1e-8); break;
      case 2: x = rng.uniform(0.0, 1.0) * 1e300; break;
      case 3: x = rng.uniform(0.0, 1.0) * 5e-324; break;
      default: x = -0.0; break;
    }
  }
  return v;
}

TEST(KernelEquivalence, ResetChannelTickMatchesScalarBitwise) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    const std::size_t num_stages = 8;
    std::vector<std::int32_t> to_stage(n);
    for (auto& s : to_stage) {
      s = static_cast<std::int32_t>(rng.uniform_int(0, num_stages - 1));
    }
    std::vector<char> suspended(num_stages);
    for (auto& s : suspended) s = rng.uniform() < 0.5 ? 1 : 0;
    const auto prev0 = random_doubles(rng, n);
    const auto del0 = random_doubles(rng, n);
    const auto off0 = random_doubles(rng, n);

    auto prev_a = prev0, del_a = del0, off_a = off0;
    auto prev_b = prev0, del_b = del0, off_b = off0;
    reference::reset_channel_tick(n, to_stage.data(), suspended.data(),
                                  prev_a.data(), del_a.data(), off_a.data());
    kernels::reset_channel_tick(n, to_stage.data(), suspended.data(),
                                prev_b.data(), del_b.data(), off_b.data());
    expect_bitwise_equal(prev_a, prev_b);
    expect_bitwise_equal(del_a, del_b);
    expect_bitwise_equal(off_a, off_b);
  }
}

TEST(KernelEquivalence, FlowDemandMbpsMatchesScalarBitwise) {
  Rng rng(23);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    const auto queue = random_doubles(rng, n);
    auto event_bytes = random_doubles(rng, n);
    for (auto& b : event_bytes) b = std::abs(b);
    const double dt = rng.uniform(0.25, 4.0);

    std::vector<double> out_a(n, -1.0), out_b(n, -1.0);
    reference::flow_demand_mbps(n, queue.data(), event_bytes.data(), dt,
                                out_a.data());
    kernels::flow_demand_mbps(n, queue.data(), event_bytes.data(), dt,
                              out_b.data());
    expect_bitwise_equal(out_a, out_b);
  }
}

TEST(KernelEquivalence, ResetStageTickMatchesScalarBitwise) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 129));
    auto p_a = random_doubles(rng, n), p_b = p_a;
    auto e_a = random_doubles(rng, n), e_b = e_a;
    auto a_a = random_doubles(rng, n), a_b = a_a;
    std::vector<char> bp_a(n, 1), bp_b(n, 1);
    reference::reset_stage_tick(n, p_a.data(), e_a.data(), a_a.data(),
                                bp_a.data());
    kernels::reset_stage_tick(n, p_b.data(), e_b.data(), a_b.data(),
                              bp_b.data());
    expect_bitwise_equal(p_a, p_b);
    expect_bitwise_equal(e_a, e_b);
    expect_bitwise_equal(a_a, a_b);
    EXPECT_EQ(0, std::memcmp(bp_a.data(), bp_b.data(), n));
  }
}

TEST(KernelEquivalence, GroupCapacityRowMatchesScalarBitwise) {
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 257));
    std::vector<std::int32_t> tasks(n);
    for (auto& t : tasks) t = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    std::vector<char> failed(n);
    for (auto& f : failed) f = rng.uniform() < 0.3 ? 1 : 0;
    auto straggler = random_doubles(rng, n);
    for (auto& s : straggler) s = std::abs(s);
    const double eps = rng.uniform(0.0, 1e4);

    std::vector<double> out_a(n, -1.0), out_b(n, -1.0);
    reference::group_capacity_row(n, tasks.data(), eps, failed.data(),
                                  straggler.data(), out_a.data());
    kernels::group_capacity_row(n, tasks.data(), eps, failed.data(),
                                straggler.data(), out_b.data());
    expect_bitwise_equal(out_a, out_b);
  }
}

// ---------------------------------------------------------------------------
// Chunked execution: every kernel is elementwise, so running it on an
// arbitrary partition of [0, n) through offset pointers must be bit-identical
// to one whole-range call. This is the property the engine's parallel tick
// phases rely on (fixed chunk boundaries, one chunk per worker claim).
// ---------------------------------------------------------------------------

// Random chunk boundaries: 0 = b0 < b1 < ... < bk = n, adversarially uneven.
std::vector<std::size_t> random_chunks(Rng& rng, std::size_t n) {
  std::vector<std::size_t> bounds{0};
  while (bounds.back() < n) {
    const auto step = static_cast<std::size_t>(rng.uniform_int(1, 97));
    bounds.push_back(std::min(n, bounds.back() + step));
  }
  return bounds;
}

TEST(KernelEquivalence, ChunkedResetChannelTickMatchesWholeBitwise) {
  Rng rng(47);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    const std::size_t num_stages = 8;
    std::vector<std::int32_t> to_stage(n);
    for (auto& s : to_stage) {
      s = static_cast<std::int32_t>(rng.uniform_int(0, num_stages - 1));
    }
    std::vector<char> suspended(num_stages);
    for (auto& s : suspended) s = rng.uniform() < 0.5 ? 1 : 0;
    const auto prev0 = random_doubles(rng, n);
    const auto del0 = random_doubles(rng, n);
    const auto off0 = random_doubles(rng, n);

    auto prev_a = prev0, del_a = del0, off_a = off0;
    kernels::reset_channel_tick(n, to_stage.data(), suspended.data(),
                                prev_a.data(), del_a.data(), off_a.data());

    auto prev_b = prev0, del_b = del0, off_b = off0;
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::reset_channel_tick(e - b, to_stage.data() + b,
                                  suspended.data(), prev_b.data() + b,
                                  del_b.data() + b, off_b.data() + b);
    }
    expect_bitwise_equal(prev_a, prev_b);
    expect_bitwise_equal(del_a, del_b);
    expect_bitwise_equal(off_a, off_b);
  }
}

TEST(KernelEquivalence, ChunkedFlowDemandMatchesWholeBitwise) {
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    const auto queue = random_doubles(rng, n);
    auto event_bytes = random_doubles(rng, n);
    for (auto& b : event_bytes) b = std::abs(b);
    const double dt = rng.uniform(0.25, 4.0);

    std::vector<double> out_a(n, -1.0), out_b(n, -2.0);
    kernels::flow_demand_mbps(n, queue.data(), event_bytes.data(), dt,
                              out_a.data());
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::flow_demand_mbps(e - b, queue.data() + b,
                                event_bytes.data() + b, dt, out_b.data() + b);
    }
    expect_bitwise_equal(out_a, out_b);
  }
}

TEST(KernelEquivalence, ChunkedGroupCapacityRowMatchesWholeBitwise) {
  Rng rng(59);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 1025));
    std::vector<std::int32_t> tasks(n);
    for (auto& t : tasks) t = static_cast<std::int32_t>(rng.uniform_int(0, 5));
    std::vector<char> failed(n);
    for (auto& f : failed) f = rng.uniform() < 0.3 ? 1 : 0;
    auto straggler = random_doubles(rng, n);
    for (auto& s : straggler) s = std::abs(s);
    const double eps = rng.uniform(0.0, 1e4);

    std::vector<double> out_a(n, -1.0), out_b(n, -2.0);
    kernels::group_capacity_row(n, tasks.data(), eps, failed.data(),
                                straggler.data(), out_a.data());
    const auto bounds = random_chunks(rng, n);
    for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
      const std::size_t b = bounds[k], e = bounds[k + 1];
      kernels::group_capacity_row(e - b, tasks.data() + b, eps,
                                  failed.data() + b, straggler.data() + b,
                                  out_b.data() + b);
    }
    expect_bitwise_equal(out_a, out_b);
  }
}

}  // namespace
}  // namespace wasp::engine
