// Heap allocations on the trace path, counted by a replaced global operator
// new (DESIGN.md §6.2): once the emitter, its spare events, the memos and
// the sink's buffers are warm, building and committing an event allocates
// nothing, with or without a memo. A binary of its own, so the replacement
// counts this file's tests only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Not inlined, so the compiler pairs the library's new and delete calls
// with these definitions rather than with malloc and free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace wasp::obs {
namespace {

// One tick's worth of events like the engine's: a tick event whose fields
// change every round, an op_tick that repeats (long keys, a long operator
// name), and a placement event with run-time keys, through memos or not.
void emit_round(TraceEmitter& emitter, std::vector<TraceMemo>* memos,
                int round) {
  auto memo = [memos](std::size_t i) {
    return memos == nullptr ? nullptr : &(*memos)[i];
  };
  const double t = static_cast<double>(round);
  emitter.event_at(t, "tick", memo(0))
      .num("delay_sec", 0.125 * t)
      .num("generated_eps", 10'000.0)
      .num("processing_ratio", 1.0);
  emitter.event_at(t, "op_tick", memo(1))
      .num("op", 3.0)
      .str("name", "a_rather_long_operator_name")
      .num("input_queue_events", 0.0)
      .flag("backpressured", false);
  auto placement = emitter.event_at(t, "placement");
  char key[32];
  for (int site = 0; site < 16; ++site) {
    std::snprintf(key, sizeof key, "tasks_at_site_%d", site);
    placement.num(key, static_cast<double>(site % 3));
  }
}

TEST(TraceAllocationTest, AWarmEventAllocatesNothing) {
  const std::string path = testing::TempDir() + "trace_alloc_test.jsonl";
  auto sink = std::make_shared<FileSink>(path);
  ASSERT_TRUE(sink->ok());
  TraceEmitter emitter(sink);
  std::vector<TraceMemo> memos(2);
  const std::uint64_t cold = g_allocations.load();
  emit_round(emitter, &memos, 0);
  // The counter sees this binary's allocations: the first round grows the
  // spare events, the encode buffers and the file's buffer.
  EXPECT_GT(g_allocations.load(), cold);
  for (const bool with_memos : {true, false}) {
    SCOPED_TRACE(with_memos);
    std::vector<TraceMemo>* m = with_memos ? &memos : nullptr;
    for (int round = 0; round < 3; ++round) emit_round(emitter, m, round);
    const std::uint64_t before = g_allocations.load();
    for (int round = 3; round < 200; ++round) emit_round(emitter, m, round);
    EXPECT_EQ(g_allocations.load() - before, 0u);
  }
  sink->flush();
  EXPECT_TRUE(sink->ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wasp::obs
