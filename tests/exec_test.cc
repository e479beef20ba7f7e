// src/exec: the deterministic parallel execution substrate.
//
// Covers the three layers the sweep harness stacks: the thread pool's
// lifecycle (start / drain / destruct, including under task exceptions),
// grid parsing + row-major expansion + index-based seed forking, and the
// headline determinism contract -- a 16-cell grid merged at --jobs 1 and
// --jobs 8 must be byte-identical (DESIGN.md §9).
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.h"
#include "exec/thread_pool.h"
#include "obs/trace_analysis.h"

namespace wasp::exec {
namespace {

// ---- fork_seed ---------------------------------------------------------

TEST(ForkSeed, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(fork_seed(42, 0), fork_seed(42, 0));
  EXPECT_EQ(fork_seed(42, 31), fork_seed(42, 31));
  EXPECT_NE(fork_seed(42, 0), fork_seed(42, 1));
  EXPECT_NE(fork_seed(42, 0), fork_seed(43, 0));
}

TEST(ForkSeed, DistinctAcrossAWideGrid) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ULL, 7ULL, 42ULL}) {
    for (std::uint64_t i = 0; i < 1000; ++i) seeds.insert(fork_seed(base, i));
  }
  EXPECT_EQ(seeds.size(), 3000u);
}

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleWorkerPreservesFifoOrder) {
  std::vector<int> order;
  ThreadPool pool(1);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&order, i] { order.push_back(i); });
  }
  pool.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No wait_idle: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool survived the exception: later tasks ran and new ones still run.
  EXPECT_EQ(count.load(), 10);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();  // no pending exception now
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, DestructsCleanlyWithUnretrievedException) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never retrieved"); });
    pool.submit([&count] { count.fetch_add(1); });
    // Destructor must swallow the stored exception, not terminate.
  }
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WorkerCountClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 1);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

// ---- parallel_for ------------------------------------------------------

TEST(ParallelFor, FillsEveryIndexSlotForAnyJobCount) {
  for (int jobs : {1, 2, 8, 16}) {
    std::vector<int> slots(64, -1);
    parallel_for(jobs, slots.size(),
                 [&slots](std::size_t i) { slots[i] = static_cast<int>(i); });
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], static_cast<int>(i)) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  // Indices 3 and 7 throw; every index still runs, and the lowest-index
  // error is the one surfaced regardless of completion order.
  std::atomic<int> ran{0};
  try {
    parallel_for(4, 10, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("seven");
      if (i == 3) throw std::runtime_error("three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelFor, InlineWhenSerialOrEmpty) {
  std::vector<int> slots(4, -1);
  parallel_for(1, 4, [&slots](std::size_t i) { slots[i] = 1; });
  EXPECT_EQ(slots, std::vector<int>({1, 1, 1, 1}));
  parallel_for(8, 0, [](std::size_t) { FAIL(); });
}

// ---- ThreadPool::parallel_for (fork/join region API) -------------------

TEST(ThreadPoolRegion, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(97);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Regression for the straggler race: a worker that lost the claim race for
// the tail of region G could, under a bare fetch_add counter, consume an
// index of region G+1 and validate it against region G's size -- running the
// new chunk function out of range when sizes differ. Hammering back-to-back
// regions of *varying* sizes (the engine-tick pattern: one region per phase,
// per stage) reproduced it readily before the packed gen+index claim word.
TEST(ThreadPoolRegion, BackToBackRegionsOfVaryingSizesStayExact) {
  ThreadPool pool(4);
  const std::size_t sizes[] = {1, 64, 2, 17, 3, 33, 5, 2};
  std::vector<std::atomic<int>> hits(64);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t n = sizes[round % (sizeof(sizes) / sizeof(sizes[0]))];
    for (auto& h : hits) h.store(0);
    pool.parallel_for(n, [&hits, n](std::size_t i) {
      ASSERT_LT(i, n);  // an out-of-range index is exactly the old bug
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < n ? 1 : 0)
          << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolRegion, RethrowsLowestIndexExceptionAndStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(10, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 7) throw std::runtime_error("seven");
      if (i == 3) throw std::runtime_error("three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "three");
  }
  EXPECT_EQ(ran.load(), 10);
  // The pool survives a throwing region: the next region is clean.
  std::vector<std::atomic<int>> hits(16);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolRegion, ComposesWithTheTaskQueue) {
  ThreadPool pool(2);
  std::atomic<int> tasks{0};
  for (int i = 0; i < 20; ++i) pool.submit([&tasks] { tasks.fetch_add(1); });
  std::vector<std::atomic<int>> hits(31);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(tasks.load(), 20);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// Satellite regression: an exception captured from a submitted task and
// never retrieved via wait_idle() must not vanish silently when the pool is
// destroyed -- the destructor logs it at Error level.
TEST(ThreadPool, DestructorLogsUnretrievedTaskError) {
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  {
    ThreadPool pool(2);
    std::atomic<bool> done{false};
    pool.submit([] { throw std::runtime_error("lost-task-error"); });
    pool.submit([&done] { done.store(true); });
    while (!done.load()) std::this_thread::yield();
    // No wait_idle(): destruction must surface the stored exception.
  }
  std::cerr.rdbuf(old);
  EXPECT_NE(captured.str().find("unretrieved"), std::string::npos)
      << "destructor output: " << captured.str();
  EXPECT_NE(captured.str().find("lost-task-error"), std::string::npos)
      << "destructor output: " << captured.str();
}

// ---- GridSpec parsing --------------------------------------------------

TEST(GridSpec, ParsesListsRangesAndAliases) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..3,10", &error)) << error;
  ASSERT_TRUE(grid.parse_arg("mode=wasp,static", &error)) << error;  // alias
  ASSERT_EQ(grid.axes.size(), 2u);
  EXPECT_EQ(grid.axes[0].name, "seeds");
  EXPECT_EQ(grid.axes[0].values,
            std::vector<std::string>({"1", "2", "3", "10"}));
  EXPECT_EQ(grid.axes[1].name, "policy");  // canonicalized
  EXPECT_EQ(grid.num_cells(), 8u);
  EXPECT_EQ(grid.to_string(), "seeds=1,2,3,10 policy=wasp,static");
}

TEST(GridSpec, RepeatedAxisReplacesValues) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..8", &error));
  ASSERT_TRUE(grid.parse_arg("seeds=5", &error));
  ASSERT_EQ(grid.axes.size(), 1u);
  EXPECT_EQ(grid.axes[0].values, std::vector<std::string>({"5"}));
}

TEST(GridSpec, RejectsUnknownAxesAndBadRanges) {
  GridSpec grid;
  std::string error;
  EXPECT_FALSE(grid.parse_arg("frobnicate=1", &error));
  EXPECT_NE(error.find("unknown grid axis"), std::string::npos);
  EXPECT_FALSE(grid.parse_arg("seeds=9..3", &error));
  EXPECT_FALSE(grid.parse_arg("noequals", &error));
}

TEST(GridSpec, ParsesSweepFileWithComments) {
  const std::string path = testing::TempDir() + "/exec_test_grid.sweep";
  {
    std::ofstream out(path);
    out << "# a comment\n\nseeds=1..2\n  policy=wasp,degrade  \n";
  }
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_file(path, &error)) << error;
  EXPECT_EQ(grid.num_cells(), 4u);
  EXPECT_FALSE(grid.parse_file(path + ".missing", &error));
}

// ---- expand_grid -------------------------------------------------------

TEST(ExpandGrid, RowMajorLastAxisFastest) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1,2", &error));
  ASSERT_TRUE(grid.parse_arg("policy=wasp,degrade", &error));
  const auto cells = expand_grid(grid, runtime::RunSpec{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 4u);
  EXPECT_EQ((*cells)[0].run.seed, 1u);
  EXPECT_EQ((*cells)[0].run.mode, runtime::AdaptationMode::kWasp);
  EXPECT_EQ((*cells)[1].run.seed, 1u);
  EXPECT_EQ((*cells)[1].run.mode, runtime::AdaptationMode::kDegrade);
  EXPECT_EQ((*cells)[2].run.seed, 2u);
  EXPECT_EQ((*cells)[2].run.mode, runtime::AdaptationMode::kWasp);
  EXPECT_EQ((*cells)[3].index, 3u);
  EXPECT_FALSE((*cells)[0].seed_forked);
}

TEST(ExpandGrid, ForksSeedByCellIndexWithoutSeedsAxis) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("policy=wasp,degrade,hybrid", &error));
  runtime::RunSpec base;
  base.seed = 99;
  const auto cells = expand_grid(grid, base, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE((*cells)[i].seed_forked);
    EXPECT_EQ((*cells)[i].run.seed, fork_seed(99, i));
  }
}

TEST(ExpandGrid, TopologyAxisStoresCanonicalSpecs) {
  GridSpec grid;
  std::string error;
  // ';' separates spec params because ',' separates axis values.
  ASSERT_TRUE(
      grid.parse_arg("topology=paper,edge:sites=32;regions=4", &error));
  const auto cells = expand_grid(grid, runtime::RunSpec{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 2u);
  EXPECT_EQ((*cells)[0].run.topology, net::TopologySpec{});  // paper
  EXPECT_EQ((*cells)[1].run.topology.kind,
            net::TopologySpec::Kind::kEdgeHierarchy);
  EXPECT_EQ((*cells)[1].run.topology.edge.edge_sites, 32);
  EXPECT_EQ((*cells)[1].run.topology.edge.regions, 4);
  EXPECT_EQ((*cells)[1].labels[0].second, "edge:sites=32;regions=4");
}

TEST(ExpandGrid, RejectsBadValues) {
  for (const char* axis :
       {"policy=warp", "query=nope", "duration=abc", "workload-step=xyz",
        "topology=edge:sites=banana"}) {
    GridSpec grid;
    std::string error;
    ASSERT_TRUE(grid.parse_arg(axis, &error)) << axis;
    EXPECT_FALSE(expand_grid(grid, runtime::RunSpec{}, &error).has_value())
        << axis;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ExpandGrid, StepsAndStaticAliasApply) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("policy=static", &error));
  ASSERT_TRUE(grid.parse_arg("workload-step=300:2+600:1", &error));
  const auto cells = expand_grid(grid, runtime::RunSpec{}, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  EXPECT_EQ((*cells)[0].run.mode, runtime::AdaptationMode::kNoAdapt);
  ASSERT_EQ((*cells)[0].run.workload_steps.size(), 2u);
  EXPECT_DOUBLE_EQ((*cells)[0].run.workload_steps[0].first, 300.0);
  EXPECT_DOUBLE_EQ((*cells)[0].run.workload_steps[0].second, 2.0);
}

// ---- run_one / run_sweep ----------------------------------------------

TEST(RunOne, ReportsErrorsInsteadOfThrowing) {
  SweepCell cell;
  cell.run.seed = 7;
  cell.run.duration_sec = 10.0;
  cell.run.fault_schedule = "/nonexistent/chaos.fsched";
  const RunResult result = run_one(cell);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.error.empty());
  const obs::TraceEvent event = result.to_trace_event();
  EXPECT_EQ(event.num("ok"), 0.0);
  EXPECT_FALSE(std::string(event.str("error")).empty());
}

// Inputs that used to abort, segfault or run past a vector's end come back
// as failed cells with a message, and never take the sweep down.
TEST(RunOne, TopologyTooSmallOrFaultIdsOutsideItFailTheCell) {
  const std::string schedule = testing::TempDir() + "/exec_test_bad.fsched";
  std::ofstream(schedule) << "10 partition from=99 to=0 duration=5\n";
  for (const std::string& text : std::vector<std::string>{
           "topology=uniform:sites=1", "topology=uniform:sites=2",
           "topology=uniform:sites=3 query=join",
           "topology=edge:sites=4,regions=1,core=1,regional=0 query=join",
           "fault-schedule=" + schedule}) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = runtime::RunSpec::parse(text + " duration=20", &error);
    ASSERT_TRUE(spec.has_value()) << error;
    SweepCell cell;
    cell.run = *spec;
    const RunResult result = run_one(cell);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(result.to_trace_event().num("ok"), 0.0);
  }
}

// The tentpole acceptance test: a 16-cell grid (8 seeds x 2 policies, with a
// workload surge so the adaptive cells actually adapt) merged at jobs=1 and
// jobs=8 must be byte-identical.
TEST(SweepDeterminism, SixteenCellGridIdenticalForJobs1AndJobs8) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..8", &error));
  ASSERT_TRUE(grid.parse_arg("policy=wasp,static", &error));
  runtime::RunSpec base;
  base.duration_sec = 120.0;
  auto cells = expand_grid(grid, base, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  ASSERT_EQ(cells->size(), 16u);
  // A surge at t=30 so the wasp cells exercise the adaptation machinery.
  for (auto& cell : *cells) {
    cell.run.workload_steps = {{30.0, 3.0}};
  }

  SweepOptions serial;
  serial.jobs = 1;
  SweepOptions parallel;
  parallel.jobs = 8;
  const auto serial_results = run_sweep(*cells, serial);
  const auto parallel_results = run_sweep(*cells, parallel);
  const std::string serial_merged = merged_jsonl(grid, base, serial_results);
  const std::string parallel_merged =
      merged_jsonl(grid, base, parallel_results);
  EXPECT_EQ(serial_merged, parallel_merged);  // byte-identical

  // Results are ordered by cell index regardless of completion order.
  for (std::size_t i = 0; i < parallel_results.size(); ++i) {
    EXPECT_TRUE(parallel_results[i].ok) << parallel_results[i].error;
    EXPECT_EQ(parallel_results[i].cell.index, i);
  }
  // The adaptive cells did adapt (the surge is sized to force it).
  std::size_t adaptive_actions = 0;
  for (const auto& result : parallel_results) {
    if (result.cell.run.mode == runtime::AdaptationMode::kWasp) {
      adaptive_actions += result.adaptations;
    }
  }
  EXPECT_GT(adaptive_actions, 0u);
}

// The merged stream parses with the trace-analysis layer (wasp_trace
// validate/diff consume sweep output unchanged).
TEST(MergedJsonl, ParsesAsTraceEvents) {
  GridSpec grid;
  std::string error;
  ASSERT_TRUE(grid.parse_arg("seeds=1..2", &error));
  runtime::RunSpec base;
  base.duration_sec = 30.0;
  const auto cells = expand_grid(grid, base, &error);
  ASSERT_TRUE(cells.has_value()) << error;
  SweepOptions opts;
  opts.jobs = 2;
  const auto results = run_sweep(*cells, opts);
  const std::string merged = merged_jsonl(grid, base, results);

  std::istringstream in(merged);
  const obs::TraceFile parsed = obs::load_trace(in);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.events.size(), 3u);  // header + 2 cells
  EXPECT_EQ(parsed.events[0].type, "sweep_grid");
  EXPECT_EQ(parsed.events[0].num("cells"), 2.0);
  EXPECT_EQ(parsed.events[1].type, "sweep_cell");
  EXPECT_EQ(parsed.events[1].num("cell"), 0.0);
  EXPECT_EQ(parsed.events[1].seq, 1u);
  EXPECT_EQ(parsed.events[2].num("cell"), 1.0);
  // With a seeds axis, the cell seed is the axis value -- not forked.
  EXPECT_EQ(parsed.events[1].num("seed"), 1.0);
  EXPECT_EQ(parsed.events[2].num("seed"), 2.0);
}

}  // namespace
}  // namespace wasp::exec
