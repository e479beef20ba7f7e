// Tick-phase profiler unit tests (DESIGN.md §13): exact accounting under a
// fake clock (Scope nesting, Chain segment attribution, depth-overflow
// balance), the static phase registry round-trip, and the pure-observer
// contract -- same-seed runs must produce bitwise-identical metrics and
// (profile events aside) byte-identical traces with profiling on or off at
// any thread count.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::obs {
namespace {

// Profiler::ClockFn is a plain function pointer, so the fake clock is a
// file-scope counter the tests advance by hand.
std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

const PhaseAccum& accum_of(const Profiler& profiler, Phase phase) {
  return profiler.accums()[static_cast<std::size_t>(phase)];
}

TEST(ProfilerTest, ScopeNestingSplitsSelfFromTotal) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Scope step(&profiler, Phase::kStep);
    g_fake_now = 100;
    {
      Profiler::Scope engine(&profiler, Phase::kEngine);
      g_fake_now = 130;
    }
    g_fake_now = 150;
  }
  const auto& engine = accum_of(profiler, Phase::kEngine);
  EXPECT_EQ(engine.calls, 1u);
  EXPECT_EQ(engine.total_ns, 30u);
  EXPECT_EQ(engine.self_ns, 30u);
  const auto& step = accum_of(profiler, Phase::kStep);
  EXPECT_EQ(step.calls, 1u);
  EXPECT_EQ(step.total_ns, 150u);
  EXPECT_EQ(step.self_ns, 120u);  // 150 minus the 30 spent in engine
}

TEST(ProfilerTest, ChainAttributesEachSegmentOnce) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Scope step(&profiler, Phase::kStep);
    Profiler::Chain chain(&profiler);
    g_fake_now = 5;
    chain.next(Phase::kWorkload);  // opens workload at t=5
    g_fake_now = 10;
    chain.next(Phase::kWaterfill);  // closes workload, opens waterfill
    g_fake_now = 25;
    chain.close();  // closes waterfill
    g_fake_now = 40;
  }
  const auto& workload = accum_of(profiler, Phase::kWorkload);
  EXPECT_EQ(workload.calls, 1u);
  EXPECT_EQ(workload.total_ns, 5u);
  EXPECT_EQ(workload.self_ns, 5u);
  const auto& waterfill = accum_of(profiler, Phase::kWaterfill);
  EXPECT_EQ(waterfill.calls, 1u);
  EXPECT_EQ(waterfill.total_ns, 15u);
  EXPECT_EQ(waterfill.self_ns, 15u);
  const auto& step = accum_of(profiler, Phase::kStep);
  EXPECT_EQ(step.total_ns, 40u);
  EXPECT_EQ(step.self_ns, 20u);  // 40 minus the two chained segments
}

TEST(ProfilerTest, ChainDestructorClosesOpenSegment) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Chain chain(&profiler);
    chain.next(Phase::kRecord);
    g_fake_now = 12;
    // No explicit close(): the destructor must end the open segment.
  }
  const auto& record = accum_of(profiler, Phase::kRecord);
  EXPECT_EQ(record.calls, 1u);
  EXPECT_EQ(record.total_ns, 12u);
}

TEST(ProfilerTest, DisabledOrNullProfilerIsANoOp) {
  Profiler disabled(false);
  disabled.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Scope scope(&disabled, Phase::kStep);
    Profiler::Chain chain(&disabled);
    chain.next(Phase::kEngine);
    g_fake_now = 100;
  }
  for (const auto& accum : disabled.accums()) {
    EXPECT_EQ(accum.calls, 0u);
    EXPECT_EQ(accum.total_ns, 0u);
    EXPECT_EQ(accum.self_ns, 0u);
  }
  {
    // Null profiler: must not crash.
    Profiler::Scope scope(nullptr, Phase::kStep);
    Profiler::Chain chain(nullptr);
    chain.next(Phase::kEngine);
    chain.close();
  }
}

TEST(ProfilerTest, ResetClearsAccumulators) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Scope scope(&profiler, Phase::kStep);
    g_fake_now = 50;
  }
  EXPECT_EQ(accum_of(profiler, Phase::kStep).total_ns, 50u);
  profiler.reset();
  for (const auto& accum : profiler.accums()) {
    EXPECT_EQ(accum.calls, 0u);
    EXPECT_EQ(accum.total_ns, 0u);
  }
}

TEST(ProfilerTest, PhaseNamesRoundTripThroughTheRegistry) {
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto phase = static_cast<Phase>(i);
    const char* name = phase_name(phase);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "phase " << i << " has no registry name";
    Phase parsed = Phase::kCount;
    ASSERT_TRUE(phase_from_name(name, &parsed)) << name;
    EXPECT_EQ(parsed, phase) << name;
  }
  Phase parsed = Phase::kCount;
  EXPECT_FALSE(phase_from_name("no.such.phase", &parsed));
  EXPECT_STREQ(phase_name(Phase::kCount), "?");
}

TEST(ProfilerTest, DepthOverflowStaysBalanced) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    // 20 nested scopes against a 16-frame stack: the four deepest are
    // silently untimed, and their pops must not close ancestor frames.
    std::vector<std::unique_ptr<Profiler::Scope>> scopes;
    for (int i = 0; i < 20; ++i) {
      scopes.push_back(
          std::make_unique<Profiler::Scope>(&profiler, Phase::kEngine));
    }
    g_fake_now = 100;
    scopes.clear();  // pops in LIFO order
  }
  const auto& engine = accum_of(profiler, Phase::kEngine);
  EXPECT_EQ(engine.calls, 16u);          // only the tracked frames count
  EXPECT_EQ(engine.total_ns, 1600u);     // each tracked frame spans 0..100
  EXPECT_EQ(engine.self_ns, 100u);       // only the deepest tracked frame
  // The stack is balanced again: a fresh scope accounts normally.
  {
    Profiler::Scope step(&profiler, Phase::kStep);
    g_fake_now = 150;
  }
  const auto& step = accum_of(profiler, Phase::kStep);
  EXPECT_EQ(step.calls, 1u);
  EXPECT_EQ(step.total_ns, 50u);
  EXPECT_EQ(step.self_ns, 50u);
}

TEST(ProfilerTest, UnmatchedPopIsIgnored) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    // A Chain that was never next()ed closes nothing; extra close() calls
    // are idempotent.
    Profiler::Chain chain(&profiler);
    chain.close();
    chain.close();
  }
  for (const auto& accum : profiler.accums()) EXPECT_EQ(accum.calls, 0u);
}

// ---------------------------------------------------------------------------
// Pure-observer contract on the full system.

struct Testbed {
  explicit Testbed(std::uint64_t seed = 13)
      : rng(seed),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology, std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
      } else if (!sink.valid()) {
        sink = site.id;
      }
    }
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west;
  SiteId sink;
};

// Strips everything profiling is allowed to touch: the profile events
// themselves, the shared emitter sequence numbers they consume, and the
// diff-exempt wall_* timing fields. What remains must be byte-identical.
std::string normalized_trace(const std::string& path) {
  static const std::regex kWall(",\"wall_[a-z_]+\":[-+0-9.eE]+");
  static const std::regex kSeq("\"seq\":[0-9]+,");
  std::ifstream in(path);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"profile\"") != std::string::npos) continue;
    line = std::regex_replace(line, kWall, "");
    line = std::regex_replace(line, kSeq, "");
    out << line << '\n';
  }
  return out.str();
}

TEST(ProfilerTest, ProfilingIsAPureObserver) {
  using runtime::SystemConfig;
  using runtime::WaspSystem;
  auto run = [](bool profile, int threads, const std::string& tag) {
    Testbed bed(13);
    auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, 10'000.0);
      }
    }
    pattern.add_step(100.0, 2.0);
    SystemConfig config;
    config.seed = 13;
    config.threads = threads;
    config.profile = profile;
    config.profile_every = 40;  // several mid-run snapshots plus the flush
    const std::string path =
        ::testing::TempDir() + "/profiler_purity_" + tag + ".jsonl";
    config.trace_sink = std::make_shared<FileSink>(path);
    auto metrics = [&] {
      WaspSystem system(bed.network, std::move(spec), pattern, config);
      system.run_until(200.0);
      return std::make_pair(system.metrics().snapshot(),
                            system.recorder().events().size());
    }();  // destroy the system so it emits its final profile events
    config.trace_sink.reset();  // drop the last FileSink ref => flush
    return std::make_tuple(std::move(metrics.first), metrics.second,
                           normalized_trace(path));
  };

  const auto baseline = run(false, 1, "off_t1");
  EXPECT_NE(std::get<2>(baseline).find("\"type\":\"tick\""),
            std::string::npos);
  const std::vector<std::pair<bool, int>> variants = {
      {true, 1}, {true, 8}, {false, 8}};
  for (const auto& [profile, threads] : variants) {
    const std::string tag = (profile ? std::string("on_t") : "off_t") +
                            std::to_string(threads);
    const auto variant = run(profile, threads, tag);
    EXPECT_EQ(std::get<1>(baseline), std::get<1>(variant)) << tag;
    EXPECT_EQ(std::get<2>(baseline), std::get<2>(variant))
        << tag << ": normalized traces differ";
    const auto& mb = std::get<0>(baseline);
    const auto& mv = std::get<0>(variant);
    ASSERT_EQ(mb.size(), mv.size()) << tag;
    for (std::size_t i = 0; i < mb.size(); ++i) {
      EXPECT_EQ(mb[i].first, mv[i].first) << tag;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mb[i].second),
                std::bit_cast<std::uint64_t>(mv[i].second))
          << tag << " metric " << mb[i].first;
    }
  }
}

// A profiled run must actually record the tick phases and emit profile
// events that `wasp_trace profile` can aggregate.
TEST(ProfilerTest, ProfiledRunRecordsTickPhases) {
  Testbed bed(7);
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  runtime::SystemConfig config;
  config.seed = 7;
  config.profile = true;
  config.profile_every = 10;
  const std::string path = ::testing::TempDir() + "/profiler_phases.jsonl";
  config.trace_sink = std::make_shared<FileSink>(path);
  {
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(30.0);
    const auto& accums = system.profiler().accums();
    const auto& step = accums[static_cast<std::size_t>(Phase::kStep)];
    const auto& engine = accums[static_cast<std::size_t>(Phase::kEngine)];
    EXPECT_GE(step.calls, 29u);
    EXPECT_EQ(engine.calls, 30u);
    EXPECT_LE(engine.total_ns, step.total_ns + 1'000'000u);
    // Engine sub-phases nest under engine: self < total for the parent.
    EXPECT_LT(engine.self_ns, engine.total_ns);
  }
  config.trace_sink.reset();  // flush the sink before reading the file
  std::ifstream in(path);
  std::string line;
  int profile_events = 0;
  bool saw_step = false;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"profile\"") == std::string::npos) continue;
    ++profile_events;
    if (line.find("\"phase\":\"step\"") != std::string::npos) saw_step = true;
    EXPECT_NE(line.find("\"wall_total_us\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"ticks\""), std::string::npos) << line;
  }
  EXPECT_GT(profile_events, 0);
  EXPECT_TRUE(saw_step);
}

// A clock that advances one tick per read, so a frame's total is the number
// of reads it spans.
std::uint64_t g_reads = 0;
std::uint64_t counting_clock() { return ++g_reads; }

// Where frames meet, they share one read: a tick reads the clock 12 times,
// plus two for each control-plane Scope that ran (the standby sync runs
// every tick, so 14 with standbys). The step and engine frames begin and end
// with their first and last segments, so neither has self time.
TEST(ProfilerTest, ATickReadsTheClockOncePerBoundary) {
  for (const int standbys : {0, 1}) {
    SCOPED_TRACE(standbys);
    Testbed bed(7);
    auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, 10'000.0);
      }
    }
    runtime::SystemConfig config;
    config.seed = 7;
    config.profile = true;
    config.standby_replicas = standbys;
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(20.0);

    Profiler& profiler = system.profiler();
    profiler.set_clock(&counting_clock);
    profiler.reset();
    g_reads = 0;
    constexpr std::uint64_t kTicks = 200;
    for (std::uint64_t i = 0; i < kTicks; ++i) system.step();

    const auto& accums = profiler.accums();
    auto of = [&](Phase phase) {
      return accums[static_cast<std::size_t>(phase)];
    };
    std::uint64_t scope_calls = 0;
    for (Phase phase : {Phase::kPolicyDecide, Phase::kSolverPlacement,
                        Phase::kSolverMigration, Phase::kStandbySync}) {
      scope_calls += of(phase).calls;
    }
    EXPECT_EQ(of(Phase::kStandbySync).calls,
              standbys > 0 ? kTicks : std::uint64_t{0});
    EXPECT_EQ(g_reads, 12 * kTicks + 2 * scope_calls);

    EXPECT_EQ(of(Phase::kStep).calls, kTicks);
    EXPECT_EQ(of(Phase::kStep).self_ns, 0u);
    EXPECT_EQ(of(Phase::kStep).total_ns,
              of(Phase::kWorkload).total_ns + of(Phase::kWaterfill).total_ns +
                  of(Phase::kEngine).total_ns +
                  of(Phase::kMonitorExtract).total_ns +
                  of(Phase::kControl).total_ns + of(Phase::kRecord).total_ns);
    EXPECT_EQ(of(Phase::kEngine).self_ns, 0u);
    EXPECT_EQ(of(Phase::kEngine).total_ns,
              of(Phase::kEngineReset).total_ns +
                  of(Phase::kEngineStage).total_ns +
                  of(Phase::kEngineChannel).total_ns +
                  of(Phase::kEngineCheckpoint).total_ns +
                  of(Phase::kEngineDelay).total_ns +
                  of(Phase::kEngineEmit).total_ns);
    // Between ticks nothing reads the clock: the 200 steps span every read.
    EXPECT_EQ(of(Phase::kStep).total_ns + kTicks, g_reads);
  }
}

TEST(ProfilerTest, SharedReadsKeepSegmentsExact) {
  Profiler profiler(true);
  profiler.set_clock(&fake_clock);
  g_fake_now = 0;
  {
    Profiler::Scope step(&profiler, Phase::kStep);  // opens at 0
    Profiler::Chain chain(&profiler);
    chain.next_at_last_read(Phase::kWorkload);  // opens at 0 too
    g_fake_now = 10;
    chain.close_at_next_read();  // ends where engine begins
    g_fake_now = 15;
    {
      Profiler::Scope engine(&profiler, Phase::kEngine);  // reads 15
      g_fake_now = 40;
    }  // reads 40
    g_fake_now = 90;
    chain.next_at_last_read(Phase::kRecord);  // opens at 40
    g_fake_now = 100;
    chain.close_at_next_read();
  }  // reads 100: ends record and step
  const auto& workload = accum_of(profiler, Phase::kWorkload);
  EXPECT_EQ(workload.calls, 1u);
  EXPECT_EQ(workload.total_ns, 15u);
  const auto& engine = accum_of(profiler, Phase::kEngine);
  EXPECT_EQ(engine.total_ns, 25u);
  EXPECT_EQ(engine.self_ns, 25u);
  const auto& record = accum_of(profiler, Phase::kRecord);
  EXPECT_EQ(record.calls, 1u);
  EXPECT_EQ(record.total_ns, 60u);
  const auto& step = accum_of(profiler, Phase::kStep);
  EXPECT_EQ(step.calls, 1u);
  EXPECT_EQ(step.total_ns, 100u);
  EXPECT_EQ(step.self_ns, 0u);
}

}  // namespace
}  // namespace wasp::obs
