// Unit tests for the benchmark driver's own code: the seed-driven fault
// generator, the percentile rule and the span recorder.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "driver/inputs.h"
#include "driver/spans.h"
#include "driver/stats.h"
#include "faults/fault_schedule.h"

namespace perfbench {
namespace {

using wasp::faults::FaultKind;

const std::vector<int> kDcs = {1, 2, 3, 4, 5, 6, 7};
const std::vector<int> kOthers = {1, 2, 3, 4, 5, 6, 7, 8,
                                  9, 10, 11, 12, 13, 14, 15};

wasp::faults::FaultSchedule parse(const std::string& text) {
  wasp::faults::FaultSchedule schedule;
  std::string error;
  std::istringstream in(text);
  EXPECT_TRUE(wasp::faults::FaultSchedule::parse(in, &schedule, &error))
      << error;
  return schedule;
}

TEST(FaultGenerator, SameSeedSameText) {
  EXPECT_EQ(generate_fault_schedule(42, 600, 0, kDcs, kOthers),
            generate_fault_schedule(42, 600, 0, kDcs, kOthers));
  EXPECT_NE(generate_fault_schedule(42, 600, 0, kDcs, kOthers),
            generate_fault_schedule(43, 600, 0, kDcs, kOthers));
}

TEST(FaultGenerator, InstanceSeedsAreDistinctAndStable) {
  EXPECT_EQ(instance_seed(1, 0), instance_seed(1, 0));
  EXPECT_NE(instance_seed(1, 0), instance_seed(1, 1));
  EXPECT_NE(instance_seed(1, 0), instance_seed(2, 0));
}

// Every fault ends before the horizon minus the calm tail, every crash is
// restored, every straggler cleared, the coordinator is never crashed, and
// the cycle repeats through a long run.
TEST(FaultGenerator, EveryFaultClearsBeforeTheRunEnds) {
  for (const double horizon : {600.0, 3600.0}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const auto schedule =
          parse(generate_fault_schedule(seed, horizon, 0, kDcs, kOthers));
      const double deadline = horizon - kCycleCalmTailSec;
      std::map<std::int64_t, int> crashed, slowed;
      int crashes = 0;
      for (const auto& e : schedule.events()) {
        ASSERT_LE(e.t, deadline);
        switch (e.kind) {
          case FaultKind::kSiteCrash:
            ASSERT_NE(e.site.value(), 0) << "coordinator crashed";
            ++crashed[e.site.value()];
            ++crashes;
            break;
          case FaultKind::kSiteRestore:
            --crashed[e.site.value()];
            break;
          case FaultKind::kStraggler:
            slowed[e.site.value()] += e.factor < 1.0 ? 1 : -1;
            break;
          case FaultKind::kControlStall:
            ASSERT_LE(e.t + e.duration_sec, deadline);
            break;
          case FaultKind::kLinkPartition:
            ASSERT_GT(e.duration_sec, 0.0) << "partition must heal itself";
            ASSERT_LE(e.t + e.duration_sec, deadline);
            ASSERT_EQ(e.to.value(), 0);
            ASSERT_NE(e.from.value(), 0);
            break;
          default:
            FAIL() << "unexpected fault kind " << wasp::faults::to_string(e.kind);
        }
      }
      for (const auto& [site, open] : crashed) EXPECT_EQ(open, 0) << site;
      for (const auto& [site, open] : slowed) EXPECT_EQ(open, 0) << site;
      const int cycles = static_cast<int>((deadline - kCycleSpanSec -
                                           kCycleFirstSec) /
                                          kCyclePeriodSec) +
                         1;
      EXPECT_EQ(crashes, cycles) << "one crash per cycle";
    }
  }
}

TEST(FaultGenerator, BothPaperWorkloadsShareInputs) {
  const WorkloadDef* chaos = find_workload("paper16_chaos");
  const WorkloadDef* traced = find_workload("paper16_traced");
  ASSERT_NE(chaos, nullptr);
  ASSERT_NE(traced, nullptr);
  EXPECT_EQ(traced->reference, chaos->name);
  EXPECT_EQ(traced->input_horizon, chaos->input_horizon);
  EXPECT_EQ(traced->topology, chaos->topology);
  EXPECT_LE(traced->ticks, chaos->ticks);
  EXPECT_LE(traced->instances, chaos->instances);
}

// Member-wise assignment would free the network before the system that
// still uses it, so a deployment ends only by teardown() or going out of
// scope.
static_assert(!std::is_move_assignable_v<Deployment>);
static_assert(std::is_move_constructible_v<Deployment>);

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = tail_percentile(v, 99.0);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);

  v.pop_back();  // 999 samples: the p99 rank leaves only 9 beyond
  EXPECT_FALSE(tail_percentile(v, 99.0).has_value());
  EXPECT_TRUE(tail_percentile(v, 99.0, 9).has_value());
  EXPECT_FALSE(tail_percentile({}, 50.0).has_value());
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6,
                                 15, 11, 14, 12, 13, 20, 19, 18, 17, 16};
  const auto p50 = tail_percentile(v, 50.0);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->beyond, 10u);
  EXPECT_EQ(median(v), 10.5);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
}

TEST(Spans, TotalsStayExactPastCapacity) {
  SpanRecorder spans(2);
  const std::uint32_t root = spans.new_id();
  for (int i = 0; i < 5; ++i) {
    spans.record(spans.new_id(), "tick", root, 100 * i, 100 * i + 40);
  }
  spans.record(root, "episode", 0, 0, 500);
  EXPECT_EQ(spans.total("tick").count, 5u);
  EXPECT_EQ(spans.total("tick").total_ns, 200);
  EXPECT_EQ(spans.total("episode").total_ns, 500);
  EXPECT_EQ(spans.stored(), 2u);
  EXPECT_EQ(spans.dropped(), 4u);
  std::ostringstream out;
  spans.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"dropped_spans\":4"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
