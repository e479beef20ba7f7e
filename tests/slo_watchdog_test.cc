// SLO watchdog: spec parsing, windowed violation episodes, trace spans and
// slo.* metrics, plus the wasp_system wiring that drives it per tick.
#include "runtime/slo_watchdog.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {
namespace {

// ---------------------------------------------------------------------------
// SloSpec

TEST(SloSpecTest, ParsesFullSpecAndSuffixedSeconds) {
  std::string error;
  const auto spec = SloSpec::parse(
      "delay_p99=5s,delay_p95=3,delay_max=20sec,ratio_min=0.9,window=10s",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_DOUBLE_EQ(spec->delay_p99_sec, 5.0);
  EXPECT_DOUBLE_EQ(spec->delay_p95_sec, 3.0);
  EXPECT_DOUBLE_EQ(spec->delay_max_sec, 20.0);
  EXPECT_DOUBLE_EQ(spec->ratio_min, 0.9);
  EXPECT_DOUBLE_EQ(spec->window_sec, 10.0);
  EXPECT_TRUE(spec->any());

  // to_string renders every set bound; the result parses back identically.
  const auto reparsed = SloSpec::parse(spec->to_string());
  ASSERT_TRUE(reparsed.has_value()) << spec->to_string();
  EXPECT_DOUBLE_EQ(reparsed->delay_p99_sec, spec->delay_p99_sec);
  EXPECT_DOUBLE_EQ(reparsed->ratio_min, spec->ratio_min);
  EXPECT_DOUBLE_EQ(reparsed->window_sec, spec->window_sec);
}

TEST(SloSpecTest, RoundTripsNonRoundValuesExactly) {
  std::string error;
  const auto spec =
      SloSpec::parse("delay_p99=1.23456789,ratio_min=0.9,window=29.5", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->to_string(),
            "delay_p99=1.23456789,ratio_min=0.9,window=29.5");
  const auto again = SloSpec::parse(spec->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(*again, *spec);
  EXPECT_EQ(again->delay_p99_sec, 1.23456789);
}

TEST(SloSpecTest, DefaultsWindowAndAllowsPartialSpecs) {
  const auto spec = SloSpec::parse("delay_p99=5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->window_sec, 30.0);
  EXPECT_LT(spec->ratio_min, 0.0);  // unset
  EXPECT_LT(spec->delay_max_sec, 0.0);
}

TEST(SloSpecTest, RejectsBadSpecsWithReason) {
  std::string error;
  EXPECT_FALSE(SloSpec::parse("delay_p42=5", &error).has_value());
  EXPECT_NE(error.find("delay_p42"), std::string::npos) << error;
  EXPECT_FALSE(SloSpec::parse("delay_p99=abc", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("delay_p99", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("window=30", &error).has_value());  // no bound
  EXPECT_FALSE(SloSpec::parse("delay_p99=5,window=0", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("", &error).has_value());
  EXPECT_FALSE(SloSpec::parse("delay_p99=-3", &error).has_value());
}

// ---------------------------------------------------------------------------
// SloWatchdog episodes (driven directly, no engine)

void record_delay(Recorder* recorder, double t, double delay_sec,
                  double ratio = 1.0) {
  recorder->record_tick(t, delay_sec, ratio, 1.0, 0.0, 100.0, 100.0, 0.0);
}

TEST(SloWatchdogTest, OpensAndClosesEpisodeAroundBreach) {
  const auto spec = SloSpec::parse("delay_max=5,window=4");
  ASSERT_TRUE(spec.has_value());
  auto sink = std::make_shared<obs::MemorySink>();
  obs::TraceEmitter trace(sink);
  obs::MetricsRegistry metrics;
  SloWatchdog watchdog(*spec, &trace, &metrics);
  Recorder recorder;

  double t = 0.0;
  for (; t < 10.0; t += 1.0) {
    record_delay(&recorder, t, 1.0);
    trace.set_now(t);
    watchdog.tick(t, recorder);
  }
  EXPECT_FALSE(watchdog.in_violation());
  EXPECT_EQ(watchdog.violations(), 0u);

  // Three ticks above the bound: one episode, not three.
  for (; t < 13.0; t += 1.0) {
    record_delay(&recorder, t, 12.0);
    trace.set_now(t);
    watchdog.tick(t, recorder);
    EXPECT_TRUE(watchdog.in_violation());
  }
  EXPECT_EQ(watchdog.violations(), 1u);
  EXPECT_DOUBLE_EQ(metrics.counter("slo.violations").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("slo.in_violation").value(), 1.0);

  // Recovery: the breach leaves the window once the bad ticks age out.
  for (; t < 20.0; t += 1.0) {
    record_delay(&recorder, t, 1.0);
    trace.set_now(t);
    watchdog.tick(t, recorder);
  }
  EXPECT_FALSE(watchdog.in_violation());
  EXPECT_EQ(watchdog.violations(), 1u);
  EXPECT_GT(watchdog.violation_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("slo.in_violation").value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.counter("slo.violation_seconds").value(),
                   watchdog.violation_seconds());

  // Trace: one balanced "slo_violation" span with begin/end markers inside.
  const auto begins = sink->of_type("slo_violation_begin");
  const auto ends = sink->of_type("slo_violation_end");
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_NE(begins[0].str("reasons").find("delay_max"), std::string::npos);
  EXPECT_EQ(ends[0].str("status"), "resolved");
  EXPECT_GT(ends[0].num("duration_sec"), 0.0);

  std::vector<obs::TraceEvent> events(sink->events().begin(),
                                      sink->events().end());
  const auto index = obs::SpanIndex::build(events);
  EXPECT_TRUE(index.balanced());
  ASSERT_EQ(index.nodes.size(), 1u);
  EXPECT_EQ(index.nodes[0].name, "slo_violation");
  EXPECT_EQ(index.nodes[0].parent, obs::kNoSpan);
  EXPECT_TRUE(index.nodes[0].closed);
}

TEST(SloWatchdogTest, RatioBoundUsesWindowMeanAndFinishCloses) {
  const auto spec = SloSpec::parse("ratio_min=0.9,window=5");
  ASSERT_TRUE(spec.has_value());
  auto sink = std::make_shared<obs::MemorySink>();
  obs::TraceEmitter trace(sink);
  SloWatchdog watchdog(*spec, &trace, /*metrics=*/nullptr);
  Recorder recorder;

  double t = 0.0;
  for (; t < 6.0; t += 1.0) {
    record_delay(&recorder, t, 1.0, /*ratio=*/1.0);
    trace.set_now(t);
    watchdog.tick(t, recorder);
  }
  EXPECT_FALSE(watchdog.in_violation());
  for (; t < 12.0; t += 1.0) {
    record_delay(&recorder, t, 1.0, /*ratio=*/0.4);
    trace.set_now(t);
    watchdog.tick(t, recorder);
  }
  EXPECT_TRUE(watchdog.in_violation());

  // End of run with the episode still open: finish() closes it unresolved.
  watchdog.finish(t);
  const auto ends = sink->of_type("slo_violation_end");
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].str("status"), "unresolved");
  std::vector<obs::TraceEvent> events(sink->events().begin(),
                                      sink->events().end());
  EXPECT_TRUE(obs::SpanIndex::build(events).balanced());
}

TEST(SloWatchdogTest, RunsWithoutTraceOrMetrics) {
  const auto spec = SloSpec::parse("delay_max=1,window=2");
  ASSERT_TRUE(spec.has_value());
  SloWatchdog watchdog(*spec, /*trace=*/nullptr, /*metrics=*/nullptr);
  Recorder recorder;
  record_delay(&recorder, 0.0, 10.0);
  watchdog.tick(0.0, recorder);
  EXPECT_TRUE(watchdog.in_violation());
  EXPECT_EQ(watchdog.violations(), 1u);
  watchdog.finish(1.0);
  EXPECT_FALSE(watchdog.in_violation());
  EXPECT_DOUBLE_EQ(watchdog.violation_seconds(), 1.0);
}

// ---------------------------------------------------------------------------
// End-to-end: the runtime drives the watchdog from SystemConfig::slo.

struct Testbed {
  explicit Testbed(std::uint64_t seed = 7)
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

TEST(SloWatchdogIntegrationTest, OverloadOpensEpisodeAndRecoveryClosesIt) {
  Testbed bed;
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  pattern.add_step(100.0, 3.0);  // hard surge: delay passes the bound
  pattern.add_step(200.0, 1.0);  // then back to normal so WASP can drain

  auto sink = std::make_shared<obs::MemorySink>(1 << 20);
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  config.trace_sink = sink;
  config.slo = *SloSpec::parse("delay_max=5,window=20");
  {
    WaspSystem system(bed.network, std::move(spec), pattern, config);
    system.run_until(600.0);

    const SloWatchdog* watchdog = system.slo_watchdog();
    ASSERT_NE(watchdog, nullptr);
    EXPECT_GE(watchdog->violations(), 1u);
    EXPECT_GT(watchdog->violation_seconds(), 0.0);
    EXPECT_FALSE(watchdog->in_violation()) << "run should end recovered";

    const auto* violations =
        system.metrics().find_counter("slo.violations");
    ASSERT_NE(violations, nullptr);
    EXPECT_DOUBLE_EQ(violations->value(),
                     static_cast<double>(watchdog->violations()));
  }

  // After destruction every span (episodes included) is closed.
  std::vector<obs::TraceEvent> events(sink->events().begin(),
                                      sink->events().end());
  const auto index = obs::SpanIndex::build(events);
  EXPECT_TRUE(index.balanced())
      << (index.errors.empty() ? "" : index.errors[0]);
  bool saw_violation_span = false;
  for (const auto& node : index.nodes) {
    if (node.name == "slo_violation") {
      saw_violation_span = true;
      EXPECT_TRUE(node.closed);
    }
  }
  EXPECT_TRUE(saw_violation_span);
}

TEST(SloWatchdogIntegrationTest, UnsetSloLeavesWatchdogNull) {
  Testbed bed;
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  SystemConfig config;
  config.mode = AdaptationMode::kWasp;
  WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(50.0);
  EXPECT_EQ(system.slo_watchdog(), nullptr);
  EXPECT_EQ(system.metrics().find_counter("slo.violations"), nullptr);
}

}  // namespace
}  // namespace wasp::runtime
