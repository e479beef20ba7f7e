// The run description (runtime::RunSpec): one key table that parses,
// validates and prints, an exact parse(to_string()) round trip, the shared
// site-role and query rules, and the builder's errors and tick loop.
#include "runtime/run_spec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace wasp::runtime {
namespace {

RunSpec spec_of(const std::string& text) {
  std::string error;
  const auto spec = RunSpec::parse(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(RunSpec{});
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/run_spec_test_" + name;
  std::ofstream(path) << text;
  return path;
}

// ---------------------------------------------------------------------------
// Parsing

TEST(RunSpecTest, RejectsBadValuesAndUnknownKeys) {
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"query", "ysbb"},
           {"mode", "warp"},
           {"duration", "10x"},
           {"duration", "abc"},
           {"duration", "0"},
           {"seed", "abc"},
           {"seed", "-1"},
           {"alpha", "0"},
           {"alpha", "1.5"},
           {"rate", "-1"},
           {"standby-replicas", "-1"},
           {"workload-step", "5"},
           {"bandwidth-step", "300:2+"},
           {"fail", "540"},
           {"topology", "edge:sites=banana"},
           {"slo", "delay_p99=x"},
           {"trace", "a file.csv"},
           {"sites", "2"},
           {"frobnicate", "1"}}) {
    SCOPED_TRACE(key + "=" + value);
    RunSpec spec;
    std::string error;
    EXPECT_FALSE(spec.set(key, value, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;  // one line
    EXPECT_EQ(spec, RunSpec{});  // a rejected value changes nothing
  }
}

TEST(RunSpecTest, AcceptsAliasesAndStatic) {
  RunSpec spec;
  std::string error;
  ASSERT_TRUE(spec.set("mode", "static", &error)) << error;
  EXPECT_EQ(spec.mode, AdaptationMode::kNoAdapt);
  ASSERT_TRUE(spec.set("seeds", "3", &error)) << error;
  EXPECT_EQ(spec.seed, 3u);
  ASSERT_TRUE(spec.set("policy", "degrade", &error)) << error;
  EXPECT_EQ(spec.mode, AdaptationMode::kDegrade);
  ASSERT_TRUE(spec.set("fault", "x.fsched", &error)) << error;
  EXPECT_EQ(spec.fault_schedule, "x.fsched");
  EXPECT_EQ(RunSpec::axis_name("seed"), "seeds");
  EXPECT_EQ(RunSpec::axis_name("mode"), "policy");
  EXPECT_EQ(RunSpec::axis_name("fault-schedule"), "fault");
  EXPECT_EQ(RunSpec::axis_name("duration"), "duration");
  EXPECT_FALSE(RunSpec::axis_name("sites").has_value());
}

TEST(RunSpecTest, FlagsAppendStepsAndTheLastTraceFlagWins) {
  RunSpec spec;
  std::string error;
  ASSERT_TRUE(spec.set_arg("--trace=bw.csv", &error)) << error;
  ASSERT_TRUE(spec.set_arg("--live-bandwidth", &error)) << error;
  EXPECT_EQ(spec.bandwidth_trace, "live");
  ASSERT_TRUE(spec.set_arg("--trace=bw.csv", &error)) << error;
  EXPECT_EQ(spec.bandwidth_trace, "bw.csv");
  ASSERT_TRUE(spec.set_arg("--live-workload", &error)) << error;
  EXPECT_EQ(spec.workload_trace, "live");
  ASSERT_TRUE(spec.set_arg("--trace=none", &error)) << error;
  EXPECT_TRUE(spec.bandwidth_trace.empty());

  ASSERT_TRUE(spec.set_arg("--workload-step=300:2", &error)) << error;
  ASSERT_TRUE(spec.set_arg("--workload-step=600:1+900:0.5", &error)) << error;
  EXPECT_EQ(spec.workload_steps,
            (Steps{{300.0, 2.0}, {600.0, 1.0}, {900.0, 0.5}}));
  ASSERT_TRUE(spec.set_arg("--workload-step=none", &error)) << error;
  EXPECT_TRUE(spec.workload_steps.empty());

  EXPECT_FALSE(spec.set_arg("--sites=2", &error));
  EXPECT_FALSE(spec.set_arg("--csv", &error));
  EXPECT_FALSE(spec.set_arg("query=ysb", &error));
}

TEST(RunSpecTest, SloTakesSecondsOrAWatchdogSpec) {
  RunSpec spec;
  std::string error;
  ASSERT_TRUE(spec.set("slo", "5", &error)) << error;
  EXPECT_EQ(spec.slo_sec, 5.0);
  EXPECT_FALSE(spec.slo_watchdog.has_value());
  ASSERT_TRUE(spec.set("slo", "delay_p99=5s,window=10", &error)) << error;
  ASSERT_TRUE(spec.slo_watchdog.has_value());
  EXPECT_EQ(spec.slo_watchdog->delay_p99_sec, 5.0);
  EXPECT_EQ(spec.slo_sec, 5.0);  // the two forms are independent
}

// ---------------------------------------------------------------------------
// Canonical form

TEST(RunSpecTest, ToStringPrintsEveryKeyInAFixedOrder) {
  EXPECT_EQ(RunSpec{}.to_string(),
            "query=topk mode=wasp seed=7 duration=900 rate=10000 alpha=0.8 "
            "slo=10 topology=paper trace=none workload-trace=none "
            "workload-step=none bandwidth-step=none standby-replicas=0 "
            "fail=none fault-schedule=none");
}

TEST(RunSpecTest, RoundTripsEveryKeyExactly) {
  RunSpec full;
  full.query = QueryKind::kJoin;
  full.mode = AdaptationMode::kHybrid;
  full.seed = 18446744073709551615ULL;
  full.duration_sec = 123.456789012345;
  full.rate_eps = 0.1 + 0.2;  // 0.30000000000000004
  full.alpha = 0.7071067811865476;
  full.slo_sec = 10.0 / 3.0;
  full.slo_watchdog = SloSpec{};
  full.slo_watchdog->delay_p99_sec = 1.23456789;
  full.slo_watchdog->window_sec = 29.5;
  full.topology = *net::TopologySpec::parse(
      "uniform:sites=8,slots=3,bw=123.4567891,lat=0.1234567");
  full.bandwidth_trace = "live";
  full.workload_trace = "workload.csv";
  full.workload_steps = {{300.0, 2.0}, {1e21, 1.0 / 3.0}};  // "1e+21:..."
  full.bandwidth_steps = {{0.1, 0.333}};
  full.standby_replicas = 2;
  full.fail = std::make_pair(540.25, 60.5);
  full.fault_schedule = "chaos.fsched";

  RunSpec edge;
  edge.topology = *net::TopologySpec::parse(
      "edge:sites=36,regions=4,edge-slots=3-5,domains-per-region=2");
  edge.bandwidth_trace = "bw.csv";
  edge.workload_trace = "live";

  for (const RunSpec& spec : {RunSpec{}, full, edge}) {
    const std::string text = spec.to_string();
    SCOPED_TRACE(text);
    std::string error;
    const auto parsed = RunSpec::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, spec);
    EXPECT_EQ(parsed->to_string(), text);
  }
}

TEST(RunSpecTest, ParseRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(RunSpec::parse("query=topk duration", &error).has_value());
  EXPECT_FALSE(RunSpec::parse("query=topk nope=1", &error).has_value());
  EXPECT_NE(error.find("nope"), std::string::npos) << error;
  EXPECT_EQ(spec_of("  seed=3\tquery=ysb "), spec_of("query=ysb seed=3"));
}

TEST(RunSpecTest, HelpListsEveryKeyWithItsDefault) {
  RunSpec defaults;
  defaults.seed = 42;
  const std::string help = RunSpec::help(defaults);
  for (const char* key :
       {"--query=", "--mode=", "--seed=", "--duration=", "--rate=",
        "--alpha=", "--slo=", "--topology=", "--trace=", "--workload-trace=",
        "--workload-step=", "--bandwidth-step=", "--standby-replicas=",
        "--fail=", "--fault-schedule="}) {
    EXPECT_NE(help.find(key), std::string::npos) << key;
  }
  EXPECT_NE(help.find("(default 42; alias seeds)"), std::string::npos) << help;
}

// ---------------------------------------------------------------------------
// Site roles and query minimums

TEST(SiteRolesTest, HubLayoutWithoutEdgeSites) {
  const SiteRoles roles =
      site_roles(net::Topology::make_uniform(5, 4, 500.0, 20.0));
  EXPECT_EQ(roles.sink, SiteId(0));
  EXPECT_EQ(roles.east, (std::vector<SiteId>{SiteId(1), SiteId(3)}));
  EXPECT_EQ(roles.west, (std::vector<SiteId>{SiteId(2), SiteId(4)}));
  EXPECT_EQ(roles.edges.size(), 4u);
  EXPECT_EQ(roles.dcs.size(), 5u);
}

TEST(SiteRolesTest, EdgeSitesFeedTheSourcesOnThePaperTestbed) {
  Rng rng(7);
  const net::Topology topology = net::Topology::make_paper_testbed(rng);
  const SiteRoles roles = site_roles(topology);
  EXPECT_EQ(roles.edges.size(), 8u);
  EXPECT_EQ(roles.dcs.size(), 8u);
  EXPECT_EQ(roles.east.size(), 4u);
  EXPECT_EQ(roles.west.size(), 4u);
  for (SiteId s : roles.edges) {
    EXPECT_EQ(topology.site(s).type, net::SiteType::kEdge);
  }
  EXPECT_EQ(roles.sink, roles.dcs.front());
  EXPECT_NE(topology.site(roles.sink).type, net::SiteType::kEdge);
}

TEST(MakeQueryTest, RejectsTopologiesWithTooFewSites) {
  const auto roles_of = [](const std::string& text) {
    Rng rng(7);
    return site_roles(net::TopologySpec::parse(text)->build(rng));
  };
  struct Case {
    QueryKind query;
    std::string topology;
    bool ok;
  };
  for (const Case& c : std::vector<Case>{
           {QueryKind::kTopk, "uniform:sites=1", false},
           {QueryKind::kTopk, "uniform:sites=2", false},
           {QueryKind::kTopk, "uniform:sites=3", true},
           {QueryKind::kYsb, "uniform:sites=1", false},
           {QueryKind::kYsb, "uniform:sites=2", true},
           {QueryKind::kEventsOfInterest, "uniform:sites=2", false},
           {QueryKind::kEventsOfInterest, "uniform:sites=3", true},
           {QueryKind::kJoin, "uniform:sites=3", false},
           {QueryKind::kJoin, "uniform:sites=4", true},
           {QueryKind::kJoin, "edge:sites=4,regions=1,core=1,regional=0",
            false},
           {QueryKind::kJoin, "paper", true}}) {
    SCOPED_TRACE(std::string(to_string(c.query)) + " on " + c.topology);
    std::string error;
    const auto query = make_query(c.query, roles_of(c.topology), &error);
    EXPECT_EQ(query.has_value(), c.ok) << error;
    if (!c.ok) {
      EXPECT_NE(error.find("needs"), std::string::npos) << error;
    }
  }
}

// ---------------------------------------------------------------------------
// Builder

TEST(BuildRunTest, TooFewSitesIsAnInputError) {
  for (const char* text :
       {"topology=uniform:sites=1", "topology=uniform:sites=2",
        "topology=uniform:sites=3 query=join",
        "topology=edge:sites=4,regions=1,core=1,regional=0 query=join"}) {
    SCOPED_TRACE(text);
    BuildError error;
    EXPECT_EQ(build_run(spec_of(text), {}, &error), nullptr);
    EXPECT_FALSE(error.file);
    EXPECT_NE(error.message.find("needs"), std::string::npos)
        << error.message;
  }
}

TEST(BuildRunTest, FaultScheduleIdsOutsideTheTopologyAreInputErrors) {
  for (const auto& [name, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"partition99", "10 partition from=99 to=0 duration=5\n"},
           {"crash99", "10 crash site=99\n20 restore site=99\n"},
           {"domain99", "10 domain_down domain=99\n"}}) {
    SCOPED_TRACE(text);
    RunSpec spec;
    spec.duration_sec = 30.0;
    spec.fault_schedule = write_temp(name + ".fsched", text);
    BuildError error;
    EXPECT_EQ(build_run(spec, {}, &error), nullptr);
    EXPECT_FALSE(error.file);
    EXPECT_NE(error.message.find("t=10"), std::string::npos) << error.message;
  }
}

TEST(BuildRunTest, UnreadableFilesAreFileErrors) {
  for (const char* key : {"trace", "workload-trace", "fault-schedule"}) {
    SCOPED_TRACE(key);
    RunSpec spec;
    std::string set_error;
    ASSERT_TRUE(spec.set(key, "/nonexistent/input", &set_error)) << set_error;
    BuildError error;
    EXPECT_EQ(build_run(spec, {}, &error), nullptr);
    EXPECT_TRUE(error.file);
    EXPECT_NE(error.message.find("/nonexistent/input"), std::string::npos)
        << error.message;
  }
}

// The fail window lands on the same tick boundaries as stepping to its start,
// failing every site, stepping to its end and restoring them.
TEST(RunTest, FailWindowEdgesMatchSteppingToEachEdge) {
  RunSpec spec = spec_of("query=ysb duration=80 workload-step=10:3");
  const auto plain = build_run(spec, {}, nullptr);
  ASSERT_NE(plain, nullptr);
  plain->run_until(30.0);
  plain->system().fail_all_sites();
  plain->run_until(50.0);
  plain->system().restore_all_sites();
  plain->run_until(80.0);

  spec.fail = std::make_pair(30.0, 20.0);
  const auto windowed = build_run(spec, {}, nullptr);
  ASSERT_NE(windowed, nullptr);
  windowed->run_until(80.0);

  const Recorder& a = plain->system().recorder();
  const Recorder& b = windowed->system().recorder();
  EXPECT_EQ(a.delay().points(), b.delay().points());
  EXPECT_EQ(a.ratio().points(), b.ratio().points());
  EXPECT_EQ(a.processed_fraction(), b.processed_fraction());
  EXPECT_LT(a.ratio().mean_over(31.0, 50.0), 1.0);  // the window did bite
}

// The fault injector ticks every tick, the fail window included: each event
// applies at the first tick boundary at or after its scheduled time, exactly
// as it does without a fail window.
TEST(RunTest, FaultsApplyOnScheduleInsideTheFailWindow) {
  RunSpec spec;
  spec.duration_sec = 60.0;
  spec.fault_schedule = write_temp(
      "window.fsched",
      "5 straggler site=9 factor=0.5\n20 stall duration=3\n"
      "25.5 partition from=9 to=1 duration=4\n33 straggler site=9 factor=1\n"
      "40 crash site=10\n50 restore site=10\n");
  spec.fail = std::make_pair(15.0, 25.0);
  const auto run = build_run(spec, {}, nullptr);
  ASSERT_NE(run, nullptr);
  const auto& events = run->injector()->events();
  while (run->system().now() + 1.0 <= spec.duration_sec + 1e-9) {
    const double boundary = run->system().now();
    run->step();
    std::size_t due = 0;
    for (const auto& e : events) due += e.t <= boundary ? 1 : 0;
    ASSERT_EQ(run->injector()->applied(), due) << "at t=" << boundary;
  }
  EXPECT_TRUE(run->injector()->done());
}

}  // namespace
}  // namespace wasp::runtime
