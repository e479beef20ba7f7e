// Fault-injection subsystem tests: schedule parsing, deterministic injector
// replay, heartbeat failure-detection latency bounds, false suspicion on
// partitioned links, transactional migration aborts with backoff retry, and
// the full suspect -> confirm_failure -> replan -> stabilized recovery chain.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "faults/failure_detector.h"
#include "faults/fault_injector.h"
#include "faults/fault_schedule.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::faults {
namespace {

// ---------------------------------------------------------------------------
// FaultSchedule parsing
// ---------------------------------------------------------------------------

TEST(FaultScheduleTest, ParsesEveryKindAndSortsByTime) {
  std::istringstream in(R"(# a comment line
240 restore site=3
120 crash site=3          # trailing comment
300 partition from=2 to=0 duration=60
100 flap from=1 to=0 period=12 duration=90
400 straggler site=5 factor=0.2
600 stall duration=30
)");
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::parse(in, &schedule, &error)) << error;
  ASSERT_EQ(schedule.events().size(), 6u);
  for (std::size_t i = 1; i < schedule.events().size(); ++i) {
    EXPECT_LE(schedule.events()[i - 1].t, schedule.events()[i].t);
  }
  const FaultEvent& flap = schedule.events()[0];
  EXPECT_EQ(flap.kind, FaultKind::kLinkFlap);
  EXPECT_EQ(flap.from, SiteId(1));
  EXPECT_EQ(flap.to, SiteId(0));
  EXPECT_DOUBLE_EQ(flap.period_sec, 12.0);
  EXPECT_DOUBLE_EQ(flap.duration_sec, 90.0);
  const FaultEvent& crash = schedule.events()[1];
  EXPECT_EQ(crash.kind, FaultKind::kSiteCrash);
  EXPECT_EQ(crash.site, SiteId(3));
  const FaultEvent& straggler = schedule.events()[4];
  EXPECT_EQ(straggler.kind, FaultKind::kStraggler);
  EXPECT_DOUBLE_EQ(straggler.factor, 0.2);
}

TEST(FaultScheduleTest, RejectsMalformedLinesWithLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    std::istringstream in(text);
    FaultSchedule schedule;
    std::string error;
    EXPECT_FALSE(FaultSchedule::parse(in, &schedule, &error)) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error was: " << error;
  };
  expect_error("120 explode site=1\n", "unknown event kind");
  expect_error("120 crash\n", "missing site=");
  expect_error("abc crash site=1\n", "bad time");
  expect_error("120 crash site=x\n", "bad site id");
  expect_error("120 flap from=1 to=0 period=12\n", "missing duration=");
  expect_error("120 straggler site=1 factor=0\n", "factor must be > 0");
  // The line number points at the offending line, not the first.
  expect_error("100 crash site=1\n200 heal from=0\n", "line 2");
}

// Site ids and domains are checked against the topology before a run: an id
// past the end would otherwise index the Network's per-site state out of
// bounds.
TEST(FaultScheduleTest, ValidateRejectsIdsOutsideTheTopology) {
  const net::Topology topology = net::Topology::make_uniform(16, 2, 100, 10);
  const auto validate = [&](const std::string& text, std::string* error) {
    std::istringstream in(text);
    FaultSchedule schedule;
    EXPECT_TRUE(FaultSchedule::parse(in, &schedule, error)) << *error;
    return schedule.validate(topology, error);
  };
  std::string error;
  EXPECT_TRUE(validate("10 crash site=15\n20 partition from=0 to=15\n"
                       "30 domain_down domain=3\n40 stall duration=5\n",
                       &error))
      << error;
  for (const auto& [text, needle] :
       std::vector<std::pair<std::string, std::string>>{
           {"10 partition from=99 to=0 duration=5\n", "from=99"},
           {"10 crash site=99\n20 restore site=99\n", "site=99"},
           {"10 flap from=1 to=16 period=4 duration=8\n", "to=16"},
           {"10 straggler site=16 factor=0.5\n", "site=16"},
           {"10 domain_down domain=99\n", "domain=99"}}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(validate(text, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << error;
    EXPECT_NE(error.find("t=10"), std::string::npos) << error;
  }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

net::Network make_net(int n) {
  return net::Network(net::Topology::make_uniform(n, 2, 100.0, 10.0),
                      std::make_shared<net::ConstantBandwidth>());
}

FaultSchedule flap_schedule() {
  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.t = 50.0;
  flap.from = SiteId(1);
  flap.to = SiteId(0);
  flap.period_sec = 10.0;
  flap.duration_sec = 60.0;
  FaultSchedule schedule;
  schedule.add(flap);
  return schedule;
}

TEST(FaultInjectorTest, FlapExpansionIsDeterministicGivenSeed) {
  net::Network net_a = make_net(3);
  net::Network net_b = make_net(3);
  FaultInjector a(net_a, flap_schedule(), Rng(99));
  FaultInjector b(net_b, flap_schedule(), Rng(99));
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].t, b.events()[i].t);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }
  // The expansion alternates partition/heal, stays inside the flap window,
  // and always leaves the link healed.
  EXPECT_GT(a.events().size(), 4u);
  EXPECT_EQ(a.events().front().kind, FaultKind::kLinkPartition);
  EXPECT_EQ(a.events().back().kind, FaultKind::kLinkHeal);
  EXPECT_DOUBLE_EQ(a.events().back().t, 110.0);
}

TEST(FaultInjectorTest, TickAppliesDueEventsInOrder) {
  FaultSchedule schedule;
  FaultEvent p;
  p.kind = FaultKind::kLinkPartition;
  p.t = 10.0;
  p.from = SiteId(1);
  p.to = SiteId(0);
  p.duration_sec = 20.0;  // auto-heal at t=30
  schedule.add(p);
  net::Network net = make_net(3);
  FaultInjector injector(net, schedule, Rng(1));
  injector.tick(5.0);
  EXPECT_FALSE(net.link_partitioned(SiteId(1), SiteId(0)));
  injector.tick(10.0);
  EXPECT_TRUE(net.link_partitioned(SiteId(1), SiteId(0)));
  injector.tick(30.0);
  EXPECT_FALSE(net.link_partitioned(SiteId(1), SiteId(0)));
  EXPECT_TRUE(injector.done());
  EXPECT_EQ(injector.applied(), 2u);
}

// ---------------------------------------------------------------------------
// FailureDetector
// ---------------------------------------------------------------------------

TEST(FailureDetectorTest, DetectionLatencyIsBounded) {
  net::Network net = make_net(3);
  FailureDetector detector(net, FailureDetector::Config{});
  const double fail_at = 30.0;
  bool site1_alive = true;
  double suspected_at = -1.0, confirmed_at = -1.0;
  for (double t = 1.0; t <= 100.0; t += 1.0) {
    if (t >= fail_at) site1_alive = false;
    detector.tick(t, [&](SiteId s) { return s != SiteId(1) || site1_alive; });
    for (const HealthTransition& ht : detector.take_transitions()) {
      ASSERT_EQ(ht.site, SiteId(1));
      if (ht.to == SiteHealth::kSuspected) suspected_at = ht.t;
      if (ht.to == SiteHealth::kConfirmedFailed) confirmed_at = ht.t;
    }
  }
  const auto& cfg = detector.config();
  ASSERT_GT(suspected_at, 0.0);
  ASSERT_GT(confirmed_at, 0.0);
  // Detection happens no earlier than the timeout and no later than the
  // timeout plus one heartbeat interval plus one tick.
  EXPECT_GE(suspected_at - fail_at, cfg.suspect_timeout_sec -
            cfg.heartbeat_interval_sec - 1.0);
  EXPECT_LE(suspected_at - fail_at,
            cfg.suspect_timeout_sec + cfg.heartbeat_interval_sec + 1.0);
  EXPECT_LE(confirmed_at - fail_at,
            cfg.confirm_timeout_sec + cfg.heartbeat_interval_sec + 1.0);
  EXPECT_EQ(detector.health(SiteId(1)), SiteHealth::kConfirmedFailed);
  EXPECT_EQ(detector.health(SiteId(2)), SiteHealth::kTrusted);
}

TEST(FailureDetectorTest, ShortPartitionCausesFalseSuspicionThenRetrust) {
  net::Network net = make_net(3);
  FailureDetector detector(net, FailureDetector::Config{});
  ASSERT_EQ(detector.coordinator(), SiteId(0));
  std::vector<SiteHealth> seen;
  for (double t = 1.0; t <= 60.0; t += 1.0) {
    if (t == 30.0) net.set_link_partitioned(SiteId(1), SiteId(0), true);
    if (t == 39.0) net.set_link_partitioned(SiteId(1), SiteId(0), false);
    detector.tick(t, [](SiteId) { return true; });  // everyone stays alive
    for (const HealthTransition& ht : detector.take_transitions()) {
      ASSERT_EQ(ht.site, SiteId(1));
      seen.push_back(ht.to);
    }
  }
  // Suspected while the heartbeat path was cut, re-trusted after the heal --
  // and never confirmed failed (the outage was shorter than the confirm
  // timeout): a flapping link is not a dead site.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], SiteHealth::kSuspected);
  EXPECT_EQ(seen[1], SiteHealth::kTrusted);
  EXPECT_EQ(detector.health(SiteId(1)), SiteHealth::kTrusted);
}

TEST(FailureDetectorTest, ReversePartitionDoesNotAffectDetection) {
  // Heartbeats ride site -> coordinator; cutting only the coordinator ->
  // site direction must not raise suspicion.
  net::Network net = make_net(3);
  FailureDetector detector(net, FailureDetector::Config{});
  net.set_link_partitioned(SiteId(0), SiteId(1), true);
  for (double t = 1.0; t <= 40.0; t += 1.0) {
    detector.tick(t, [](SiteId) { return true; });
  }
  EXPECT_TRUE(detector.take_transitions().empty());
  EXPECT_EQ(detector.health(SiteId(1)), SiteHealth::kTrusted);
}

// ---------------------------------------------------------------------------
// System-level: the paper testbed under injected faults
// ---------------------------------------------------------------------------

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

  workload::QuerySpec topk() const {
    return workload::make_topk_topics(east, west, sink);
  }

  workload::SteppedWorkload uniform_rates(const workload::QuerySpec& spec,
                                          double eps_per_site) const {
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, eps_per_site);
      }
    }
    return pattern;
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west;
  SiteId sink;
};

// A non-coordinator data-center site currently hosting tasks (recovery
// re-plans only trigger for sites with stranded work).
SiteId task_hosting_dc(const runtime::WaspSystem& system) {
  const auto used = system.engine().slots_in_use();
  const SiteId coordinator = system.detector().coordinator();
  for (std::size_t s = 0; s < 8 && s < used.size(); ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    if (site != coordinator && used[s] > 0) return site;
  }
  return SiteId(-1);
}

OperatorId window_op_of(const workload::QuerySpec& spec) {
  for (const auto& op : spec.plan.operators()) {
    if (op.kind == query::OperatorKind::kWindowAggregate) return op.id;
  }
  return OperatorId(-1);
}

TEST(FaultSystemTest, CrashTriggersSuspectConfirmReplanStabilizedChain) {
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  const SiteId victim = task_hosting_dc(system);
  ASSERT_TRUE(victim.valid()) << "no non-coordinator DC hosts tasks";

  system.fail_sites({victim});
  system.run_until(400.0);

  // The recovery log holds the full ordered chain for the victim.
  double suspect_t = -1.0, confirm_t = -1.0, replan_t = -1.0,
         stabilized_t = -1.0;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.site == victim.value() && e.kind == "suspect" && suspect_t < 0.0) {
      suspect_t = e.t;
    }
    if (e.site == victim.value() && e.kind == "confirm_failure" &&
        confirm_t < 0.0) {
      confirm_t = e.t;
    }
    if (e.site == victim.value() && e.kind == "replan" && replan_t < 0.0) {
      replan_t = e.t;
    }
    if (e.kind == "stabilized" && stabilized_t < 0.0) stabilized_t = e.t;
  }
  ASSERT_GT(suspect_t, 100.0);
  ASSERT_GT(confirm_t, suspect_t);
  ASSERT_GE(replan_t, confirm_t);
  ASSERT_GE(stabilized_t, replan_t);

  // The re-plan moved every unpinned task off the dead site.
  const auto used = system.engine().slots_in_use();
  EXPECT_EQ(used[static_cast<std::size_t>(victim.value())], 0);
  // And no orphaned bulk transfers remain.
  EXPECT_EQ(bed.network.num_bulk_flows(), 0u);
}

TEST(FaultSystemTest, TwoSitesConfirmedInSameWindowRecoverWithoutClobbering) {
  // Two sites failed in the same tick are confirmed in the same detection
  // window. The recovery must evacuate *both* (one dead-list covering the
  // pair, or sequential episodes that do not supersede each other's work)
  // and leave no orphaned bulk transfers behind.
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);

  // The task-hosting DC plus one more non-coordinator DC, crashed together.
  const SiteId first = task_hosting_dc(system);
  ASSERT_TRUE(first.valid());
  SiteId second;
  const auto used_before = system.engine().slots_in_use();
  const SiteId coordinator = system.detector().coordinator();
  for (std::size_t s = 0; s < 8 && s < used_before.size(); ++s) {
    const SiteId site(static_cast<std::int64_t>(s));
    if (site != coordinator && site != first) {
      second = site;
      if (used_before[s] > 0) break;  // prefer a second task-hosting DC
    }
  }
  ASSERT_TRUE(second.valid());
  system.fail_sites({first, second});
  system.run_until(400.0);

  // Both confirmations landed, in the same detection window.
  double confirm_first = -1.0, confirm_second = -1.0;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind != "confirm_failure") continue;
    if (e.site == first.value() && confirm_first < 0.0) confirm_first = e.t;
    if (e.site == second.value() && confirm_second < 0.0) confirm_second = e.t;
  }
  ASSERT_GT(confirm_first, 100.0);
  ASSERT_GT(confirm_second, 100.0);
  EXPECT_NEAR(confirm_first, confirm_second, 5.0);

  // Every site that hosted tasks has a recovery decision at or after its
  // confirmation, the episode stabilized, and nothing was clobbered: both
  // sites end empty with zero orphaned flows.
  const auto used_after = system.engine().slots_in_use();
  for (SiteId v : {first, second}) {
    if (used_before[static_cast<std::size_t>(v.value())] == 0) continue;
    double recovered_t = -1.0;
    for (const auto& e : system.recorder().recovery_events()) {
      if (e.site == v.value() &&
          (e.kind == "replan" || e.kind == "failover") && recovered_t < 0.0) {
        recovered_t = e.t;
      }
    }
    EXPECT_GE(recovered_t, std::min(confirm_first, confirm_second))
        << "no recovery decision for site " << v.value();
    EXPECT_EQ(used_after[static_cast<std::size_t>(v.value())], 0)
        << "site " << v.value() << " still hosts tasks";
  }
  bool stabilized = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind == "stabilized") stabilized = true;
  }
  EXPECT_TRUE(stabilized);
  EXPECT_EQ(bed.network.num_bulk_flows(), 0u);
}

TEST(FaultSystemTest, MidMigrationDestinationFailureAbortsAndRollsBack) {
  Testbed bed;
  auto spec = bed.topk();
  const OperatorId window_op = window_op_of(spec);
  ASSERT_TRUE(window_op.valid());
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kNoAdapt;  // only the forced action
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, 200.0);
  system.run_until(100.0);

  const auto before = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  SiteId dest;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && before.at(site.id) == 0 &&
        site.id != bed.sink) {
      dest = site.id;
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          before.parallelism();
      break;
    }
  }
  ASSERT_TRUE(dest.valid());
  system.force_reassign(window_op, target);
  ASSERT_TRUE(system.transition_in_progress());
  system.run_until(103.0);  // bulk transfer in flight (200 MB takes longer)
  ASSERT_TRUE(system.transition_in_progress());
  ASSERT_GT(bed.network.num_bulk_flows(), 0u);

  system.fail_sites({dest});
  system.run_until(110.0);

  // Aborted: orphaned flows cancelled, placement rolled back, event marked.
  EXPECT_FALSE(system.transition_in_progress());
  EXPECT_EQ(bed.network.num_bulk_flows(), 0u);
  EXPECT_EQ(system.engine().placement(window_op), before);
  ASSERT_EQ(system.recorder().events().size(), 1u);
  const auto& event = system.recorder().events()[0];
  EXPECT_TRUE(event.aborted());
  EXPECT_FALSE(event.abort_reason.empty());
  // The abort and its backoff retry are in the recovery log. The recorded
  // wait is the seeded-jittered initial backoff: within the jitter band
  // around transition_backoff_initial_sec (DESIGN.md §12).
  bool saw_abort = false, saw_retry = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind == "transition_abort") saw_abort = true;
    if (e.kind == "retry") {
      saw_retry = true;
      const double base = config.transition_backoff_initial_sec;
      const double frac = config.transition_backoff_jitter_frac;
      EXPECT_GE(e.backoff_sec, (1.0 - frac) * base);
      EXPECT_LT(e.backoff_sec, (1.0 + frac) * base);
    }
  }
  EXPECT_TRUE(saw_abort);
  EXPECT_TRUE(saw_retry);
  // Execution resumed on the pre-transition deployment.
  system.run_until(200.0);
  EXPECT_NEAR(system.recorder().ratio().mean_over(160.0, 200.0), 1.0, 0.05);
}

TEST(FaultSystemTest, ExhaustedRetryBudgetAbandonsAndOptionallySheds) {
  Testbed bed;
  auto spec = bed.topk();
  const OperatorId window_op = window_op_of(spec);
  ASSERT_TRUE(window_op.valid());
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kNoAdapt;
  config.transition_retry_budget = 0;  // first abort exhausts the budget
  config.shed_on_recovery_stall = true;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, 200.0);
  system.run_until(100.0);

  const auto before = system.engine().placement(window_op);
  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  SiteId dest;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && before.at(site.id) == 0 &&
        site.id != bed.sink) {
      dest = site.id;
      target.per_site[static_cast<std::size_t>(site.id.value())] =
          before.parallelism();
      break;
    }
  }
  ASSERT_TRUE(dest.valid());
  system.force_reassign(window_op, target);
  system.run_until(103.0);
  system.fail_sites({dest});
  system.run_until(110.0);

  bool saw_abandon = false, saw_degrade_on = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind == "abandon") saw_abandon = true;
    if (e.kind == "degrade_on") saw_degrade_on = true;
  }
  EXPECT_TRUE(saw_abandon);
  EXPECT_TRUE(saw_degrade_on);
  EXPECT_TRUE(system.engine().degrade_enabled());

  // Once the failed site returns and is re-trusted, shedding stops.
  system.restore_sites({dest});
  system.run_until(140.0);
  bool saw_degrade_off = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.kind == "degrade_off") saw_degrade_off = true;
  }
  EXPECT_TRUE(saw_degrade_off);
  EXPECT_FALSE(system.engine().degrade_enabled());
}

TEST(FaultSystemTest, ShortPartitionDoesNotDisturbProcessing) {
  // A directed partition of the heartbeat path briefly raises suspicion but
  // -- unlike a whole-site crash -- the data plane keeps flowing and no
  // recovery re-plan fires.
  Testbed bed;
  auto spec = bed.topk();
  auto pattern = bed.uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  const SiteId victim = task_hosting_dc(system);
  ASSERT_TRUE(victim.valid());
  const SiteId coordinator = system.detector().coordinator();

  bed.network.set_link_partitioned(victim, coordinator, true);
  system.run_until(110.0);
  bed.network.set_link_partitioned(victim, coordinator, false);
  system.run_until(300.0);

  bool saw_suspect = false;
  for (const auto& e : system.recorder().recovery_events()) {
    if (e.site == victim.value() && e.kind == "suspect") saw_suspect = true;
    EXPECT_NE(e.kind, "replan") << "false replan from a short partition";
    EXPECT_NE(e.kind, "confirm_failure");
  }
  EXPECT_TRUE(saw_suspect);
  EXPECT_TRUE(system.detector().trusted(victim));
  EXPECT_NEAR(system.recorder().processed_fraction(), 1.0, 0.02);
}

TEST(FaultSystemTest, ScriptedChaosReplayIsDeterministic) {
  auto run = [] {
    Testbed bed(7);
    auto spec = bed.topk();
    auto pattern = bed.uniform_rates(spec, 10'000.0);
    runtime::SystemConfig config;
    config.mode = runtime::AdaptationMode::kWasp;
    config.seed = 7;
    runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);

    FaultSchedule schedule;
    FaultEvent flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.t = 50.0;
    flap.from = SiteId(9);
    flap.to = SiteId(6);
    flap.period_sec = 10.0;
    flap.duration_sec = 40.0;
    schedule.add(flap);
    FaultEvent crash;
    crash.kind = FaultKind::kSiteCrash;
    crash.t = 60.0;
    crash.site = SiteId(6);
    schedule.add(crash);
    FaultEvent restore = crash;
    restore.kind = FaultKind::kSiteRestore;
    restore.t = 150.0;
    schedule.add(restore);

    FaultInjector injector(bed.network, schedule, Rng(7 ^ 0xFA17));
    FaultInjector::Hooks hooks;
    hooks.crash_site = [&system](SiteId s) { system.fail_sites({s}); };
    hooks.restore_site = [&system](SiteId s) { system.restore_sites({s}); };
    injector.set_hooks(std::move(hooks));
    while (system.now() + 1.0 <= 300.0 + 1e-9) {
      injector.tick(system.now());
      system.step();
    }

    std::vector<std::tuple<double, std::string, std::int64_t>> log;
    for (const auto& e : system.recorder().recovery_events()) {
      log.emplace_back(e.t, e.kind, e.site);
    }
    return std::make_pair(log,
                          system.recorder().delay().mean_over(0.0, 300.0));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

}  // namespace
}  // namespace wasp::faults
