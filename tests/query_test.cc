// Unit tests for the logical query layer: DAG bookkeeping, validation, rate
// estimation (§3.3), signatures and state-compatibility (§4.3), filter
// pushdown, and join-order enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "query/logical_plan.h"
#include "query/operator.h"
#include "query/planner.h"

namespace wasp::query {
namespace {

LogicalOperator source(const char* name) {
  LogicalOperator op;
  op.name = name;
  op.kind = OperatorKind::kSource;
  op.pinned_sites = {SiteId(0)};
  return op;
}

LogicalOperator sink(const char* name) {
  LogicalOperator op;
  op.name = name;
  op.kind = OperatorKind::kSink;
  op.pinned_sites = {SiteId(0)};
  return op;
}

// Every source of `plan` at `eps` events/s.
OperatorTable<double> source_rates(const LogicalPlan& plan, double eps) {
  OperatorTable<double> rates(plan.num_operators());
  for (OperatorId s : plan.sources()) rates[s] = eps;
  return rates;
}

LogicalOperator op_of(const char* name, OperatorKind kind,
                      double selectivity = 1.0) {
  LogicalOperator op;
  op.name = name;
  op.kind = kind;
  op.selectivity = selectivity;
  return op;
}

// source -> filter(0.5) -> sink
LogicalPlan linear_plan() {
  LogicalPlan plan;
  const OperatorId s = plan.add_operator(source("src"));
  const OperatorId f = plan.add_operator(op_of("f", OperatorKind::kFilter, 0.5));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(s, f);
  plan.connect(f, k);
  return plan;
}

// (a, b) -> union -> filter -> sink
LogicalPlan union_filter_plan() {
  LogicalPlan plan;
  const OperatorId a = plan.add_operator(source("a"));
  const OperatorId b = plan.add_operator(source("b"));
  const OperatorId u = plan.add_operator(op_of("u", OperatorKind::kUnion));
  const OperatorId f = plan.add_operator(op_of("f", OperatorKind::kFilter, 0.2));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(a, u);
  plan.connect(b, u);
  plan.connect(u, f);
  plan.connect(f, k);
  return plan;
}

// Four sources joined as (a JOIN b) JOIN (c JOIN d) -> sink.
LogicalPlan join_plan(bool stateful) {
  LogicalPlan plan;
  const OperatorId a = plan.add_operator(source("a"));
  const OperatorId b = plan.add_operator(source("b"));
  const OperatorId c = plan.add_operator(source("c"));
  const OperatorId d = plan.add_operator(source("d"));
  auto join = [&](const char* name) {
    LogicalOperator op = op_of(name, OperatorKind::kJoin, 0.4);
    if (stateful) {
      op.state = StateSpec::windowed(1.0, 0.1);
      op.window = WindowSpec{30.0};  // windowed join state
    }
    return op;
  };
  const OperatorId jab = plan.add_operator(join("jab"));
  const OperatorId jcd = plan.add_operator(join("jcd"));
  const OperatorId jtop = plan.add_operator(join("jtop"));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(a, jab);
  plan.connect(b, jab);
  plan.connect(c, jcd);
  plan.connect(d, jcd);
  plan.connect(jab, jtop);
  plan.connect(jcd, jtop);
  plan.connect(jtop, k);
  return plan;
}

TEST(LogicalPlanTest, ValidLinearPlan) {
  EXPECT_EQ(linear_plan().validate(), "");
}

TEST(LogicalPlanTest, TopologicalOrderRespectsEdges) {
  LogicalPlan plan = join_plan(false);
  const auto order = plan.topological_order();
  ASSERT_EQ(order.size(), plan.num_operators());
  auto pos = [&](OperatorId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  for (const auto& op : plan.operators()) {
    for (OperatorId d : plan.downstream(op.id)) {
      EXPECT_LT(pos(op.id), pos(d));
    }
  }
}

TEST(LogicalPlanTest, ValidationCatchesDisconnectedOperator) {
  LogicalPlan plan;
  plan.add_operator(source("s"));
  plan.add_operator(op_of("orphan", OperatorKind::kMap));
  EXPECT_NE(plan.validate(), "");
}

TEST(LogicalPlanTest, ValidationCatchesUnpinnedSource) {
  LogicalPlan plan;
  LogicalOperator s = source("s");
  s.pinned_sites.clear();
  const OperatorId sid = plan.add_operator(std::move(s));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(sid, k);
  EXPECT_NE(plan.validate(), "");
}

TEST(LogicalPlanTest, ValidationCatchesUnaryJoin) {
  LogicalPlan plan;
  const OperatorId s = plan.add_operator(source("s"));
  const OperatorId j = plan.add_operator(op_of("j", OperatorKind::kJoin));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(s, j);
  plan.connect(j, k);
  EXPECT_NE(plan.validate(), "");
}

TEST(LogicalPlanTest, SourcesAndSinks) {
  LogicalPlan plan = union_filter_plan();
  EXPECT_EQ(plan.sources().size(), 2u);
  EXPECT_EQ(plan.sinks().size(), 1u);
}

TEST(LogicalPlanTest, RateEstimationPropagatesSelectivity) {
  LogicalPlan plan = linear_plan();
  const auto rates = plan.estimate_rates(source_rates(plan, 1000.0));
  const OperatorId f = plan.downstream(plan.sources()[0])[0];
  EXPECT_DOUBLE_EQ(rates[f].input_eps, 1000.0);
  EXPECT_DOUBLE_EQ(rates[f].output_eps, 500.0);
  EXPECT_DOUBLE_EQ(rates[plan.sinks()[0]].input_eps, 500.0);
}

TEST(LogicalPlanTest, RateEstimationSumsUnionInputs) {
  LogicalPlan plan = union_filter_plan();
  const auto rates = plan.estimate_rates(source_rates(plan, 300.0));
  // union input = 600; filter output = 120.
  EXPECT_DOUBLE_EQ(rates[plan.sinks()[0]].input_eps, 120.0);
}

TEST(SignatureTest, JoinIsCommutative) {
  LogicalPlan p1, p2;
  const OperatorId a1 = p1.add_operator(source("a"));
  const OperatorId b1 = p1.add_operator(source("b"));
  const OperatorId j1 = p1.add_operator(op_of("j", OperatorKind::kJoin));
  const OperatorId k1 = p1.add_operator(sink("out"));
  p1.connect(a1, j1);
  p1.connect(b1, j1);
  p1.connect(j1, k1);

  const OperatorId b2 = p2.add_operator(source("b"));
  const OperatorId a2 = p2.add_operator(source("a"));
  const OperatorId j2 = p2.add_operator(op_of("j", OperatorKind::kJoin));
  const OperatorId k2 = p2.add_operator(sink("out"));
  p2.connect(b2, j2);
  p2.connect(a2, j2);
  p2.connect(j2, k2);

  EXPECT_EQ(p1.signature(j1), p2.signature(j2));
}

TEST(SignatureTest, DifferentLeafSetsDiffer) {
  LogicalPlan plan = join_plan(false);
  // signature(jab) covers {a,b}; signature(jcd) covers {c,d}.
  const auto sig_of = [&](const char* name) {
    for (const auto& op : plan.operators()) {
      if (op.name == name) return plan.signature(op.id);
    }
    return std::string();
  };
  EXPECT_NE(sig_of("jab"), sig_of("jcd"));
}

TEST(SignatureTest, WindowLengthDistinguishes) {
  LogicalPlan p1, p2;
  for (LogicalPlan* p : {&p1, &p2}) {
    const OperatorId s = p->add_operator(source("s"));
    LogicalOperator w = op_of("w", OperatorKind::kWindowAggregate, 0.1);
    w.window = WindowSpec{p == &p1 ? 10.0 : 30.0};
    const OperatorId wid = p->add_operator(std::move(w));
    const OperatorId k = p->add_operator(sink("out"));
    p->connect(s, wid);
    p->connect(wid, k);
  }
  EXPECT_NE(p1.signature(OperatorId(1)), p2.signature(OperatorId(1)));
}

TEST(StateCompatibilityTest, IdenticalPlansAreCompatible) {
  LogicalPlan plan = join_plan(true);
  EXPECT_TRUE(plan.can_inherit_state_from(plan));
}

TEST(StateCompatibilityTest, ReorderedStatefulJoinIncompatible) {
  // Old: (a JOIN b) stateful. New: (a JOIN c) -- no matching sub-plan.
  LogicalPlan old_plan, new_plan;
  {
    const OperatorId a = old_plan.add_operator(source("a"));
    const OperatorId b = old_plan.add_operator(source("b"));
    LogicalOperator j = op_of("j", OperatorKind::kJoin);
    j.state = StateSpec::windowed(1.0, 0.0);
    const OperatorId jid = old_plan.add_operator(std::move(j));
    const OperatorId k = old_plan.add_operator(sink("out"));
    old_plan.connect(a, jid);
    old_plan.connect(b, jid);
    old_plan.connect(jid, k);
  }
  {
    const OperatorId a = new_plan.add_operator(source("a"));
    const OperatorId c = new_plan.add_operator(source("c"));
    LogicalOperator j = op_of("j", OperatorKind::kJoin);
    j.state = StateSpec::windowed(1.0, 0.0);
    const OperatorId jid = new_plan.add_operator(std::move(j));
    const OperatorId k = new_plan.add_operator(sink("out"));
    new_plan.connect(a, jid);
    new_plan.connect(c, jid);
    new_plan.connect(jid, k);
  }
  EXPECT_FALSE(new_plan.can_inherit_state_from(old_plan));
  // The stateless direction doesn't matter: old inheriting from new also
  // fails because old's stateful join has no match in new.
  EXPECT_FALSE(old_plan.can_inherit_state_from(new_plan));
}

TEST(StateCompatibilityTest, MatchingOperatorsFindsCommonSubplans) {
  LogicalPlan plan = join_plan(true);
  const auto matches = plan.matching_operators(plan);
  // Every operator matches itself.
  EXPECT_EQ(matches.size(), plan.num_operators());
}

TEST(FilterPushdownTest, FilterMovesBelowUnion) {
  const LogicalPlan plan = union_filter_plan();
  const LogicalPlan rewritten = QueryPlanner::push_down_filters(plan);
  EXPECT_EQ(rewritten.validate(), "");
  // Same operator count arithmetic: -1 filter, +2 per-branch filters.
  EXPECT_EQ(rewritten.num_operators(), plan.num_operators() + 1);
  // The union's inputs must now be filters.
  for (const auto& op : rewritten.operators()) {
    if (op.kind == OperatorKind::kUnion) {
      for (OperatorId u : rewritten.upstream(op.id)) {
        EXPECT_EQ(rewritten.op(u).kind, OperatorKind::kFilter);
      }
    }
  }
}

TEST(FilterPushdownTest, PushdownPreservesSinkRates) {
  const LogicalPlan plan = union_filter_plan();
  const LogicalPlan rewritten = QueryPlanner::push_down_filters(plan);
  const double out1 = plan.estimate_rates(source_rates(plan, 500.0))
                          [plan.sinks()[0]].input_eps;
  const double out2 = rewritten.estimate_rates(source_rates(rewritten, 500.0))
                          [rewritten.sinks()[0]].input_eps;
  EXPECT_NEAR(out1, out2, 1e-9);
}

TEST(FilterPushdownTest, NoUnionMeansNoChange) {
  const LogicalPlan plan = linear_plan();
  const LogicalPlan rewritten = QueryPlanner::push_down_filters(plan);
  EXPECT_EQ(rewritten.num_operators(), plan.num_operators());
}

TEST(JoinReorderTest, EnumeratesAllLeftDeepOrders) {
  const LogicalPlan plan = join_plan(false);
  const auto plans = QueryPlanner::reorder_joins(plan, 6);
  // 4 leaves -> 4!/2 = 12 left-deep orders; signature dedupe keeps
  // structurally distinct ones (left-deep: first pair unordered, rest
  // ordered -> 12 distinct signatures).
  EXPECT_EQ(plans.size(), 12u);
  std::set<std::string> signatures;
  for (const auto& p : plans) {
    EXPECT_EQ(p.validate(), "");
    signatures.insert(p.signature(p.sinks()[0]));
  }
  EXPECT_EQ(signatures.size(), plans.size());
}

TEST(JoinReorderTest, NoJoinReturnsOriginal) {
  const LogicalPlan plan = linear_plan();
  const auto plans = QueryPlanner::reorder_joins(plan, 6);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].num_operators(), plan.num_operators());
}

TEST(JoinReorderTest, WideChainsAreSkipped) {
  const LogicalPlan plan = join_plan(false);
  const auto plans = QueryPlanner::reorder_joins(plan, 2);
  EXPECT_EQ(plans.size(), 1u);
}

TEST(QueryPlannerTest, EnumerateIncludesOriginalFirst) {
  QueryPlanner planner;
  const LogicalPlan plan = join_plan(false);
  const auto plans = planner.enumerate(plan);
  ASSERT_GE(plans.size(), 2u);
  // First candidate is signature-identical to the input.
  EXPECT_EQ(plans[0].signature(plans[0].sinks()[0]),
            plan.signature(plan.sinks()[0]));
}

TEST(QueryPlannerTest, ReplansOfStatefulJoinKeepCommonSubplans) {
  QueryPlanner planner;
  // Stateful joins WITHOUT a window: state is unbounded, so only plans
  // matching every stateful sub-plan are admissible -- the original.
  LogicalPlan plan = join_plan(true);
  for (const auto& op : plan.operators()) {
    plan.mutable_op(op.id).window = WindowSpec{};  // unbounded state
  }
  const auto replans = planner.enumerate_replans(plan);
  for (const auto& rc : replans) {
    EXPECT_TRUE(rc.plan.can_inherit_state_from(plan));
    EXPECT_DOUBLE_EQ(rc.boundary_window_sec, 0.0);
  }
  ASSERT_EQ(replans.size(), 1u);
}

TEST(QueryPlannerTest, WindowedStatefulJoinsReplanAtBoundary) {
  QueryPlanner planner;
  // join_plan(true) gives joins 30-second windows: reorderings become
  // admissible again, but only at a window boundary.
  const LogicalPlan plan = join_plan(true);
  const auto replans = planner.enumerate_replans(plan);
  EXPECT_GT(replans.size(), 1u);
  for (const auto& rc : replans) {
    if (!rc.plan.can_inherit_state_from(plan)) {
      EXPECT_DOUBLE_EQ(rc.boundary_window_sec, 30.0);
    }
  }
}

TEST(QueryPlannerTest, StatelessJoinsReplanFreely) {
  QueryPlanner planner;
  const LogicalPlan plan = join_plan(false);
  const auto replans = planner.enumerate_replans(plan);
  // The bushy original plus all 12 left-deep reorderings.
  EXPECT_EQ(replans.size(), 13u);
  for (const auto& rc : replans) {
    EXPECT_DOUBLE_EQ(rc.boundary_window_sec, 0.0);
  }
}

TEST(AggregationPushdownTest, SplitsWindowAggOverUnion) {
  // sources -> union -> window-agg -> sink becomes per-branch partials.
  LogicalPlan plan;
  const OperatorId a = plan.add_operator(source("a"));
  const OperatorId b = plan.add_operator(source("b"));
  const OperatorId u = plan.add_operator(op_of("u", OperatorKind::kUnion));
  LogicalOperator w = op_of("agg", OperatorKind::kWindowAggregate, 0.01);
  w.window = WindowSpec{30.0};
  w.state = StateSpec::windowed(10.0, 0.05);
  const OperatorId wid = plan.add_operator(std::move(w));
  const OperatorId k = plan.add_operator(sink("out"));
  plan.connect(a, u);
  plan.connect(b, u);
  plan.connect(u, wid);
  plan.connect(wid, k);

  const auto pushed = QueryPlanner::push_down_aggregation(plan);
  ASSERT_TRUE(pushed.has_value());
  EXPECT_EQ(pushed->validate(), "");
  // 2 partials + merge replace the single aggregation: net +2 operators.
  EXPECT_EQ(pushed->num_operators(), plan.num_operators() + 2);

  // Rate semantics preserved: the sink sees the same output rate.
  const OperatorTable<double> r2 = source_rates(*pushed, 10'000.0);
  const double out1 = plan.estimate_rates(source_rates(plan, 10'000.0))
                          [plan.sinks()[0]].input_eps;
  const double out2 = pushed->estimate_rates(r2)[pushed->sinks()[0]].input_eps;
  EXPECT_NEAR(out1, out2, out1 * 0.01);

  // The union now carries aggregated traffic, far less than raw events.
  for (const auto& op : pushed->operators()) {
    if (op.kind == OperatorKind::kUnion) {
      EXPECT_LT(pushed->estimate_rates(r2)[op.id].input_eps, 2'000.0);
    }
  }
}

TEST(AggregationPushdownTest, NoUnionAggPairMeansNullopt) {
  EXPECT_FALSE(QueryPlanner::push_down_aggregation(linear_plan()).has_value());
  EXPECT_FALSE(
      QueryPlanner::push_down_aggregation(join_plan(false)).has_value());
}

TEST(QueryPlannerTest, EnumerationRespectsDisabledRewrites) {
  QueryPlanner::Options options;
  options.enable_join_reordering = false;
  QueryPlanner planner(options);
  EXPECT_EQ(planner.enumerate(join_plan(false)).size(), 1u);
}

}  // namespace
}  // namespace wasp::query
