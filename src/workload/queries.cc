#include "workload/queries.h"

#include <cassert>

#include "common/log.h"

namespace wasp::workload {
namespace {

using query::LogicalOperator;
using query::LogicalPlan;
using query::OperatorKind;
using query::StateSpec;
using query::WindowSpec;

// Per-slot capacities: pre-processing operators are cheap; aggregations do
// more work per event. Chosen so no operator is compute-bound at the
// baseline workloads with p = 1 (§8.4 induces *network* bottlenecks), while
// keeping buffer bounds -- which scale with capacity -- to a few seconds of
// the actual stream rates.
constexpr double kLightOpEps = 100'000.0;
constexpr double kAggOpEps = 150'000.0;

LogicalOperator source_op(const char* name, const std::vector<SiteId>& sites,
                          double event_bytes) {
  LogicalOperator op;
  op.name = name;
  op.kind = OperatorKind::kSource;
  op.selectivity = 1.0;
  op.output_event_bytes = event_bytes;
  op.events_per_sec_per_slot = kLightOpEps;
  op.pinned_sites = sites;
  // Sources chain into their co-located pre-filters (Flink operator
  // chaining): raw events never cross the WAN.
  op.output_partitioning = query::Partitioning::kForward;
  return op;
}

LogicalOperator simple_op(const char* name, OperatorKind kind,
                          double selectivity, double event_bytes,
                          const std::vector<SiteId>& pinned = {}) {
  LogicalOperator op;
  op.name = name;
  op.kind = kind;
  op.selectivity = selectivity;
  op.output_event_bytes = event_bytes;
  op.events_per_sec_per_slot = kLightOpEps;
  op.pinned_sites = pinned;
  return op;
}

LogicalOperator sink_op(const char* name, SiteId site) {
  LogicalOperator op;
  op.name = name;
  op.kind = OperatorKind::kSink;
  op.selectivity = 1.0;
  op.output_event_bytes = 64.0;
  op.events_per_sec_per_slot = kLightOpEps;
  op.pinned_sites = {site};
  return op;
}

}  // namespace

QuerySpec make_ysb_campaign(const std::vector<SiteId>& edge_sites,
                            SiteId sink_site) {
  check(!edge_sites.empty(), "ysb campaign: needs a source site");
  QuerySpec spec;
  LogicalPlan& plan = spec.plan;

  // Ad events are ~100 B; only "view" events (1 in 3) survive the filter
  // (the YSB filters by event_type).
  const OperatorId src = plan.add_operator(source_op("ad-events", edge_sites, 100.0));
  // Chained at the sources: filter + projection to (ad_id, event_time).
  LogicalOperator filter =
      simple_op("view-filter", OperatorKind::kFilter, 1.0 / 3.0, 60.0,
                edge_sites);
  const OperatorId f = plan.add_operator(std::move(filter));
  // Campaign lookup (in-memory join against the static campaign table,
  // modeled as a map, per §8.3's I/O replacement).
  const OperatorId m = plan.add_operator(
      simple_op("campaign-map", OperatorKind::kMap, 1.0, 72.0));
  // 10-second tumbling window count per campaign; 100 campaigns -> ~10
  // output events/s. Selectivity expressed against the input rate at the
  // baseline (26.4k ev/s into the window): ~0.0004.
  LogicalOperator window;
  window.name = "campaign-window";
  window.kind = OperatorKind::kWindowAggregate;
  window.selectivity = 0.0004;
  window.output_event_bytes = 96.0;
  window.events_per_sec_per_slot = kAggOpEps;
  window.window = WindowSpec{10.0};
  window.state = StateSpec::windowed(/*base_mb=*/1.0, /*mb_per_kevent=*/0.03);
  const OperatorId w = plan.add_operator(std::move(window));
  const OperatorId snk = plan.add_operator(sink_op("campaign-sink", sink_site));

  plan.connect(src, f);
  plan.connect(f, m);
  plan.connect(m, w);
  plan.connect(w, snk);

  spec.sources = {src};
  spec.stateful = true;
  assert(plan.validate().empty());
  return spec;
}

QuerySpec make_topk_topics(const std::vector<SiteId>& east_sites,
                           const std::vector<SiteId>& west_sites,
                           SiteId sink_site) {
  check(!east_sites.empty() && !west_sites.empty(), "topk: no east/west site");
  QuerySpec spec;
  LogicalPlan& plan = spec.plan;

  // Geo-tagged tweets, ~200 B each, partitioned into two regional streams.
  const OperatorId east =
      plan.add_operator(source_op("tweets-east", east_sites, 200.0));
  const OperatorId west =
      plan.add_operator(source_op("tweets-west", west_sites, 200.0));
  // Chained filters: keep tweets with usable language/geo tags (~60%).
  const OperatorId fe = plan.add_operator(
      simple_op("tag-filter-east", OperatorKind::kFilter, 0.6, 120.0,
                east_sites));
  const OperatorId fw = plan.add_operator(
      simple_op("tag-filter-west", OperatorKind::kFilter, 0.6, 120.0,
                west_sites));
  // Topic extraction (map to (country, topic) pairs).
  const OperatorId me = plan.add_operator(
      simple_op("topic-map-east", OperatorKind::kMap, 1.0, 64.0));
  const OperatorId mw = plan.add_operator(
      simple_op("topic-map-west", OperatorKind::kMap, 1.0, 64.0));
  const OperatorId u = plan.add_operator(
      simple_op("topic-union", OperatorKind::kUnion, 1.0, 64.0));
  // 30-second window aggregation per (country, topic); large state (~100 MB
  // at the baseline, Table 3: topic counters dominate).
  LogicalOperator window;
  window.name = "topic-window";
  window.kind = OperatorKind::kWindowAggregate;
  window.selectivity = 0.01;
  window.output_event_bytes = 80.0;
  window.events_per_sec_per_slot = kAggOpEps;
  window.window = WindowSpec{30.0};
  window.state = StateSpec::windowed(/*base_mb=*/10.0, /*mb_per_kevent=*/0.06);
  const OperatorId w = plan.add_operator(std::move(window));
  // Top-10 per country; small output.
  LogicalOperator topk;
  topk.name = "topk-reduce";
  topk.kind = OperatorKind::kTopK;
  topk.selectivity = 0.25;
  topk.output_event_bytes = 80.0;
  topk.events_per_sec_per_slot = kAggOpEps;
  topk.state = StateSpec::windowed(/*base_mb=*/0.5, /*mb_per_kevent=*/0.001);
  const OperatorId k = plan.add_operator(std::move(topk));
  const OperatorId snk = plan.add_operator(sink_op("topk-sink", sink_site));

  plan.connect(east, fe);
  plan.connect(west, fw);
  plan.connect(fe, me);
  plan.connect(fw, mw);
  plan.connect(me, u);
  plan.connect(mw, u);
  plan.connect(u, w);
  plan.connect(w, k);
  plan.connect(k, snk);

  spec.sources = {east, west};
  spec.stateful = true;
  assert(plan.validate().empty());
  return spec;
}

QuerySpec make_events_of_interest(const std::vector<SiteId>& edge_sites,
                                  SiteId sink_site) {
  check(edge_sites.size() >= 2, "events of interest: needs 2 sites");
  QuerySpec spec;
  LogicalPlan& plan = spec.plan;

  // Split the edges into two regional streams feeding a union (per Table 3:
  // filter, union, project; no state anywhere).
  const std::size_t half = edge_sites.size() / 2;
  const std::vector<SiteId> a(edge_sites.begin(), edge_sites.begin() + half);
  const std::vector<SiteId> b(edge_sites.begin() + half, edge_sites.end());

  const OperatorId sa = plan.add_operator(source_op("tweets-a", a, 200.0));
  const OperatorId sb = plan.add_operator(source_op("tweets-b", b, 200.0));
  const OperatorId fa = plan.add_operator(
      simple_op("interest-filter-a", OperatorKind::kFilter, 0.2, 160.0, a));
  const OperatorId fb = plan.add_operator(
      simple_op("interest-filter-b", OperatorKind::kFilter, 0.2, 160.0, b));
  const OperatorId u = plan.add_operator(
      simple_op("interest-union", OperatorKind::kUnion, 1.0, 160.0));
  const OperatorId p = plan.add_operator(
      simple_op("interest-project", OperatorKind::kProject, 1.0, 96.0));
  const OperatorId snk =
      plan.add_operator(sink_op("interest-sink", sink_site));

  plan.connect(sa, fa);
  plan.connect(sb, fb);
  plan.connect(fa, u);
  plan.connect(fb, u);
  plan.connect(u, p);
  plan.connect(p, snk);

  spec.sources = {sa, sb};
  spec.stateful = false;
  assert(plan.validate().empty());
  return spec;
}

QuerySpec make_four_source_join(const std::vector<SiteId>& sites,
                                SiteId sink_site, bool stateful_joins) {
  check(sites.size() >= 4, "four-source join: needs 4 sites");
  QuerySpec spec;
  LogicalPlan& plan = spec.plan;

  const char* names[] = {"stream-a", "stream-b", "stream-c", "stream-d"};
  std::vector<OperatorId> srcs;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(plan.add_operator(
        source_op(names[i], {sites[static_cast<std::size_t>(i)]}, 128.0)));
  }

  auto join_op = [&](const char* name) {
    LogicalOperator op;
    op.name = name;
    op.kind = OperatorKind::kJoin;
    op.selectivity = 0.35;  // matched pairs per combined input event
    op.output_event_bytes = 160.0;
    op.events_per_sec_per_slot = kAggOpEps;
    if (stateful_joins) {
      op.window = WindowSpec{30.0};
      op.state = StateSpec::windowed(/*base_mb=*/5.0, /*mb_per_kevent=*/0.05);
    }
    return op;
  };
  const OperatorId j_cd = plan.add_operator(join_op("join-cd"));
  const OperatorId j_ab = plan.add_operator(join_op("join-ab"));
  const OperatorId j_top = plan.add_operator(join_op("join-top"));
  const OperatorId snk = plan.add_operator(sink_op("join-sink", sink_site));

  plan.connect(srcs[2], j_cd);
  plan.connect(srcs[3], j_cd);
  plan.connect(srcs[0], j_ab);
  plan.connect(srcs[1], j_ab);
  plan.connect(j_ab, j_top);
  plan.connect(j_cd, j_top);
  plan.connect(j_top, snk);

  spec.sources = srcs;
  spec.stateful = stateful_joins;
  assert(plan.validate().empty());
  return spec;
}

}  // namespace wasp::workload
