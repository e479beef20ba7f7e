// The benchmark queries of paper Table 3, plus a 4-source join query used to
// exercise query re-planning (the Fig. 5 scenario).
//
// Notes on fidelity:
//  - The paper replaced the YSB's Redis/Kafka I/O with in-memory operations
//    (§8.3); the campaign lookup is therefore modeled as a map operator.
//  - Light per-event pre-processing (the leading filter) is pinned at the
//    source sites, mirroring Flink's operator chaining of source->filter
//    into one task slot; only post-filter traffic crosses the WAN.
//  - Per-slot processing capacities are set high enough that, at the
//    baseline workload, no operator is compute-bound with p = 1 -- matching
//    §8.4 where the induced bottlenecks are network-side.
#pragma once

#include <vector>

#include "common/ids.h"
#include "query/logical_plan.h"

namespace wasp::workload {

struct QuerySpec {
  query::LogicalPlan plan;
  std::vector<OperatorId> sources;  // in plan-id order
  bool stateful = false;
};

// YSB Advertising Campaign (stateful, <10 MB): per-source filter + map, a
// 10-second windowed aggregation keyed by campaign, sink.
[[nodiscard]] QuerySpec make_ysb_campaign(const std::vector<SiteId>& edge_sites,
                                          SiteId sink_site);

// Top-K Popular Topics (stateful, ~100 MB): two geo-partitioned tweet
// sources, per-source filter, map, union, a 30-second windowed aggregation
// per (country, topic), top-k reduce, sink.
[[nodiscard]] QuerySpec make_topk_topics(const std::vector<SiteId>& east_sites,
                                         const std::vector<SiteId>& west_sites,
                                         SiteId sink_site);

// Events of Interest (stateless): filter + union + project, sink.
[[nodiscard]] QuerySpec make_events_of_interest(
    const std::vector<SiteId>& edge_sites, SiteId sink_site);

// Gives every source of `query` a base rate of `eps` events/s at each of its
// pinned sites (any pattern with set_base_rate: stepped, random walk).
template <typename Pattern>
void set_base_rates(Pattern& pattern, const QuerySpec& query, double eps) {
  for (OperatorId source : query.sources) {
    for (SiteId site : query.plan.op(source).pinned_sites) {
      pattern.set_base_rate(source, site, eps);
    }
  }
}

// Four-source commutative hash-join query (Fig. 5): sources at four sites
// joined pairwise; the join order is what query re-planning re-optimizes.
// `stateful_joins` controls whether the joins carry state (restricting
// admissible re-plans to common sub-plans, §4.3).
[[nodiscard]] QuerySpec make_four_source_join(const std::vector<SiteId>& sites,
                                              SiteId sink_site,
                                              bool stateful_joins);

}  // namespace wasp::workload
