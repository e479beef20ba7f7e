// Integration tests for the multi-query Cluster: shared slot accounting,
// shared bandwidth, and isolation of adaptation decisions between tenants.
#include "runtime/cluster.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {
namespace {

struct Bed {
  Bed()
      : rng(7),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology, std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
        edges.push_back(site.id);
      } else {
        dcs.push_back(site.id);
        if (!sink.valid()) sink = site.id;
      }
    }
  }

  workload::SteppedWorkload rates(const workload::QuerySpec& spec,
                                  double eps) const {
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, eps);
      }
    }
    return pattern;
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west, edges, dcs;
  SiteId sink;
};

TEST(ClusterTest, TwoQueriesShareSlotsWithoutDoubleBooking) {
  Bed bed;
  Cluster cluster(bed.network);
  auto topk = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  auto interest = workload::make_events_of_interest(bed.edges, bed.sink);
  auto p1 = bed.rates(topk, 8'000.0);
  auto p2 = bed.rates(interest, 8'000.0);
  cluster.reserve_pinned(topk);
  cluster.reserve_pinned(interest);
  cluster.submit(std::move(topk), p1, SystemConfig{});
  cluster.submit(std::move(interest), p2, SystemConfig{});

  cluster.run_until(300.0);

  // Slot capacity is never exceeded at any site.
  const auto used = cluster.slots_in_use();
  for (std::size_t s = 0; s < used.size(); ++s) {
    EXPECT_LE(used[s], bed.topology.sites()[s].slots) << "site " << s;
  }
  // Both queries run healthy.
  for (std::size_t q = 0; q < cluster.num_queries(); ++q) {
    EXPECT_NEAR(cluster.query(q).recorder().ratio().mean_over(200.0, 300.0),
                1.0, 0.05)
        << "query " << q;
  }
}

TEST(ClusterTest, SlotCapIsRespectedThroughAdaptations) {
  Bed bed;
  Cluster cluster(bed.network);
  auto a = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  auto b = workload::make_ysb_campaign(bed.edges, bed.sink);
  auto p1 = bed.rates(a, 10'000.0);
  p1.add_step(100.0, 2.5);  // query A surges: it must scale within budget
  auto p2 = bed.rates(b, 10'000.0);
  SystemConfig cfg;
  cfg.mode = AdaptationMode::kWasp;
  cluster.reserve_pinned(a);
  cluster.reserve_pinned(b);
  cluster.submit(std::move(a), p1, cfg);
  cluster.submit(std::move(b), p2, cfg);

  for (int i = 0; i < 600; ++i) {
    cluster.step();
    const auto used = cluster.slots_in_use();
    for (std::size_t s = 0; s < used.size(); ++s) {
      ASSERT_LE(used[s], bed.topology.sites()[s].slots)
          << "site " << s << " over-booked at t=" << cluster.now();
    }
  }
}

TEST(ClusterTest, TenantsShareBandwidthFairly) {
  // Two copies of the stateless query over the same links: both must reach
  // a healthy steady state (fair sharing), not one starving the other.
  Bed bed;
  Cluster cluster(bed.network);
  auto a = workload::make_events_of_interest(bed.edges, bed.sink);
  auto b = workload::make_events_of_interest(bed.edges, bed.sink);
  auto p1 = bed.rates(a, 8'000.0);
  auto p2 = bed.rates(b, 8'000.0);
  SystemConfig cfg;
  cfg.mode = AdaptationMode::kWasp;
  cfg.seed = 1;
  cluster.submit(std::move(a), p1, cfg);
  cfg.seed = 2;
  cluster.submit(std::move(b), p2, cfg);
  cluster.run_until(400.0);
  for (std::size_t q = 0; q < 2; ++q) {
    EXPECT_GT(cluster.query(q).recorder().ratio().mean_over(300.0, 400.0),
              0.9)
        << "query " << q;
  }
}

TEST(ClusterTest, SecondQueryDeploysAroundTheFirst) {
  Bed bed;
  Cluster cluster(bed.network);
  auto a = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  auto pa = bed.rates(a, 10'000.0);
  auto b = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  cluster.reserve_pinned(a);
  cluster.reserve_pinned(b);
  WaspSystem& first = cluster.submit(std::move(a), pa, SystemConfig{});
  const auto used_by_first = first.engine().slots_in_use();

  auto pb = bed.rates(b, 10'000.0);
  WaspSystem& second = cluster.submit(std::move(b), pb, SystemConfig{});

  // The second deployment must fit alongside the first.
  const auto used_by_second = second.engine().slots_in_use();
  for (std::size_t s = 0; s < used_by_first.size(); ++s) {
    EXPECT_LE(used_by_first[s] + used_by_second[s],
              bed.topology.sites()[s].slots)
        << "site " << s;
  }
}

TEST(ClusterTest, StepsAdvanceAllQueriesInLockstep) {
  Bed bed;
  Cluster cluster(bed.network);
  auto a = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pa = bed.rates(a, 5'000.0);
  cluster.submit(std::move(a), pa, SystemConfig{});
  auto b = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pb = bed.rates(b, 5'000.0);
  cluster.submit(std::move(b), pb, SystemConfig{});
  cluster.run_until(50.0);
  EXPECT_DOUBLE_EQ(cluster.now(), 50.0);
  EXPECT_DOUBLE_EQ(cluster.query(0).now(), 50.0);
  EXPECT_DOUBLE_EQ(cluster.query(1).now(), 50.0);
}

TEST(ClusterTest, SubmitAfterTheFirstStepThrows) {
  Bed bed;
  Cluster cluster(bed.network);
  auto a = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pa = bed.rates(a, 5'000.0);
  cluster.submit(std::move(a), pa, SystemConfig{});  // before any step: fine
  EXPECT_EQ(cluster.num_queries(), 1u);
  cluster.run_until(50.0);

  auto b = workload::make_events_of_interest(bed.edges, bed.sink);
  auto pb = bed.rates(b, 5'000.0);
  EXPECT_THROW(cluster.submit(std::move(b), pb, SystemConfig{}),
               std::logic_error);
  EXPECT_EQ(cluster.num_queries(), 1u);
}

}  // namespace
}  // namespace wasp::runtime
