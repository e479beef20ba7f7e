// Unit and property tests for the WAN substrate: topology, bandwidth models,
// flow allocation (max-min fairness), bulk transfers, and the WAN monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "exec/thread_pool.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "net/trace_io.h"
#include "net/wan_monitor.h"
#include "obs/trace.h"

namespace wasp::net {
namespace {

Network make_net(int n, int slots, double bw, double lat,
                 std::shared_ptr<const BandwidthModel> model = nullptr) {
  if (model == nullptr) model = std::make_shared<ConstantBandwidth>();
  return Network(Topology::make_uniform(n, slots, bw, lat), std::move(model));
}

TEST(TopologyTest, UniformCliqueProperties) {
  Topology topo = Topology::make_uniform(4, 2, 100.0, 50.0);
  EXPECT_EQ(topo.num_sites(), 4u);
  EXPECT_EQ(topo.total_slots(), 8);
  EXPECT_DOUBLE_EQ(topo.base_bandwidth(SiteId(0), SiteId(1)), 100.0);
  EXPECT_DOUBLE_EQ(topo.latency_ms(SiteId(2), SiteId(3)), 50.0);
}

TEST(TopologyTest, LocalLinksAreUnconstrained) {
  Topology topo = Topology::make_uniform(2, 1, 10.0, 100.0);
  EXPECT_GE(topo.base_bandwidth(SiteId(0), SiteId(0)), 1e5);
  EXPECT_LT(topo.latency_ms(SiteId(1), SiteId(1)), 1.0);
}

TEST(TopologyTest, PaperTestbedShape) {
  Rng rng(1);
  Topology topo = Topology::make_paper_testbed(rng);
  ASSERT_EQ(topo.num_sites(), 16u);
  int edges = 0, dcs = 0;
  for (const auto& site : topo.sites()) {
    if (site.type == SiteType::kEdge) {
      ++edges;
      EXPECT_GE(site.slots, 2);
      EXPECT_LE(site.slots, 4);
    } else {
      ++dcs;
      EXPECT_EQ(site.slots, 8);
    }
  }
  EXPECT_EQ(edges, 8);
  EXPECT_EQ(dcs, 8);
}

TEST(TopologyTest, PaperTestbedBandwidthRanges) {
  Rng rng(2);
  Topology topo = Topology::make_paper_testbed(rng);
  for (const auto& a : topo.sites()) {
    for (const auto& b : topo.sites()) {
      if (a.id == b.id) continue;
      const double bw = topo.base_bandwidth(a.id, b.id);
      if (a.type == SiteType::kDataCenter && b.type == SiteType::kDataCenter) {
        EXPECT_GE(bw, 25.0);
        EXPECT_LE(bw, 250.0);
      } else {
        // Any link touching an edge rides the public Internet (Fig. 7a
        // calibration).
        EXPECT_GE(bw, 5.0);
        EXPECT_LE(bw, 60.0);
      }
      EXPECT_GT(topo.latency_ms(a.id, b.id), 0.0);
    }
  }
}

TEST(TopologyTest, PaperTestbedIsDeterministicPerSeed) {
  Rng a(3), b(3), c(4);
  Topology ta = Topology::make_paper_testbed(a);
  Topology tb = Topology::make_paper_testbed(b);
  Topology tc = Topology::make_paper_testbed(c);
  EXPECT_DOUBLE_EQ(ta.base_bandwidth(SiteId(0), SiteId(5)),
                   tb.base_bandwidth(SiteId(0), SiteId(5)));
  EXPECT_NE(ta.base_bandwidth(SiteId(0), SiteId(5)),
            tc.base_bandwidth(SiteId(0), SiteId(5)));
}

TEST(BandwidthModelTest, SteppedScheduleApplies) {
  SteppedBandwidth model({{900.0, 0.5}, {1200.0, 1.0}});
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 899.9), 1.0);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 900.0), 0.5);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 1199.0), 0.5);
  EXPECT_DOUBLE_EQ(model.factor(SiteId(0), SiteId(1), 1500.0), 1.0);
}

TEST(BandwidthModelTest, RandomWalkStaysInRange) {
  Rng rng(5);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 3600.0;
  cfg.min_factor = 0.51;
  cfg.max_factor = 2.36;
  RandomWalkBandwidth model(4, cfg, rng);
  for (double t = 0.0; t < 3600.0; t += 60.0) {
    const double f = model.factor(SiteId(0), SiteId(1), t);
    EXPECT_GE(f, 0.51);
    EXPECT_LE(f, 2.36);
  }
}

TEST(BandwidthModelTest, RandomWalkVariesOverTime) {
  Rng rng(6);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 86400.0;
  cfg.period_sec = 1800.0;
  cfg.min_factor = 0.25;
  cfg.max_factor = 1.6;
  RandomWalkBandwidth model(2, cfg, rng);
  const auto& series = model.link_series(SiteId(0), SiteId(1));
  RunningStats stats;
  for (double f : series) stats.add(f);
  // Fig. 2: substantial deviation from the mean.
  EXPECT_GT(stats.stddev() / stats.mean(), 0.1);
}

TEST(BandwidthModelTest, ComposedMultiplies) {
  auto steps = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{10.0, 0.5}});
  auto constant = std::make_shared<ConstantBandwidth>();
  ComposedBandwidth composed(steps, constant);
  EXPECT_DOUBLE_EQ(composed.factor(SiteId(0), SiteId(1), 20.0), 0.5);
}

TEST(NetworkTest, CapacityAppliesModelFactor) {
  auto model = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{100.0, 0.5}});
  Network net = make_net(2, 1, 80.0, 10.0, model);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 0.0), 80.0);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 150.0), 40.0);
}

TEST(NetworkTest, SingleStreamFlowGetsItsDemand) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 30.0);
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 30.0);
}

TEST(NetworkTest, StreamFlowCappedAtCapacity) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 200.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(f).allocated_mbps, 80.0, 1e-9);
}

TEST(NetworkTest, MaxMinFairnessSatisfiesSmallFlowsFirst) {
  Network net = make_net(2, 1, 90.0, 10.0);
  const FlowId small = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId big1 = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId big2 = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(small, 10.0);
  net.set_stream_demand(big1, 100.0);
  net.set_stream_demand(big2, 100.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(small).allocated_mbps, 10.0, 1e-9);
  EXPECT_NEAR(net.flow(big1).allocated_mbps, 40.0, 1e-9);
  EXPECT_NEAR(net.flow(big2).allocated_mbps, 40.0, 1e-9);
}

TEST(NetworkTest, FlowsOnDifferentLinksDoNotInteract) {
  Network net = make_net(3, 1, 50.0, 10.0);
  const FlowId a = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId b = net.add_stream_flow(SiteId(0), SiteId(2));
  net.set_stream_demand(a, 50.0);
  net.set_stream_demand(b, 50.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(a).allocated_mbps, 50.0, 1e-9);
  EXPECT_NEAR(net.flow(b).allocated_mbps, 50.0, 1e-9);
}

TEST(NetworkTest, LocalFlowsBypassLinkCapacity) {
  Network net = make_net(2, 1, 10.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(0));
  net.set_stream_demand(f, 500.0);
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 500.0);
}

TEST(NetworkTest, BulkTransferCompletesAtLinkRate) {
  Network net = make_net(2, 1, 80.0, 10.0);  // 80 Mbps = 10 MB/s
  const FlowId f = net.add_bulk_flow(SiteId(0), SiteId(1), 100.0);
  double t = 0.0;
  int ticks = 0;
  while (!net.flow(f).done && ticks < 100) {
    net.step(t, 1.0);
    t += 1.0;
    ++ticks;
  }
  EXPECT_EQ(ticks, 10);  // 100 MB at 10 MB/s
}

TEST(NetworkTest, BulkTransferCompetesWithStreams) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId stream = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId bulk = net.add_bulk_flow(SiteId(0), SiteId(1), 100.0);
  net.set_stream_demand(stream, 30.0);
  net.step(0.0, 1.0);
  // Stream (bounded demand 30) satisfied; bulk takes the remaining 50.
  EXPECT_NEAR(net.flow(stream).allocated_mbps, 30.0, 1e-9);
  EXPECT_NEAR(net.flow(bulk).allocated_mbps, 50.0, 1e-9);
}

TEST(NetworkTest, TwoBulkFlowsShareEvenly) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId a = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  const FlowId b = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.step(0.0, 1.0);
  EXPECT_NEAR(net.flow(a).allocated_mbps, 40.0, 1e-9);
  EXPECT_NEAR(net.flow(b).allocated_mbps, 40.0, 1e-9);
}

TEST(NetworkTest, CompletedBulkFlowFreesCapacity) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId bulk = net.add_bulk_flow(SiteId(0), SiteId(1), 5.0);  // ~0.5 s
  const FlowId stream = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(stream, 80.0);
  net.step(0.0, 1.0);
  EXPECT_TRUE(net.flow(bulk).done);
  net.step(1.0, 1.0);
  EXPECT_NEAR(net.flow(stream).allocated_mbps, 80.0, 1e-9);
}

TEST(NetworkTest, PartitionedLinkZeroesCapacityAndStallsFlows) {
  Network net = make_net(3, 1, 80.0, 10.0);
  const FlowId f = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.step(0.0, 1.0);
  EXPECT_GT(net.flow(f).allocated_mbps, 0.0);

  net.set_link_partitioned(SiteId(0), SiteId(1), true);
  EXPECT_TRUE(net.link_partitioned(SiteId(0), SiteId(1)));
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 1.0), 0.0);
  // Partitions are directed: the reverse direction and unrelated links
  // keep their capacity (this is what distinguishes a partition from a
  // whole-site crash).
  EXPECT_GT(net.capacity(SiteId(1), SiteId(0), 1.0), 0.0);
  EXPECT_GT(net.capacity(SiteId(0), SiteId(2), 1.0), 0.0);

  net.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(f).allocated_mbps, 0.0);
  EXPECT_FALSE(net.flow(f).done);

  net.set_link_partitioned(SiteId(0), SiteId(1), false);
  net.step(2.0, 1.0);
  EXPECT_GT(net.flow(f).allocated_mbps, 0.0);
}

TEST(NetworkTest, SiteDownStallsEveryFlowTouchingIt) {
  Network net = make_net(3, 1, 80.0, 10.0);
  const FlowId in = net.add_stream_flow(SiteId(0), SiteId(1));
  const FlowId out = net.add_stream_flow(SiteId(1), SiteId(2));
  const FlowId local = net.add_stream_flow(SiteId(1), SiteId(1));
  const FlowId other = net.add_stream_flow(SiteId(0), SiteId(2));
  for (FlowId f : {in, out, local, other}) net.set_stream_demand(f, 10.0);

  net.set_site_down(SiteId(1), true);
  EXPECT_TRUE(net.site_down(SiteId(1)));
  net.step(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.flow(in).allocated_mbps, 0.0);
  EXPECT_DOUBLE_EQ(net.flow(out).allocated_mbps, 0.0);
  EXPECT_DOUBLE_EQ(net.flow(local).allocated_mbps, 0.0);
  EXPECT_NEAR(net.flow(other).allocated_mbps, 10.0, 1e-9);

  net.set_site_down(SiteId(1), false);
  net.step(1.0, 1.0);
  EXPECT_NEAR(net.flow(in).allocated_mbps, 10.0, 1e-9);
}

TEST(NetworkTest, NumBulkFlowsTracksOutstandingTransfers) {
  Network net = make_net(2, 1, 80.0, 10.0);
  EXPECT_EQ(net.num_bulk_flows(), 0u);
  const FlowId a = net.add_bulk_flow(SiteId(0), SiteId(1), 1000.0);
  net.add_stream_flow(SiteId(0), SiteId(1));  // streams never count
  EXPECT_EQ(net.num_bulk_flows(), 1u);
  net.remove_flow(a);
  EXPECT_EQ(net.num_bulk_flows(), 0u);
}

TEST(NetworkTest, RemoveFlowStopsAccounting) {
  Network net = make_net(2, 1, 80.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 10.0);
  net.step(0.0, 1.0);
  EXPECT_GT(net.link_allocated(SiteId(0), SiteId(1)), 0.0);
  net.remove_flow(f);
  EXPECT_FALSE(net.has_flow(f));
  net.step(1.0, 1.0);
  EXPECT_DOUBLE_EQ(net.link_allocated(SiteId(0), SiteId(1)), 0.0);
}

// The record is read between steps (runtime::Cluster, WanMonitor::probe_now):
// it must give what a sum taken at read time gives. A removed flow drops out
// at once, a new flow adds its 0, and a partition shows at the next step.
TEST(NetworkTest, LinkRecordIsExactBetweenSteps) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Network net = make_net(2, 1, 80.0, 10.0);
  const SiteId a(0), b(1);
  const FlowId small = net.add_stream_flow(a, b);
  const FlowId big = net.add_stream_flow(a, b);
  net.set_stream_demand(small, 30.0);
  net.set_stream_demand(big, 70.0);
  net.step(1.0, 1.0);
  ASSERT_EQ(net.flow(small).allocated_mbps, 30.0);
  ASSERT_EQ(net.flow(big).allocated_mbps, 50.0);
  ASSERT_EQ(net.link_allocated(a, b), 80.0);

  net.remove_flow(small);
  EXPECT_EQ(bits(net.link_allocated(a, b)),
            bits(net.flow(big).allocated_mbps));

  const FlowId added = net.add_stream_flow(a, b);
  net.set_stream_demand(added, 5.0);
  EXPECT_EQ(bits(net.link_allocated(a, b)),
            bits(net.flow(big).allocated_mbps));

  net.set_link_partitioned(a, b, true);
  EXPECT_EQ(bits(net.link_allocated(a, b)),
            bits(net.flow(big).allocated_mbps));
  net.sync_links();
  EXPECT_EQ(net.link(a, b).capacity_mbps, 80.0);
  net.step(2.0, 1.0);
  EXPECT_EQ(bits(net.link_allocated(a, b)), bits(0.0));
  EXPECT_EQ(bits(net.link(a, b).capacity_mbps), bits(0.0));
}

// The flow store under churn: slots freed by removals are reused by later
// adds out of id order, while ids keep increasing and every live flow keeps
// its fields.
TEST(NetworkTest, FlowStoreChurnKeepsIdsAndFlows) {
  struct Expected {
    FlowId id;
    SiteId from;
    SiteId to;
    FlowKind kind;
    double remaining_mb;
  };
  Network net = make_net(4, 1, 100.0, 10.0);
  Rng rng(17);
  std::vector<Expected> live;
  std::vector<FlowId> removed;
  FlowId last;
  const auto check_all = [&] {
    ASSERT_EQ(net.num_flows(), live.size());
    EXPECT_FALSE(net.has_flow(FlowId()));
    for (const FlowId id : removed) EXPECT_FALSE(net.has_flow(id)) << id;
    for (const Expected& e : live) {
      ASSERT_TRUE(net.has_flow(e.id)) << e.id;
      const Flow& f = net.flow(e.id);
      EXPECT_EQ(f.id, e.id);
      EXPECT_EQ(f.from, e.from);
      EXPECT_EQ(f.to, e.to);
      EXPECT_EQ(f.kind, e.kind);
      EXPECT_EQ(f.remaining_mb, e.remaining_mb);
    }
  };
  const auto add = [&](SiteId from, SiteId to, bool bulk, double size_mb) {
    const FlowId id = bulk ? net.add_bulk_flow(from, to, size_mb)
                           : net.add_stream_flow(from, to);
    EXPECT_GT(id, last);
    last = id;
    live.push_back({id, from, to, bulk ? FlowKind::kBulk : FlowKind::kStream,
                    bulk ? size_mb : 0.0});
  };
  const auto add_random = [&] {
    const SiteId from(rng.uniform_int(0, 3));
    const SiteId to(rng.uniform_int(0, 3));
    add(from, to, rng.uniform() < 0.5, rng.uniform(1.0, 500.0));
  };
  const auto remove_random = [&] {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    net.remove_flow(live[i].id);
    removed.push_back(live[i].id);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
  };

  for (int i = 0; i < 60; ++i) add_random();
  for (int round = 0; round < 20; ++round) {
    // Removing in random order puts the free slots out of id order; the
    // adds that follow reuse them.
    for (int k = 0; k < 7; ++k) remove_random();
    for (int k = 0; k < 5; ++k) add_random();
    check_all();
  }

  // A second removal of the same id is a no-op, also for the slot it freed:
  // the two adds that follow must land in distinct slots.
  remove_random();
  net.remove_flow(removed.back());
  net.remove_flow(FlowId());
  net.remove_flow(FlowId(last.value() + 1));  // never issued
  check_all();
  add(SiteId(0), SiteId(1), /*bulk=*/true, 111.0);
  add(SiteId(2), SiteId(3), /*bulk=*/false, 0.0);
  check_all();
}

// The engine caches `const Flow*` per channel: a pointer to a live flow must
// survive any amount of adding and removing of other flows (ASan catches a
// store that moves its flows).
TEST(NetworkTest, FlowPointerSurvivesChurnOfOtherFlows) {
  Network net = make_net(3, 1, 100.0, 10.0);
  const FlowId kept = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(kept, 12.5);
  const Flow* p = &net.flow(kept);
  std::vector<FlowId> others;
  Rng rng(5);
  for (int op = 0; op < 10000; ++op) {
    if (others.empty() || rng.uniform() < 0.6) {
      others.push_back(net.add_bulk_flow(SiteId(1), SiteId(2), 10.0));
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(others.size()) - 1));
      net.remove_flow(others[i]);
      others[i] = others.back();
      others.pop_back();
    }
  }
  ASSERT_GT(others.size(), 1000u);  // the store grew well past its start
  EXPECT_EQ(p, &net.flow(kept));
  EXPECT_EQ(p->id, kept);
  EXPECT_EQ(p->from, SiteId(0));
  EXPECT_EQ(p->to, SiteId(1));
  EXPECT_EQ(p->kind, FlowKind::kStream);
  EXPECT_EQ(p->demand_mbps, 12.5);
  net.step(0.0, 1.0);
  EXPECT_EQ(p->allocated_mbps, 12.5);
}

// One flow of the order test's scenario.
struct FlowSpec {
  SiteId from;
  SiteId to;
  bool bulk = false;
  double amount = 0.0;  // stream demand (Mbps) or bulk size (MB)
};

FlowId add_spec(Network& net, const FlowSpec& spec) {
  if (spec.bulk) return net.add_bulk_flow(spec.from, spec.to, spec.amount);
  const FlowId id = net.add_stream_flow(spec.from, spec.to);
  net.set_stream_demand(id, spec.amount);
  return id;
}

FlowSpec random_spec(Rng& rng, int sites) {
  FlowSpec spec;
  spec.from = SiteId(rng.uniform_int(0, sites - 1));
  spec.to = SiteId(rng.uniform_int(0, sites - 1));
  spec.bulk = rng.uniform() < 0.25;
  spec.amount = spec.bulk ? rng.uniform(5.0, 60.0) : rng.uniform(1.0, 60.0);
  return spec;
}

// Builds the scenario's surviving flows in order. With `churn`, five
// throwaway flows are added before each survivor and three random earlier
// throwaways are removed just before it, so the survivor (and the next
// throwaways) reuse freed slots out of id order; the remaining throwaways
// are removed once the survivors exist. Ids and the flow store's slot
// layout differ from the churn-free build; the survivors' relative id order
// does not.
std::vector<FlowId> build_scenario(Network& net,
                                   const std::vector<FlowSpec>& specs,
                                   bool churn, int sites) {
  Rng rng(99);
  std::vector<FlowId> survivors, throwaways;
  for (const FlowSpec& spec : specs) {
    for (int k = 0; churn && k < 5; ++k) {
      throwaways.push_back(add_spec(net, random_spec(rng, sites)));
    }
    for (int k = 0; churn && k < 3; ++k) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(throwaways.size()) - 1));
      net.remove_flow(throwaways[i]);
      throwaways[i] = throwaways.back();
      throwaways.pop_back();
    }
    survivors.push_back(add_spec(net, spec));
  }
  for (const FlowId id : throwaways) net.remove_flow(id);
  return survivors;
}

TEST(NetworkTest, TracedStepFollowsLinkAndIdOrder) {
  constexpr int kSites = 6;  // 36 links: more than one parallel fill chunk
  Rng rng(2026);
  // Random links, so created out of link order; about six flows a link, so
  // a fill or sum that walks a link's flows out of id order moves result
  // bits.
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 200; ++i) specs.push_back(random_spec(rng, kSites));

  struct Run {
    Network net = make_net(kSites, 1, 100.0, 10.0);
    std::shared_ptr<obs::MemorySink> sink = std::make_shared<obs::MemorySink>();
    obs::TraceEmitter trace{sink};
    std::vector<FlowId> ids;
  };
  exec::ThreadPool pool(4);
  Run churned, clean, pooled;
  churned.ids = build_scenario(churned.net, specs, /*churn=*/true, kSites);
  clean.ids = build_scenario(clean.net, specs, /*churn=*/false, kSites);
  pooled.ids = build_scenario(pooled.net, specs, /*churn=*/true, kSites);
  pooled.net.set_pool(&pool);
  for (Run* run : {&churned, &clean, &pooled}) run->net.set_trace(&run->trace);

  for (int step = 0; step < 8; ++step) {
    const double t = static_cast<double>(step);
    for (Run* run : {&churned, &clean, &pooled}) run->net.step(t, 1.0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    churned.net.flow(churned.ids[i]).allocated_mbps),
                std::bit_cast<std::uint64_t>(
                    clean.net.flow(clean.ids[i]).allocated_mbps))
          << "flow " << i << " at t=" << t;
    }
  }

  // Within a step: link_alloc in ascending (from, to), bulk_done in
  // ascending flow id.
  const auto link_allocs = churned.sink->of_type("link_alloc");
  const auto bulk_dones = churned.sink->of_type("bulk_done");
  ASSERT_GT(link_allocs.size(), 8u * 20u);
  ASSERT_GE(bulk_dones.size(), 2u);
  for (std::size_t i = 1; i < link_allocs.size(); ++i) {
    const auto& a = link_allocs[i - 1];
    const auto& b = link_allocs[i];
    if (a.t != b.t) continue;
    EXPECT_LT(std::make_pair(a.num("from_site"), a.num("to_site")),
              std::make_pair(b.num("from_site"), b.num("to_site")))
        << "t=" << b.t;
  }
  for (std::size_t i = 1; i < bulk_dones.size(); ++i) {
    if (bulk_dones[i - 1].t != bulk_dones[i].t) continue;
    EXPECT_LT(bulk_dones[i - 1].num("flow"), bulk_dones[i].num("flow"));
  }

  // link_alloc payloads match the churn-free network's. bulk_done carries
  // the flow id, which churn shifts: map it back to the survivor's index.
  const auto clean_allocs = clean.sink->of_type("link_alloc");
  ASSERT_EQ(link_allocs.size(), clean_allocs.size());
  for (std::size_t i = 0; i < link_allocs.size(); ++i) {
    EXPECT_EQ(link_allocs[i].nums, clean_allocs[i].nums) << "event " << i;
  }
  const auto clean_dones = clean.sink->of_type("bulk_done");
  ASSERT_EQ(bulk_dones.size(), clean_dones.size());
  const auto survivor_of = [](const Run& run, double flow) {
    const auto it = std::find(run.ids.begin(), run.ids.end(),
                              FlowId(static_cast<std::int64_t>(flow)));
    return it - run.ids.begin();
  };
  for (std::size_t i = 0; i < bulk_dones.size(); ++i) {
    EXPECT_EQ(bulk_dones[i].t, clean_dones[i].t) << "event " << i;
    EXPECT_EQ(survivor_of(churned, bulk_dones[i].num("flow")),
              survivor_of(clean, clean_dones[i].num("flow")))
        << "event " << i;
  }

  // A 4-worker pool writes the same trace bytes as no pool.
  ASSERT_EQ(pooled.sink->events().size(), churned.sink->events().size());
  for (std::size_t i = 0; i < churned.sink->events().size(); ++i) {
    EXPECT_EQ(obs::to_json_line(pooled.sink->events()[i]),
              obs::to_json_line(churned.sink->events()[i]));
  }
}

// --- the skip rule against a full refill ----------------------------------
//
// step() refills only the links whose fill inputs may have changed. The
// reference below is the fill without that rule: every step regroups every
// flow and refills every link from scratch, with the same arithmetic in the
// same id order (kept here as the oracle, the way the scalar kernel twins
// live in engine_kernels_test.cc).

// The change flag rides in Flow's tail padding.
static_assert(sizeof(Flow) == 64);

struct RefFlow {
  FlowId id;  // the network's id for the same flow
  SiteId from;
  SiteId to;
  bool bulk = false;
  double demand_mbps = 0.0;
  double allocated_mbps = 0.0;
  double remaining_mb = 0.0;
  bool done = false;
};

// Fills one link's flows (ascending id) at `capacity`; `from_down` is
// site_down(from), which only a local link's fill reads.
void ref_fill_link(const std::vector<RefFlow*>& link, double capacity,
                   bool from_down) {
  if (link.front()->from == link.front()->to) {
    for (RefFlow* f : link) {
      if ((f->bulk && f->done) || from_down) {
        f->allocated_mbps = 0.0;
      } else {
        f->allocated_mbps = f->bulk ? kLocalBandwidthMbps : f->demand_mbps;
      }
    }
    return;
  }
  std::vector<RefFlow*> active;
  for (RefFlow* f : link) {
    f->allocated_mbps = 0.0;
    if (!f->bulk || !f->done) active.push_back(f);
  }
  double remaining = capacity;
  while (!active.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(active.size());
    bool anyone_satisfied = false;
    std::vector<RefFlow*> kept;
    for (RefFlow* f : active) {
      const double want = f->bulk ? std::numeric_limits<double>::infinity()
                                  : f->demand_mbps - f->allocated_mbps;
      if (!f->bulk && want <= share) {
        f->allocated_mbps += want;
        remaining -= want;
        anyone_satisfied = true;
      } else {
        kept.push_back(f);
      }
    }
    active = std::move(kept);
    if (!anyone_satisfied) {
      const double each = remaining / static_cast<double>(active.size());
      for (RefFlow* f : active) f->allocated_mbps += each;
      break;
    }
  }
}

// One full step over `flows` (ascending id) with the network's fault state
// and capacities at `t`.
void ref_step(std::vector<RefFlow>& flows, const Network& net, double t,
              double dt) {
  std::vector<RefFlow*> order;
  for (RefFlow& f : flows) order.push_back(&f);
  std::stable_sort(order.begin(), order.end(),
                   [](const RefFlow* a, const RefFlow* b) {
                     return std::make_pair(a->from, a->to) <
                            std::make_pair(b->from, b->to);
                   });
  std::vector<RefFlow*> link;
  for (std::size_t i = 0; i < order.size(); ++i) {
    link.push_back(order[i]);
    if (i + 1 < order.size() && order[i + 1]->from == order[i]->from &&
        order[i + 1]->to == order[i]->to) {
      continue;
    }
    const SiteId from = link.front()->from, to = link.front()->to;
    ref_fill_link(link, net.capacity(from, to, t), net.site_down(from));
    link.clear();
  }
  for (RefFlow& f : flows) {
    if (!f.bulk || f.done) continue;
    f.remaining_mb -= mbps_to_mb_per_sec(f.allocated_mbps) * dt;
    if (f.remaining_mb <= 1e-9) {
      f.remaining_mb = 0.0;
      f.done = true;
    }
  }
}

// The first difference between the network and the reference after a step
// at `t`, or "" when every allocation, link sum and stored capacity matches
// bit for bit.
std::string skip_rule_diff(const Network& net,
                           const std::vector<RefFlow>& flows, double t,
                           int sites) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::ostringstream out;
  for (const RefFlow& f : flows) {
    const Flow& got = net.flow(f.id);
    if (bits(got.allocated_mbps) != bits(f.allocated_mbps) ||
        got.done != f.done) {
      out << "flow " << f.id << " allocated " << got.allocated_mbps
          << " done " << got.done << ", reference " << f.allocated_mbps
          << " done " << f.done;
      return out.str();
    }
  }
  for (int i = 0; i < sites; ++i) {
    for (int j = 0; j < sites; ++j) {
      const SiteId from(i), to(j);
      double sum = 0.0;
      bool has_flow = false;
      for (const RefFlow& f : flows) {
        if (f.from != from || f.to != to) continue;
        sum += f.allocated_mbps;
        has_flow = true;
      }
      if (bits(net.link_allocated(from, to)) != bits(sum)) {
        out << "link " << i << "->" << j << " allocated "
            << net.link_allocated(from, to) << ", reference " << sum;
        return out.str();
      }
      const double capacity = net.capacity(from, to, t);
      const double stored = net.link(from, to).capacity_mbps;
      if (has_flow && bits(stored) != bits(capacity)) {
        out << "link " << i << "->" << j << " capacity " << stored
            << ", reference " << capacity;
        return out.str();
      }
    }
  }
  return "";
}

// A seeded random walk over every input of the skip rule: demands rewritten
// with the same value and changed (to 0 and to a negative value that clamps),
// partitions and site-down flags toggled, flows added and removed, bulk
// transfers finishing, and bandwidth steps that include a factor of 0 (with
// it, a local link's capacity reads 0 whether or not its site is down).
void run_skip_rule_walk(exec::ThreadPool* pool) {
  constexpr int kSites = 6;
  constexpr int kSteps = 2000;
  auto model = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{300.0, 0.5},
                                             {500.0, 0.0},
                                             {700.0, 0.0},
                                             {900.0, 1.7},
                                             {1300.0, 0.0},
                                             {1400.0, 1.7},
                                             {1700.0, 0.25}});
  Network net = make_net(kSites, 1, 100.0, 10.0, model);
  net.set_pool(pool);
  Rng rng(4242);
  std::vector<RefFlow> flows;  // ascending id: adds append, removes erase

  const auto add = [&] {
    RefFlow f;
    f.from = SiteId(rng.uniform_int(0, kSites - 1));
    f.to = rng.uniform() < 0.25 ? f.from
                                : SiteId(rng.uniform_int(0, kSites - 1));
    f.bulk = rng.uniform() < 0.3;
    if (f.bulk) {
      // Some transfers are empty, so done from the start.
      f.remaining_mb = rng.uniform() < 0.1 ? 0.0 : rng.uniform(5.0, 400.0);
      f.done = f.remaining_mb <= 0.0;
      f.id = net.add_bulk_flow(f.from, f.to, f.remaining_mb);
    } else {
      f.id = net.add_stream_flow(f.from, f.to);
      f.demand_mbps = rng.uniform(0.0, 60.0);
      net.set_stream_demand(f.id, f.demand_mbps);
    }
    flows.push_back(f);
  };
  const auto random_stream = [&]() -> RefFlow* {
    for (int tries = 0; tries < 20; ++tries) {
      RefFlow& f = flows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flows.size()) - 1))];
      if (!f.bulk) return &f;
    }
    return nullptr;
  };

  for (int i = 0; i < 40; ++i) add();
  int finished = 0, toggles = 0, churn = 0;
  for (int step = 1; step <= kSteps; ++step) {
    const double t = static_cast<double>(step);
    for (int k = 0; k < 3; ++k) {  // the same value again: nothing changes
      if (RefFlow* f = random_stream()) {
        net.set_stream_demand(f->id, f->demand_mbps);
      }
    }
    if (rng.uniform() < 0.4) {
      if (RefFlow* f = random_stream()) {
        const double u = rng.uniform();
        const double mbps = u < 0.2   ? 0.0
                            : u < 0.4 ? -rng.uniform(1.0, 10.0)
                                      : rng.uniform(0.0, 60.0);
        net.set_stream_demand(f->id, mbps);
        f->demand_mbps = std::max(0.0, mbps);
      }
    }
    if (rng.uniform() < 0.03) {
      const SiteId from(rng.uniform_int(0, kSites - 1));
      const SiteId to(rng.uniform_int(0, kSites - 1));
      net.set_link_partitioned(from, to, !net.link_partitioned(from, to));
      ++toggles;
    }
    if (rng.uniform() < 0.03) {
      const SiteId site(rng.uniform_int(0, kSites - 1));
      net.set_site_down(site, !net.site_down(site));
      ++toggles;
    }
    if (rng.uniform() < 0.04) {
      add();
      ++churn;
    }
    if (rng.uniform() < 0.04 && flows.size() > 1) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(flows.size()) - 1));
      net.remove_flow(flows[i].id);
      flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(i));
      ++churn;
    }
    int done_before = 0;
    for (const RefFlow& f : flows) done_before += f.done ? 1 : 0;
    net.step(t, 1.0);
    ref_step(flows, net, t, 1.0);
    for (const RefFlow& f : flows) finished += f.done ? 1 : 0;
    finished -= done_before;
    ASSERT_EQ(skip_rule_diff(net, flows, t, kSites), "") << "at t=" << t;
  }
  // The walk reached every input (the mutation checks in CHANGES.md show
  // that leaving any one out of the rule fails it).
  EXPECT_GT(finished, 20);
  EXPECT_GT(toggles, 60);
  EXPECT_GT(churn, 80);
}

TEST(NetworkTest, SkippedLinksMatchAFullRefill) { run_skip_rule_walk(nullptr); }

TEST(NetworkTest, SkippedLinksMatchAFullRefillOnAPool) {
  exec::ThreadPool pool(4);
  run_skip_rule_walk(&pool);
}

// Property: waterfilling never exceeds capacity and never over-allocates a
// stream beyond its demand.
class NetworkFairnessProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(NetworkFairnessProperty, AllocationIsFeasibleAndDemandBounded) {
  Rng rng(GetParam());
  const double capacity = rng.uniform(10.0, 200.0);
  Network net = make_net(2, 1, capacity, 10.0);
  const int flows = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<FlowId> ids;
  std::vector<double> demands;
  double bulk_count = 0.0;
  for (int i = 0; i < flows; ++i) {
    if (rng.uniform() < 0.3) {
      ids.push_back(net.add_bulk_flow(SiteId(0), SiteId(1), 1e6));
      demands.push_back(-1.0);
      bulk_count += 1.0;
    } else {
      const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
      const double d = rng.uniform(0.0, capacity);
      net.set_stream_demand(f, d);
      ids.push_back(f);
      demands.push_back(d);
    }
  }
  net.step(0.0, 1.0);
  double total = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double a = net.flow(ids[i]).allocated_mbps;
    EXPECT_GE(a, -1e-9);
    if (demands[i] >= 0.0) {
      EXPECT_LE(a, demands[i] + 1e-9);
    }
    total += a;
  }
  EXPECT_LE(total, capacity + 1e-6);
  // Work-conserving: if total demand exceeds capacity (or any bulk flow is
  // present), the link is fully used.
  double total_demand = 0.0;
  for (double d : demands) total_demand += d >= 0.0 ? d : 1e18;
  if (total_demand >= capacity) {
    EXPECT_NEAR(total, capacity, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFlowSets, NetworkFairnessProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(WanMonitorTest, ProbesOnlyAtInterval) {
  Network net = make_net(2, 1, 100.0, 10.0);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 40.0;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  EXPECT_DOUBLE_EQ(monitor.available(SiteId(0), SiteId(1)), 0.0);
  monitor.tick(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 0.0);
  monitor.tick(20.0);  // not yet
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 0.0);
  monitor.tick(40.0);
  EXPECT_DOUBLE_EQ(monitor.last_probe_time(), 40.0);
}

TEST(WanMonitorTest, ReportsAvailableNotRawCapacity) {
  Network net = make_net(2, 1, 100.0, 10.0);
  const FlowId f = net.add_stream_flow(SiteId(0), SiteId(1));
  net.set_stream_demand(f, 60.0);
  net.step(0.0, 1.0);
  WanMonitor::Config cfg;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  monitor.probe_now(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 40.0, 1e-9);
}

TEST(WanMonitorTest, EstimatesAreStaleBetweenProbes) {
  auto model = std::make_shared<SteppedBandwidth>(
      std::vector<std::pair<double, double>>{{10.0, 0.5}});
  Network net = make_net(2, 1, 100.0, 10.0, model);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 40.0;
  cfg.noise_stddev = 0.0;
  WanMonitor monitor(net, cfg, Rng(1));
  monitor.probe_now(0.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  // Bandwidth halves at t=10, but the monitor does not know until t=40.
  monitor.tick(20.0);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 1e-9);
  monitor.tick(40.0);
  EXPECT_LT(monitor.available(SiteId(0), SiteId(1)), 100.0);
}

// to_string() prints doubles in shortest round-trip form, so a spec with
// non-round link parameters survives parse(to_string()) bit for bit (a
// 6-digit form would turn bw=123.4567891 into 123.457).
TEST(TopologySpecTest, RoundTripsNonRoundDoublesExactly) {
  std::string error;
  const auto spec = TopologySpec::parse(
      "uniform:sites=8,bw=123.4567891,lat=0.1234567", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->to_string(),
            "uniform:sites=8,slots=4,bw=123.4567891,lat=0.1234567");
  const auto again = TopologySpec::parse(spec->to_string(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(*again, *spec);
  EXPECT_EQ(again->uniform_bw_mbps, 123.4567891);
  EXPECT_EQ(again->uniform_latency_ms, 0.1234567);
  // Round values print as before.
  EXPECT_EQ(TopologySpec::parse("uniform:sites=16")->to_string(),
            "uniform:sites=16,slots=4,bw=500,lat=20");
}

TEST(TopologySpecTest, NumbersMustUseTheWholeString) {
  for (const char* text : {"uniform:bw=100x", "uniform:lat= 5",
                           "uniform:sites=8.5", "uniform:bw=inf"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(TopologySpec::parse(text).has_value());
  }
}

TEST(TraceIoTest, StepInterpolationBetweenSamples) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 1.0);
  trace.add_sample(SiteId(0), SiteId(1), 300.0, 0.5);
  trace.add_sample(SiteId(0), SiteId(1), 600.0, 2.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 299.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 300.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 450.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 10'000.0), 2.0);
}

TEST(TraceIoTest, UntracedLinksDefaultToOne) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(1), SiteId(0), 100.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(2), SiteId(3), 100.0), 1.0);
}

TEST(TraceIoTest, OutOfOrderSamplesAreSorted) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 600.0, 2.0);
  trace.add_sample(SiteId(0), SiteId(1), 0.0, 1.0);
  trace.add_sample(SiteId(0), SiteId(1), 300.0, 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 100.0), 1.0);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 400.0), 0.5);
}

TEST(TraceIoTest, ParsesCsvWithHeaderAndComments) {
  std::istringstream in(
      "time_sec,from_site,to_site,factor\n"
      "# measured 2020-05-02\n"
      "0,0,1,1.0\n"
      "300,0,1,0.5\n"
      "\n"
      "0,1,0,0.8  # trailing comment\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_EQ(error, "");
  EXPECT_EQ(trace.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(0), SiteId(1), 400.0), 0.5);
  EXPECT_DOUBLE_EQ(trace.factor(SiteId(1), SiteId(0), 400.0), 0.8);
}

TEST(TraceIoTest, RejectsMalformedLines) {
  std::istringstream in("0,0,1,1.0\nnot,a,number,x\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_NE(error, "");
  EXPECT_EQ(trace.num_samples(), 0u);
}

TEST(TraceIoTest, RejectsNegativeFactors) {
  std::istringstream in("0,0,1,-0.5\n");
  std::string error;
  const TraceBandwidth trace = load_bandwidth_trace(in, &error);
  EXPECT_NE(error, "");
  EXPECT_EQ(trace.num_samples(), 0u);
}

TEST(TraceIoTest, SaveLoadRoundTrip) {
  // Generate from a random walk, save, reload, and compare at the sampled
  // times.
  Rng rng(3);
  RandomWalkBandwidth::Config cfg;
  cfg.horizon_sec = 900.0;
  cfg.period_sec = 300.0;
  RandomWalkBandwidth original(3, cfg, rng);
  std::stringstream buffer;
  save_bandwidth_trace(buffer, original, 3, 900.0, 300.0);
  std::string error;
  const TraceBandwidth reloaded = load_bandwidth_trace(buffer, &error);
  ASSERT_EQ(error, "");
  for (double t : {0.0, 150.0, 300.0, 899.0}) {
    for (std::int64_t i = 0; i < 3; ++i) {
      for (std::int64_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        EXPECT_NEAR(reloaded.factor(SiteId(i), SiteId(j), t),
                    original.factor(SiteId(i), SiteId(j), t), 1e-4)
            << "link " << i << "->" << j << " at t=" << t;
      }
    }
  }
}

TEST(TraceIoTest, TraceDrivesNetworkCapacity) {
  TraceBandwidth trace;
  trace.add_sample(SiteId(0), SiteId(1), 100.0, 0.25);
  Network net(Topology::make_uniform(2, 1, 80.0, 10.0),
              std::make_shared<TraceBandwidth>(trace));
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 50.0), 20.0);
  EXPECT_DOUBLE_EQ(net.capacity(SiteId(0), SiteId(1), 150.0), 20.0);
}

TEST(WanMonitorTest, NoiseIsSmoothedByEwma) {
  Network net = make_net(2, 1, 100.0, 10.0);
  WanMonitor::Config cfg;
  cfg.probe_interval_sec = 1.0;
  cfg.noise_stddev = 0.10;
  cfg.ewma_alpha = 0.3;
  WanMonitor monitor(net, cfg, Rng(7));
  for (double t = 0.0; t < 50.0; t += 1.0) monitor.tick(t);
  EXPECT_NEAR(monitor.available(SiteId(0), SiteId(1)), 100.0, 15.0);
}

}  // namespace
}  // namespace wasp::net
