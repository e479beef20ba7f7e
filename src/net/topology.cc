#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wasp::net {

SiteId Topology::add_site(std::string name, SiteType type, int slots,
                          int domain) {
  const SiteId id(static_cast<std::int64_t>(sites_.size()));
  if (domain < 0) domain = static_cast<int>(sites_.size());
  sites_.push_back(Site{id, std::move(name), type, slots, domain});
  if (sites_.size() > stride_) {
    // Geometric growth keeps a long add_site sequence O(n^2) total.
    reserve_sites(std::max(sites_.size(), 2 * stride_));
  }
  return id;
}

void Topology::reserve_sites(std::size_t n) {
  if (n <= stride_) return;
  std::vector<double> new_bw(n * n, 0.0);
  std::vector<double> new_lat(n * n, 0.0);
  // Only rows/cols that existed in the old stride carry data (add_site grows
  // the matrix *after* pushing the new site, so sites_.size() can already
  // exceed the old stride by one).
  const std::size_t old_n = std::min(sites_.size(), stride_);
  for (std::size_t i = 0; i < old_n; ++i) {
    for (std::size_t j = 0; j < old_n; ++j) {
      new_bw[i * n + j] = bandwidth_[i * stride_ + j];
      new_lat[i * n + j] = latency_[i * stride_ + j];
    }
  }
  bandwidth_ = std::move(new_bw);
  latency_ = std::move(new_lat);
  stride_ = n;
}

void Topology::set_link(SiteId from, SiteId to, double bandwidth_mbps,
                        double latency_ms) {
  assert(from != to);
  bandwidth_[index(from) * stride_ + index(to)] = bandwidth_mbps;
  latency_[index(from) * stride_ + index(to)] = latency_ms;
}

const Site& Topology::site(SiteId id) const { return sites_[index(id)]; }

double Topology::base_bandwidth(SiteId from, SiteId to) const {
  if (from == to) return kLocalBandwidthMbps;
  return bandwidth_[index(from) * stride_ + index(to)];
}

double Topology::latency_ms(SiteId from, SiteId to) const {
  if (from == to) return kLocalLatencyMs;
  return latency_[index(from) * stride_ + index(to)];
}

int Topology::total_slots() const {
  int total = 0;
  for (const Site& s : sites_) total += s.slots;
  return total;
}

int Topology::domain_of(SiteId id) const { return sites_[index(id)].domain; }

std::vector<SiteId> Topology::sites_in_domain(int domain) const {
  std::vector<SiteId> ids;
  for (const Site& s : sites_) {
    if (s.domain == domain) ids.push_back(s.id);
  }
  return ids;
}

std::size_t Topology::index(SiteId id) const {
  assert(id.valid());
  const auto i = static_cast<std::size_t>(id.value());
  assert(i < sites_.size());
  return i;
}

Topology Topology::make_paper_testbed(Rng& rng) {
  Topology topo;

  // 8 data centers named after the EC2 regions measured in the paper, 8
  // slots each (§8.2). Failure domains pair geographically adjacent regions
  // (availability-zone style): domains 0-3 cover the DCs, 4-7 the edges.
  // The assignment is a fixed function of the site index so it draws nothing
  // from `rng` and leaves the link distributions untouched.
  const char* kRegions[] = {"oregon", "ohio",      "ireland", "frankfurt",
                            "seoul",  "singapore", "mumbai",  "saopaulo"};
  std::vector<SiteId> dcs;
  for (int i = 0; i < 8; ++i) {
    dcs.push_back(topo.add_site(kRegions[i], SiteType::kDataCenter, 8, i / 2));
  }
  // 8 edge sites with 2-4 slots each.
  std::vector<SiteId> edges;
  for (int i = 0; i < 8; ++i) {
    edges.push_back(topo.add_site("edge-" + std::to_string(i),
                                  SiteType::kEdge,
                                  static_cast<int>(rng.uniform_int(2, 4)),
                                  4 + i / 2));
  }

  // DC <-> DC links follow the Fig. 7 EC2 distribution: bandwidth spread
  // roughly 25-250 Mbps (log-normal), latency 20-300 ms depending on
  // geographic spread. Links are asymmetric: each direction is drawn
  // independently, as inbound/outbound WAN capacity differs in practice.
  for (std::size_t i = 0; i < dcs.size(); ++i) {
    for (std::size_t j = 0; j < dcs.size(); ++j) {
      if (i == j) continue;
      // "Distance" proxy: region index gap drives latency so the matrix has
      // near (same-continent) and far pairs, like the measured testbed.
      const double gap =
          static_cast<double>(std::min<std::size_t>((i > j) ? i - j : j - i,
                                                    dcs.size() / 2));
      const double latency =
          20.0 + 60.0 * gap + rng.uniform(-10.0, 10.0);
      const double bandwidth =
          std::clamp(rng.lognormal(std::log(90.0), 0.55), 25.0, 250.0);
      topo.set_link(dcs[i], dcs[j], bandwidth, std::max(5.0, latency));
    }
  }

  // Edge links ride the public Internet. Calibrated to the paper's
  // Fig. 7(a) edge CDF (median ~20 Mbps, spread ~5-60 Mbps) -- stronger
  // than the Akamai broadband average quoted in §2.2, but matching the
  // testbed's measured distribution, and sized so the §8.4/§8.5 dynamics
  // reproduce: the baseline runs healthy at p = 1, the 2x workload surge is
  // still single-site re-assignable, and the 0.5x bandwidth drop is not
  // (forcing scale-out). Latency is regional (edges talk to nearby sites),
  // 5-100 ms.
  auto edge_bandwidth = [&rng] {
    return std::clamp(rng.lognormal(std::log(20.0), 0.5), 5.0, 60.0);
  };
  auto edge_latency = [&rng] { return rng.uniform(5.0, 100.0); };
  for (SiteId e : edges) {
    for (SiteId other : dcs) {
      topo.set_link(e, other, edge_bandwidth(), edge_latency());
      topo.set_link(other, e, edge_bandwidth(), edge_latency());
    }
    for (SiteId other : edges) {
      if (other == e) continue;
      topo.set_link(e, other, edge_bandwidth(), edge_latency());
    }
  }
  return topo;
}

Topology Topology::make_uniform(int n, int slots, double bandwidth_mbps,
                                double latency_ms) {
  Topology topo;
  std::vector<SiteId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(topo.add_site("site-" + std::to_string(i),
                                SiteType::kDataCenter, slots));
  }
  for (SiteId a : ids) {
    for (SiteId b : ids) {
      if (a != b) topo.set_link(a, b, bandwidth_mbps, latency_ms);
    }
  }
  return topo;
}

Topology Topology::make_edge_hierarchy(const EdgeHierarchyParams& params,
                                       Rng& rng) {
  assert(params.regions >= 1);
  assert(params.core_dcs >= 1);
  assert(params.edge_slots_min >= 1 &&
         params.edge_slots_max >= params.edge_slots_min);
  const int regions = params.regions;
  const int dpr = std::max(1, params.domains_per_region);

  Topology topo;
  topo.reserve_sites(static_cast<std::size_t>(params.total_sites()));

  // Tier assignment, recorded per site for the link pass below.
  enum class Tier { kCore, kRegional, kEdge };
  std::vector<Tier> tier;
  // Ring position of each site's region (cores are anchored evenly around
  // the ring so near/far pairs exist at every tier, like the paper's
  // region-index "distance" proxy).
  std::vector<int> region_pos;
  // "r<region><kind><index>", built by appends: GCC 12 at -O3 flags
  // -Wrestrict inside the inlined operator+ chain.
  auto region_site_name = [](int region, const char* kind, int index) {
    std::string name = "r";
    name += std::to_string(region);
    name += kind;
    name += std::to_string(index);
    return name;
  };

  // Sites, in a fixed order: core DCs, then each region's regional DCs, then
  // each region's edge sites (region-major). Only the edge slot counts draw
  // from the Rng here, so the site block consumes exactly `edge_sites` draws.
  for (int c = 0; c < params.core_dcs; ++c) {
    const int domain = regions * dpr + c / 2;  // paired AZ-style, above regions
    topo.add_site("core-" + std::to_string(c), SiteType::kDataCenter,
                  params.core_slots, domain);
    tier.push_back(Tier::kCore);
    region_pos.push_back(c * regions / params.core_dcs);
  }
  for (int r = 0; r < regions; ++r) {
    for (int d = 0; d < params.regional_dcs_per_region; ++d) {
      topo.add_site(region_site_name(r, "-dc-", d), SiteType::kDataCenter,
                    params.regional_slots, r * dpr);
      tier.push_back(Tier::kRegional);
      region_pos.push_back(r);
    }
  }
  // Edge sites split as evenly as possible: the first (edge_sites % regions)
  // regions take one extra site.
  const int edge_base = params.edge_sites / regions;
  const int edge_extra = params.edge_sites % regions;
  for (int r = 0; r < regions; ++r) {
    const int count = edge_base + (r < edge_extra ? 1 : 0);
    for (int e = 0; e < count; ++e) {
      const int slots = static_cast<int>(
          rng.uniform_int(params.edge_slots_min, params.edge_slots_max));
      topo.add_site(region_site_name(r, "-edge-", e), SiteType::kEdge, slots,
                    r * dpr + e % dpr);
      tier.push_back(Tier::kEdge);
      region_pos.push_back(r);
    }
  }

  const std::size_t n = topo.num_sites();
  auto ring_gap = [&](std::size_t a, std::size_t b) {
    const int d = std::abs(region_pos[a] - region_pos[b]);
    return static_cast<double>(std::min(d, regions - d));
  };
  auto draw_bw = [&rng](double median, double sigma, double lo, double hi) {
    return std::clamp(rng.lognormal(std::log(median), sigma), lo, hi);
  };

  // Links, row-major over every directed pair: one bandwidth draw then one
  // latency draw per pair, so the Rng consumption order is a fixed function
  // of the parameters (the determinism contract, DESIGN.md §14).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double gap = ring_gap(i, j);
      const bool i_edge = tier[i] == Tier::kEdge;
      const bool j_edge = tier[j] == Tier::kEdge;
      const bool same_region = region_pos[i] == region_pos[j];

      double bandwidth;
      if (!i_edge && !j_edge) {
        // DC mesh: the core backbone is faster than regional interconnects.
        const bool core_pair = tier[i] == Tier::kCore && tier[j] == Tier::kCore;
        bandwidth = core_pair
                        ? draw_bw(params.core_bw_median, params.core_bw_sigma,
                                  params.core_bw_min, params.core_bw_max)
                        : draw_bw(params.dc_bw_median, params.dc_bw_sigma,
                                  params.dc_bw_min, params.dc_bw_max);
      } else if (same_region) {
        // Edge last mile inside its region (edge<->regional DC, edge<->edge).
        bandwidth = draw_bw(params.edge_bw_median, params.edge_bw_sigma,
                            params.edge_bw_min, params.edge_bw_max);
      } else {
        // Edge traffic leaving its region rides the long-haul Internet.
        bandwidth = draw_bw(params.far_edge_bw_median, params.far_edge_bw_sigma,
                            params.far_edge_bw_min, params.far_edge_bw_max);
      }

      double latency;
      if (!i_edge && !j_edge) {
        latency = 20.0 + params.latency_per_gap_ms * gap + rng.uniform(-10.0, 10.0);
      } else if (same_region) {
        latency = rng.uniform(5.0, 30.0);  // regional last mile
      } else {
        // Long-haul plus last-mile spread at the edge endpoint(s).
        latency = 10.0 + params.latency_per_gap_ms * gap +
                  rng.uniform(0.0, i_edge && j_edge ? 50.0 : 40.0);
      }
      topo.set_link(SiteId(static_cast<std::int64_t>(i)),
                    SiteId(static_cast<std::int64_t>(j)), bandwidth,
                    std::max(5.0, latency));
    }
  }
  return topo;
}

}  // namespace wasp::net
