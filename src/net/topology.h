// WAN topology: sites plus directed pair-wise base bandwidth and latency.
//
// The paper's testbed (§8.2, Fig. 7) is an overlay of 16 nodes -- 8 edge
// (2-4 slots) and 8 data-center (8 slots) -- whose inter-site links were
// configured from a 1-day EC2 measurement (data centers) and Akamai's public
// Internet statistics (edges). `make_paper_testbed` regenerates a topology
// with those distributions from a seed; `make_custom` supports arbitrary
// setups for tests.
//
// Past the paper testbed, `make_edge_hierarchy` generates planet-scale
// deployments (DESIGN.md §14): a ring of core data centers, one or more
// regional data centers per region, and hundreds of edge sites, with
// Fig. 7-shaped per-tier-pair bandwidth/latency distributions and per-region
// failure domains. Generation is deterministic given the Rng: sites are
// created first (edge slots draw from the Rng), then every directed link is
// drawn in row-major (from, to) order, one bandwidth draw followed by one
// latency draw per pair.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "net/site.h"

namespace wasp::net {

// Intra-site links are modeled as effectively unconstrained: co-located tasks
// exchange data over the cluster fabric, which is never the bottleneck in
// wide-area analytics (§2.2).
inline constexpr double kLocalBandwidthMbps = 1e6;
inline constexpr double kLocalLatencyMs = 0.1;

// Parameters for `Topology::make_edge_hierarchy` (DESIGN.md §14 has the full
// reference table). Regions sit on a ring -- the geographic proxy the paper
// testbed uses for its latency matrix -- and every core DC is anchored to a
// ring position, so "near" and "far" pairs exist at every tier. Bandwidth
// distributions are lognormal (Fig. 7 shapes), clamped per tier pair; the
// defaults reproduce the paper's DC (25-250 Mbps, median ~90) and edge
// (5-60 Mbps, median ~20) CDFs, with a faster core mesh above them and a
// weaker long-haul distribution for edge traffic leaving its region.
struct EdgeHierarchyParams {
  int edge_sites = 200;  // total edge sites, spread evenly over the regions
  int regions = 8;
  int core_dcs = 4;
  int regional_dcs_per_region = 1;
  int core_slots = 16;
  int regional_slots = 8;
  int edge_slots_min = 2;  // per-site slots drawn uniformly from this range
  int edge_slots_max = 4;
  // Failure domains per region: 1 (default) makes a whole region one failure
  // domain; k > 1 splits each region's sites round-robin into k sub-domains.
  // Core DCs get their own domains above the regional range, paired
  // availability-zone style like the paper testbed.
  int domains_per_region = 1;
  // Per-tier-pair bandwidth distributions: lognormal(log(median), sigma)
  // clamped to [min, max] Mbps, each direction drawn independently.
  double core_bw_median = 150.0, core_bw_sigma = 0.5;   // core <-> core
  double core_bw_min = 50.0, core_bw_max = 500.0;
  double dc_bw_median = 90.0, dc_bw_sigma = 0.55;       // other DC pairs
  double dc_bw_min = 25.0, dc_bw_max = 250.0;
  double edge_bw_median = 20.0, edge_bw_sigma = 0.5;    // edge, in-region
  double edge_bw_min = 5.0, edge_bw_max = 60.0;
  double far_edge_bw_median = 12.0, far_edge_bw_sigma = 0.6;  // edge, long-haul
  double far_edge_bw_min = 3.0, far_edge_bw_max = 40.0;
  // Latency model: base 20 ms + this many ms per unit of ring distance
  // between the endpoints' regions, plus per-tier jitter (edges add
  // last-mile spread).
  double latency_per_gap_ms = 25.0;

  [[nodiscard]] int total_sites() const {
    return core_dcs + regions * regional_dcs_per_region + edge_sites;
  }

  bool operator==(const EdgeHierarchyParams&) const = default;
};

class Topology {
 public:
  Topology() = default;

  // Adds a site and returns its id (ids are dense, starting at 0). `domain`
  // is the failure domain label; -1 (default) assigns the site its own
  // singleton domain so topologies that ignore domains behave as before.
  SiteId add_site(std::string name, SiteType type, int slots, int domain = -1);

  // Pre-sizes the link matrices for `n` sites so a generator adding hundreds
  // of sites performs one allocation instead of a quadratic regrowth per
  // add_site. Purely an optimization: link values are unaffected.
  void reserve_sites(std::size_t n);

  // Sets the directed link properties from -> to.
  void set_link(SiteId from, SiteId to, double bandwidth_mbps,
                double latency_ms);

  [[nodiscard]] std::size_t num_sites() const { return sites_.size(); }
  [[nodiscard]] const Site& site(SiteId id) const;
  [[nodiscard]] const std::vector<Site>& sites() const { return sites_; }

  // Base (unvaried) bandwidth in Mbps from -> to. Same-site returns the
  // local fabric constant.
  [[nodiscard]] double base_bandwidth(SiteId from, SiteId to) const;

  // One-way latency in milliseconds from -> to.
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const;

  [[nodiscard]] int total_slots() const;

  // Failure-domain helpers. Domains are plain integer labels on sites; two
  // sites with the same label share fate under `domain_down` faults.
  [[nodiscard]] int domain_of(SiteId id) const;
  [[nodiscard]] std::vector<SiteId> sites_in_domain(int domain) const;

  // The 16-node testbed of §8.2: 8 edge sites (2-4 slots) with public-
  // Internet-like links, 8 data centers (8 slots) with EC2-like links
  // (Fig. 7 distributions). Deterministic given `rng`.
  static Topology make_paper_testbed(Rng& rng);

  // A small symmetric clique for unit tests: `n` sites with `slots` slots
  // each, all links `bandwidth_mbps` / `latency_ms`.
  static Topology make_uniform(int n, int slots, double bandwidth_mbps,
                               double latency_ms);

  // Planet-scale hierarchical deployment (DESIGN.md §14): `core_dcs` core
  // data centers on a ring, `regional_dcs_per_region` regional DCs plus an
  // even share of `edge_sites` edge sites per region, per-tier-pair Fig. 7
  // link distributions, and per-region failure domains. Deterministic given
  // `rng` (fixed draw order, see the header comment); byte-identical
  // topologies for equal seeds and params.
  static Topology make_edge_hierarchy(const EdgeHierarchyParams& params,
                                      Rng& rng);

 private:
  [[nodiscard]] std::size_t index(SiteId id) const;

  std::vector<Site> sites_;
  // Dense row-major matrices indexed [from * stride_ + to]. `stride_` is the
  // allocated dimension (>= num_sites()); add_site regrows it geometrically
  // and reserve_sites pre-sizes it, so bulk construction is O(n^2) overall.
  std::size_t stride_ = 0;
  std::vector<double> bandwidth_;
  std::vector<double> latency_;
};

}  // namespace wasp::net
