// Cluster: several queries sharing one wide-area deployment.
//
// The paper's Job Manager "provides an interface for query submission, and
// it optimizes and deploys queries across multiple sites" (§2.1) -- plural.
// A Cluster owns the shared Network and hosts one WaspSystem per submitted
// query, with two pieces of cross-query coordination the single-query facade
// cannot provide:
//
//  - shared slot accounting: each query's scheduler sees the slots taken by
//    *every* query, so two adaptations never double-book a computing slot;
//  - shared bandwidth: all queries' stream (and migration) flows ride the
//    same Network, so they compete for links exactly as co-located tenants
//    do -- and each query's WAN monitor measures availability net of the
//    others' traffic.
//
// The Cluster drives the global tick (network first, then every query), so
// a query joined to a Cluster must be stepped through the Cluster, not
// directly.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "runtime/wasp_system.h"

namespace wasp::runtime {

class Cluster {
 public:
  explicit Cluster(net::Network& network) : network_(network) {}

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Registers the *pinned* slot demand of a query that will be submitted
  // later (its chained edge pre-processing and sinks). Reservation keeps
  // earlier tenants' schedulers from squatting on slots a later tenant's
  // pinned stages cannot do without -- call it for every planned query
  // before the first submit when deploying a batch.
  void reserve_pinned(const workload::QuerySpec& spec);

  // Deploys a query. The returned reference stays valid for the Cluster's
  // lifetime. Deployment sees the slots already taken by earlier queries
  // plus any outstanding reservations (its own reservation, if it was
  // registered, is released first). Every query must be submitted before
  // the first step(): a query's clock starts at 0, so a late one would tick
  // against a network already at cluster time. Throws std::logic_error once
  // now() > 0.
  WaspSystem& submit(workload::QuerySpec spec,
                     const workload::WorkloadPattern& pattern,
                     SystemConfig config);

  // Advances the shared network by one tick, then every query.
  void step();
  void run_until(double t_end);

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::size_t num_queries() const { return systems_.size(); }
  [[nodiscard]] WaspSystem& query(std::size_t index) {
    return *systems_[index];
  }
  [[nodiscard]] const WaspSystem& query(std::size_t index) const {
    return *systems_[index];
  }

  // Slots in use across all queries, per site.
  [[nodiscard]] std::vector<int> slots_in_use() const;

  // Cluster-wide failure injection: marks the site down in the shared
  // Network (stalling every tenant's flows touching it) and fails it in
  // every query's engine. restore_site reverses both.
  void fail_site(SiteId site);
  void restore_site(SiteId site);

 private:
  // Pinned slot demand of `spec` per site (sources excluded -- they take no
  // slot).
  [[nodiscard]] std::vector<int> pinned_demand(
      const workload::QuerySpec& spec) const;

  net::Network& network_;
  std::vector<std::unique_ptr<WaspSystem>> systems_;
  std::vector<int> reserved_;  // outstanding pinned reservations per site
  double now_ = 0.0;
};

}  // namespace wasp::runtime
