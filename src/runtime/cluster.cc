#include "runtime/cluster.h"

#include <cassert>
#include <stdexcept>
#include <string>

namespace wasp::runtime {

std::vector<int> Cluster::pinned_demand(
    const workload::QuerySpec& spec) const {
  std::vector<int> demand(network_.topology().num_sites(), 0);
  for (const auto& op : spec.plan.operators()) {
    if (op.is_source()) continue;  // sources take no slot
    for (SiteId s : op.pinned_sites) {
      ++demand[static_cast<std::size_t>(s.value())];
    }
  }
  return demand;
}

void Cluster::reserve_pinned(const workload::QuerySpec& spec) {
  const auto demand = pinned_demand(spec);
  reserved_.resize(network_.topology().num_sites(), 0);
  for (std::size_t s = 0; s < demand.size(); ++s) reserved_[s] += demand[s];
}

WaspSystem& Cluster::submit(workload::QuerySpec spec,
                            const workload::WorkloadPattern& pattern,
                            SystemConfig config) {
  if (now_ > 0.0) {
    throw std::logic_error(
        "Cluster::submit after the cluster started stepping (now " +
        std::to_string(now_) + "); submit every query before the first step");
  }
  // Release this query's own reservation (if registered): its deployment
  // is about to claim the real slots.
  if (!reserved_.empty()) {
    const auto demand = pinned_demand(spec);
    for (std::size_t s = 0; s < demand.size(); ++s) {
      reserved_[s] = std::max(0, reserved_[s] - demand[s]);
    }
  }

  // Each query sees the slots the *other* queries hold plus outstanding
  // reservations. The lambda walks the sibling list at call time, so
  // queries submitted later are counted too.
  const std::size_t my_index = systems_.size();
  config.peer_slot_usage = [this, my_index] {
    std::vector<int> used(network_.topology().num_sites(), 0);
    for (std::size_t i = 0; i < systems_.size(); ++i) {
      if (i == my_index) continue;
      const auto theirs = systems_[i]->engine().slots_in_use();
      for (std::size_t s = 0; s < used.size(); ++s) used[s] += theirs[s];
    }
    for (std::size_t s = 0; s < reserved_.size() && s < used.size(); ++s) {
      used[s] += reserved_[s];
    }
    return used;
  };
  systems_.push_back(std::make_unique<WaspSystem>(network_, std::move(spec),
                                                  pattern, std::move(config)));
  return *systems_.back();
}

void Cluster::step() {
  assert(!systems_.empty());
  // All queries share the global tick.
  now_ += engine::kTickSec;
  network_.step(now_, engine::kTickSec);
  for (auto& system : systems_) {
    system->step(/*drive_network=*/false);
  }
}

void Cluster::run_until(double t_end) {
  while (now_ + engine::kTickSec <= t_end + 1e-9) step();
}

void Cluster::fail_site(SiteId site) {
  network_.set_site_down(site, true);
  for (auto& system : systems_) system->mutable_engine().fail_site(site);
}

void Cluster::restore_site(SiteId site) {
  network_.set_site_down(site, false);
  for (auto& system : systems_) system->mutable_engine().restore_site(site);
}

std::vector<int> Cluster::slots_in_use() const {
  std::vector<int> used(network_.topology().num_sites(), 0);
  for (const auto& system : systems_) {
    const auto theirs = system->engine().slots_in_use();
    for (std::size_t s = 0; s < used.size(); ++s) used[s] += theirs[s];
  }
  return used;
}

}  // namespace wasp::runtime
