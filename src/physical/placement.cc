#include "physical/placement.h"

#include <algorithm>
#include <cassert>

namespace wasp::physical {

AdjustedView::AdjustedView(const NetworkView& base, std::vector<int> slots,
                           std::unordered_map<std::int64_t, double> mbps)
    : base_(base),
      num_sites_(base.num_sites()),
      slots_(std::move(slots)),
      mbps_(std::move(mbps)) {
  slots_.resize(num_sites_, 0);
}

double AdjustedView::available_mbps(SiteId from, SiteId to) const {
  const double base = base_.available_mbps(from, to);
  const auto it = mbps_.find(link_key(from, to));
  return it == mbps_.end() ? base : std::max(0.0, base + it->second);
}

void AdjustedView::release_slots(const StagePlacement& tasks) {
  assert(tasks.per_site.size() <= slots_.size());
  for (std::size_t s = 0; s < tasks.per_site.size(); ++s) {
    slots_[s] += tasks.per_site[s];
  }
}

void AdjustedView::claim_slots(const StagePlacement& tasks) {
  assert(tasks.per_site.size() <= slots_.size());
  for (std::size_t s = 0; s < tasks.per_site.size(); ++s) {
    slots_[s] -= tasks.per_site[s];
  }
}

void AdjustedView::claim_mbps(SiteId from, SiteId to, double mbps) {
  // Kept as a negative delta: base + (-(a + b)) has the bits of
  // base - (a + b).
  mbps_[link_key(from, to)] += -mbps;
}

PlacementDiff diff_placements(const StagePlacement& from,
                              const StagePlacement& to) {
  assert(from.per_site.size() == to.per_site.size());
  PlacementDiff diff;
  for (std::size_t s = 0; s < from.per_site.size(); ++s) {
    const int delta = to.per_site[s] - from.per_site[s];
    const SiteId site(static_cast<std::int64_t>(s));
    if (delta < 0) diff.drain.emplace_back(site, -delta);
    if (delta > 0) diff.fill.emplace_back(site, delta);
  }
  return diff;
}

}  // namespace wasp::physical
