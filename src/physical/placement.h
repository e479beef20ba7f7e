// Physical placement primitives.
//
// A stage's placement is the per-site task count vector p[s] that the
// WAN-aware scheduler optimizes (paper §4.1, Table 1). `NetworkView` is the
// control plane's read-only window onto the network: implementations back it
// with the WAN Monitor's (noisy, possibly stale) estimates rather than
// ground truth, mirroring the prototype.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace wasp::physical {

// What the scheduler knows about the network when planning.
class NetworkView {
 public:
  virtual ~NetworkView() = default;
  [[nodiscard]] virtual std::size_t num_sites() const = 0;
  // Estimated available bandwidth (Mbps) on the directed link from -> to.
  [[nodiscard]] virtual double available_mbps(SiteId from, SiteId to) const = 0;
  [[nodiscard]] virtual double latency_ms(SiteId from, SiteId to) const = 0;
  // Free computing slots at `site`.
  [[nodiscard]] virtual int available_slots(SiteId site) const = 0;
};

// Per-site task counts for one stage.
struct StagePlacement {
  std::vector<int> per_site;  // indexed by site id

  [[nodiscard]] int parallelism() const {
    return std::accumulate(per_site.begin(), per_site.end(), 0);
  }

  // Sites hosting at least one task.
  [[nodiscard]] std::vector<SiteId> sites() const {
    std::vector<SiteId> out;
    for (std::size_t s = 0; s < per_site.size(); ++s) {
      if (per_site[s] > 0) out.push_back(SiteId(static_cast<std::int64_t>(s)));
    }
    return out;
  }

  // One site entry per task, in site order (task -> site mapping).
  [[nodiscard]] std::vector<SiteId> expand() const {
    std::vector<SiteId> out;
    for (std::size_t s = 0; s < per_site.size(); ++s) {
      for (int k = 0; k < per_site[s]; ++k) {
        out.push_back(SiteId(static_cast<std::int64_t>(s)));
      }
    }
    return out;
  }

  [[nodiscard]] int at(SiteId s) const {
    return per_site[static_cast<std::size_t>(s.value())];
  }

  friend bool operator==(const StagePlacement&, const StagePlacement&) =
      default;
};

// A NetworkView shifted by the slots and bandwidth a reconfiguration frees or
// claims: per-site slot deltas, and sparse per-link deltas in Mbps keyed
// from * num_sites + to (the engine's link-allocation maps, handed over
// whole). A link with a delta reads max(0, base + delta); every other link
// reads the base unchanged. One layer per role, each reading the layer
// beneath it: a re-placement adds back what it vacates, a decision round
// threads the slots its earlier actions claimed, and whole-plan placement
// deducts what its earlier stages claimed.
class AdjustedView final : public NetworkView {
 public:
  // `slots` is indexed by site id; missing entries are 0.
  explicit AdjustedView(const NetworkView& base, std::vector<int> slots = {},
                        std::unordered_map<std::int64_t, double> mbps = {});
  // Not copyable: AdjustedView(layer) would copy the layer (reading its
  // base) instead of nesting on it. Nest through a NetworkView reference.
  AdjustedView(const AdjustedView&) = delete;
  AdjustedView& operator=(const AdjustedView&) = delete;

  [[nodiscard]] std::size_t num_sites() const override { return num_sites_; }
  [[nodiscard]] double available_mbps(SiteId from, SiteId to) const override;
  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const override {
    return base_.latency_ms(from, to);
  }
  [[nodiscard]] int available_slots(SiteId site) const override {
    return base_.available_slots(site) +
           slots_[static_cast<std::size_t>(site.value())];
  }

  // Frees the slots `tasks` occupies (per-site task counts).
  void release_slots(const StagePlacement& tasks);
  // Claims the slots `tasks` needs.
  void claim_slots(const StagePlacement& tasks);
  // Claims `mbps` of the link from -> to.
  void claim_mbps(SiteId from, SiteId to, double mbps);

 private:
  [[nodiscard]] std::int64_t link_key(SiteId from, SiteId to) const {
    return from.value() * static_cast<std::int64_t>(num_sites_) + to.value();
  }

  const NetworkView& base_;
  // Read once: asking the base would walk every layer beneath this one.
  std::size_t num_sites_;
  std::vector<int> slots_;
  std::unordered_map<std::int64_t, double> mbps_;
};

// A solved placement together with its Eq. 1 objective value.
struct PlacementOutcome {
  StagePlacement placement;
  double objective = 0.0;  // traffic-weighted delay (ms-weighted tasks)
};

// Sites to drain (S - S') and to populate (S' - S) when moving from
// placement `from` to placement `to`; the unit is tasks.
struct PlacementDiff {
  std::vector<std::pair<SiteId, int>> drain;  // site, tasks leaving
  std::vector<std::pair<SiteId, int>> fill;   // site, tasks arriving
};

[[nodiscard]] PlacementDiff diff_placements(const StagePlacement& from,
                                            const StagePlacement& to);

}  // namespace wasp::physical
