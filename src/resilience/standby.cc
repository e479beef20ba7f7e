#include "resilience/standby.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace wasp::resilience {
namespace {

// Sync traffic is periodic delta shipping; modeled for the placement ILP as
// a steady stream of this event size so constraint (2) verifies the standby
// link can actually carry the replication load.
constexpr double kSyncEventBytes = 100.0;
// Delta-shipping cadence; also the background planning cadence.
constexpr double kSyncIntervalSec = 30.0;
// A replica whose last completed sync captured state older than this is not
// promotable: replaying that much delta would cost more than the fallback
// replan path saves.
constexpr double kMaxStalenessSec = 300.0;
// Floor on a sync flow's size (metadata, membership, manifests).
constexpr double kMinSyncMb = 1.0;

bool is_protected(const query::LogicalOperator& op) {
  return op.stateful() && op.splittable && op.pinned_sites.empty();
}

}  // namespace

StandbyManager::StandbyManager(net::Network& network, int replicas)
    : network_(network), replicas_(replicas) {
  reserved_.assign(network_.topology().num_sites(), 0);
}

StandbyManager::~StandbyManager() {
  for (Slot& slot : slots_) {
    for (const InFlightSync& sync : slot.inflight) {
      if (network_.has_flow(sync.flow)) network_.remove_flow(sync.flow);
    }
  }
}

void StandbyManager::tick(double now, const engine::Engine& engine,
                          const physical::Scheduler& scheduler,
                          const physical::NetworkView& view,
                          const SiteOk& trusted) {
  if (replicas_ <= 0) return;
  obs::Profiler::Scope profile_sync(profiler_, obs::Phase::kStandbySync);
  pump_syncs(now, trusted);

  // A replica on a dead/distrusted site is useless; drop it so a fresh one
  // is planned below. Reverse order keeps erase indexes stable.
  for (std::size_t i = slots_.size(); i-- > 0;) {
    if (network_.site_down(slots_[i].site) || !trusted(slots_[i].site)) {
      drop_slot(i);
    }
  }

  if (now - last_sync_ < kSyncIntervalSec) return;
  last_sync_ = now;
  plan_missing(now, engine, scheduler, view, trusted);
  launch_syncs(now, engine, trusted);
}

void StandbyManager::pump_syncs(double now, const SiteOk& trusted) {
  for (Slot& slot : slots_) {
    for (std::size_t i = slot.inflight.size(); i-- > 0;) {
      InFlightSync& sync = slot.inflight[i];
      if (!network_.has_flow(sync.flow)) {
        slot.inflight.erase(slot.inflight.begin() +
                            static_cast<std::ptrdiff_t>(i));
        continue;
      }
      const net::Flow& flow = network_.flow(sync.flow);
      const bool dead_endpoint = network_.site_down(sync.primary) ||
                                 network_.site_down(slot.site) ||
                                 !trusted(sync.primary);
      if (flow.done) {
        // Install the snapshot captured at launch; the replica's contents
        // are as of `captured_at`, not completion time.
        const auto p = static_cast<std::size_t>(sync.primary.value());
        slot.synced_window[p] = sync.window_at_capture;
        slot.synced_state_mb[p] = sync.state_mb_at_capture;
        slot.synced_at[p] = sync.captured_at;
        ++completed_syncs_;
        network_.remove_flow(sync.flow);
        if (trace_ != nullptr && trace_->enabled()) {
          trace_->event("standby_sync")
              .num("op", static_cast<double>(slot.op.value()))
              .num("from", static_cast<double>(sync.primary.value()))
              .num("to", static_cast<double>(slot.site.value()))
              .num("size_mb", sync.size_mb)
              .num("staleness_sec", now - sync.captured_at);
        }
        slot.inflight.erase(slot.inflight.begin() +
                            static_cast<std::ptrdiff_t>(i));
      } else if (dead_endpoint ||
                 network_.link_partitioned(sync.primary, slot.site)) {
        // The transfer will never finish; abort and retry at the next sync
        // boundary (the replica keeps its previous completed snapshot).
        network_.remove_flow(sync.flow);
        slot.inflight.erase(slot.inflight.begin() +
                            static_cast<std::ptrdiff_t>(i));
      }
    }
  }
}

void StandbyManager::plan_missing(double now, const engine::Engine& engine,
                                  const physical::Scheduler& scheduler,
                                  const physical::NetworkView& view,
                                  const SiteOk& trusted) {
  const net::Topology& topo = network_.topology();
  const std::size_t m = topo.num_sites();
  for (const query::LogicalOperator& lop : engine.logical().operators()) {
    if (!is_protected(lop)) continue;
    int existing = 0;
    for (const Slot& slot : slots_) {
      if (slot.op == lop.id) ++existing;
    }
    if (existing >= replicas_) continue;

    const physical::StagePlacement& placement = engine.placement(lop.id);
    if (placement.parallelism() == 0) continue;

    // Anti-affinity: exclude every site sharing a failure domain with a
    // primary site or with an already-placed replica of this stage.
    int reserve = 0;
    auto domain_excluded = [&](int domain) {
      for (std::size_t s = 0; s < m; ++s) {
        const SiteId site(static_cast<std::int64_t>(s));
        if (placement.per_site[s] > 0 && topo.domain_of(site) == domain) {
          return true;
        }
      }
      for (const Slot& slot : slots_) {
        if (slot.op == lop.id && topo.domain_of(slot.site) == domain) {
          return true;
        }
      }
      return false;
    };

    physical::StageContext context;
    for (std::size_t s = 0; s < m; ++s) {
      const SiteId site(static_cast<std::int64_t>(s));
      if (placement.per_site[s] > 0) {
        reserve = std::max(reserve, placement.per_site[s]);
        // Average replication rate: one full-state's worth of delta per sync
        // interval from this primary, expressed as an event stream so the
        // ILP's bandwidth constraint (2) prices it like any other edge.
        const double mb =
            std::max(kMinSyncMb, engine.state_mb(lop.id, site));
        const double eps = (mb * 8.0 * 1e6) /
                           (kSyncIntervalSec * kSyncEventBytes * 8.0);
        context.upstream.push_back(
            physical::TrafficEndpoint{site, eps, kSyncEventBytes});
      }
      if (domain_excluded(topo.domain_of(site)) || !trusted(site) ||
          network_.site_down(site)) {
        context.excluded_sites.push_back(site);
      }
    }
    if (context.upstream.empty() || reserve == 0) continue;

    for (int k = existing; k < replicas_; ++k) {
      context.parallelism = reserve;
      const auto outcome = scheduler.place_stage(context, view);
      if (!outcome.has_value()) break;  // infeasible; retry next boundary
      // The replica lives on one site: the one the ILP loaded most
      // (ascending scan, strict improvement, so ties break low).
      SiteId chosen;
      int best = 0;
      for (std::size_t s = 0; s < m; ++s) {
        if (outcome->placement.per_site[s] > best) {
          best = outcome->placement.per_site[s];
          chosen = SiteId(static_cast<std::int64_t>(s));
        }
      }
      if (!chosen.valid()) break;

      Slot slot;
      slot.op = lop.id;
      slot.site = chosen;
      slot.reserved_tasks = reserve;
      slot.synced_window.assign(m, 0.0);
      slot.synced_state_mb.assign(m, 0.0);
      slot.synced_at.assign(m, -1.0);
      slots_.push_back(std::move(slot));
      context.excluded_sites.push_back(chosen);  // K > 1: spread replicas
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->event_at(now, "standby_planned")
            .num("op", static_cast<double>(lop.id.value()))
            .num("site", static_cast<double>(chosen.value()))
            .num("reserved_tasks", static_cast<double>(reserve));
      }
    }
  }
  rebuild_reserved();
}

void StandbyManager::launch_syncs(double now, const engine::Engine& engine,
                                  const SiteOk& trusted) {
  for (Slot& slot : slots_) {
    const physical::StagePlacement& placement = engine.placement(slot.op);
    for (std::size_t s = 0; s < placement.per_site.size(); ++s) {
      const SiteId primary(static_cast<std::int64_t>(s));
      if (placement.per_site[s] == 0 || primary == slot.site) continue;
      if (network_.site_down(primary) || !trusted(primary)) continue;
      bool already = false;
      for (const InFlightSync& sync : slot.inflight) {
        if (sync.primary == primary) {
          already = true;
          break;
        }
      }
      if (already) continue;

      // Ship the delta since the last completed sync (full state on the
      // first round); tiered checkpoints keep this proportional to the
      // change rate, not the total state.
      const double state_now = engine.state_mb(slot.op, primary);
      const double delta =
          std::abs(state_now -
                   slot.synced_state_mb[static_cast<std::size_t>(s)]);
      InFlightSync sync;
      sync.primary = primary;
      sync.captured_at = now;
      sync.window_at_capture = engine.window_events(slot.op, primary);
      sync.state_mb_at_capture = state_now;
      sync.size_mb =
          std::max(kMinSyncMb, slot.synced_at[s] < 0.0 ? state_now : delta);
      sync.flow = network_.add_bulk_flow(primary, slot.site, sync.size_mb);
      slot.inflight.push_back(sync);
    }
  }
}

std::optional<StandbyManager::Promotion> StandbyManager::viable_standby(
    OperatorId op, SiteId failed_site, double now,
    const SiteOk& trusted) const {
  const auto f = static_cast<std::size_t>(failed_site.value());
  std::optional<Promotion> best;
  for (const Slot& slot : slots_) {
    if (slot.op != op) continue;
    if (f >= slot.synced_at.size() || slot.synced_at[f] < 0.0) continue;
    if (network_.site_down(slot.site) || !trusted(slot.site)) continue;
    const double staleness = now - slot.synced_at[f];
    if (staleness > kMaxStalenessSec) continue;
    if (!best.has_value() || staleness < best->staleness_sec) {
      best = Promotion{slot.site, slot.synced_window[f], staleness};
    }
  }
  return best;
}

void StandbyManager::consume(OperatorId op, SiteId standby_site) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].op == op && slots_[i].site == standby_site) {
      drop_slot(i);
      return;
    }
  }
}

void StandbyManager::reset() {
  for (std::size_t i = slots_.size(); i-- > 0;) drop_slot(i);
}

std::vector<std::pair<OperatorId, SiteId>> StandbyManager::replicas() const {
  std::vector<std::pair<OperatorId, SiteId>> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.emplace_back(slot.op, slot.site);
  return out;
}

void StandbyManager::drop_slot(std::size_t index) {
  for (const InFlightSync& sync : slots_[index].inflight) {
    if (network_.has_flow(sync.flow)) network_.remove_flow(sync.flow);
  }
  slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(index));
  rebuild_reserved();
}

void StandbyManager::rebuild_reserved() {
  reserved_.assign(network_.topology().num_sites(), 0);
  for (const Slot& slot : slots_) {
    reserved_[static_cast<std::size_t>(slot.site.value())] +=
        slot.reserved_tasks;
  }
}

}  // namespace wasp::resilience
