// Network: topology + time-varying capacity + active flows.
//
// This is the simulator's data plane. Stream flows carry event streams
// between stages; bulk flows carry checkpoint state during migration (§5).
// Flows sharing a directed site-pair link split its current capacity by
// max-min fairness, so a state migration naturally competes with (and slows)
// the data streams crossing the same link -- a dynamic the paper's overhead
// experiments (§8.7) depend on.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.h"
#include "net/bandwidth_model.h"
#include "net/topology.h"

namespace wasp::obs {
class TraceEmitter;
}  // namespace wasp::obs

namespace wasp::exec {
class ThreadPool;
}  // namespace wasp::exec

namespace wasp::net {

enum class FlowKind {
  kStream,  // continuous event stream; demand set each tick
  kBulk,    // finite transfer (state migration); consumes all spare share
};

struct Flow {
  FlowId id;
  SiteId from;
  SiteId to;
  FlowKind kind = FlowKind::kStream;
  double demand_mbps = 0.0;     // streams: offered load this tick
  double allocated_mbps = 0.0;  // filled in by step()
  double remaining_mb = 0.0;    // bulk only
  bool done = false;            // bulk only
  // demand_mbps or done changed since this flow's link was last filled: set
  // by set_stream_demand and by step() when a bulk transfer finishes,
  // cleared by the fill (see step()). Sits in the padding after `done`.
  bool changed = false;
};

// What step() leaves for one directed link (see Network::link()).
struct LinkRecord {
  double capacity_mbps = 0.0;   // the capacity the link's flows shared
  double allocated_mbps = 0.0;  // their summed allocated_mbps, in id order
};

class Network {
 public:
  Network(Topology topology, std::shared_ptr<const BandwidthModel> model);

  [[nodiscard]] const Topology& topology() const { return topology_; }

  // Current capacity of the directed link from -> to (Mbps). A partitioned
  // link, or a link with a down endpoint, has zero capacity: every stream and
  // bulk flow crossing it stalls until the partition heals / the site is
  // restored.
  [[nodiscard]] double capacity(SiteId from, SiteId to, double t) const;

  // --- fault state ---------------------------------------------------------

  // Marks the directed link from -> to as partitioned (capacity 0).
  void set_link_partitioned(SiteId from, SiteId to, bool partitioned);
  [[nodiscard]] bool link_partitioned(SiteId from, SiteId to) const;

  // Marks a whole site as down: every link touching it (including local,
  // same-site transfers) has zero capacity.
  void set_site_down(SiteId site, bool down);
  [[nodiscard]] bool site_down(SiteId site) const;

  [[nodiscard]] double latency_ms(SiteId from, SiteId to) const {
    return topology_.latency_ms(from, to);
  }

  // --- flow management -----------------------------------------------------
  //
  // FlowIds are sequential and never reused. Every call below is O(1);
  // removing an unknown or already-removed id is a no-op. A Flow reference
  // stays valid until that flow is removed, whatever other flows are added
  // or removed meanwhile (the engine caches Flow pointers and writes its
  // demands through them).

  FlowId add_stream_flow(SiteId from, SiteId to);
  FlowId add_bulk_flow(SiteId from, SiteId to, double size_mb);
  void remove_flow(FlowId id);
  // Sets a stream flow's offered load, clamped at 0, and marks the flow
  // changed when the clamped value differs from the stored one. The Flow&
  // form skips the id lookup; `flow` must be a live stream flow of this
  // network. Each call writes only its own flow, so calls on distinct flows
  // may run in parallel.
  void set_stream_demand(FlowId id, double mbps);
  void set_stream_demand(const Flow& flow, double mbps);

  [[nodiscard]] const Flow& flow(FlowId id) const {
    return flows_[slot(id)];
  }
  [[nodiscard]] bool has_flow(FlowId id) const {
    const auto i = static_cast<std::size_t>(id.value());
    return id.valid() && i < slot_of_.size() && slot_of_[i] >= 0;
  }

  // Computes the max-min fair allocation of every link's capacity at time
  // `t` among its flows, then advances bulk transfers by `dt` seconds.
  // Stream allocations are readable via flow().allocated_mbps until the next
  // call. A link whose fill inputs are unchanged since its last fill keeps
  // its allocations without a refill (the fill is a pure function of them).
  void step(double t, double dt);

  // Sum of allocated bandwidth on the directed link from -> to (Mbps) as of
  // the last step(); used by monitors and tests. Flows added since count 0,
  // removed ones not at all.
  [[nodiscard]] double link_allocated(SiteId from, SiteId to) const;

  // The record of the directed link from -> to: the capacity its flows
  // shared at the last step(), and link_allocated(). A link without flows
  // reads allocated 0 and the capacity of the last step that had a flow on
  // it. Read-only, so parallel chunks may call it, but only after
  // sync_links() once flows were added or removed since the last step().
  [[nodiscard]] const LinkRecord& link(SiteId from, SiteId to) const {
    assert(!link_groups_dirty_);
    return links_[link_key(from, to)];
  }
  // Regroups flows added or removed since the last step() and re-sums their
  // links' records -- the rebuild link_allocated() runs on demand. Serial.
  void sync_links() { ensure_link_groups(); }

  // Live flows (a removed flow's slot does not count).
  [[nodiscard]] std::size_t num_flows() const {
    return flows_.size() - free_slots_.size();
  }

  // Number of unfinished bulk transfers; a clean shutdown (and a clean
  // chaos run) ends with zero.
  [[nodiscard]] std::size_t num_bulk_flows() const;

  // Optional trace hook (non-owning; may be null). step() emits one
  // "link_alloc" event per WAN link with a live flow, in ascending
  // (from, to) order, then one "bulk_done" event per bulk (migration)
  // transfer that completed, in ascending flow id.
  void set_trace(obs::TraceEmitter* trace) { trace_ = trace; }
  [[nodiscard]] obs::TraceEmitter* trace() const { return trace_; }

  // Optional intra-run executor (non-owning; null = serial). From 1,024
  // flows on, step() chunks its per-link waterfills across the pool, traced
  // or not (fewer run their chunks inline, in order): links are
  // independent (each flow belongs to exactly one link group), and each
  // link's fill is computed by exactly one chunk over its flows in ascending
  // id, so allocations are bit-identical for any thread count. Trace events
  // are emitted serially after the fill.
  void set_pool(exec::ThreadPool* pool) { pool_ = pool; }
  [[nodiscard]] exec::ThreadPool* pool() const { return pool_; }

 private:
  // Flows grouped by directed link (local from == to links included),
  // cached across step() calls. Flow churn (placement changes, migrations)
  // is orders of magnitude rarer than ticks, so add/remove only mark the
  // cache dirty and the grouping is rebuilt lazily at the next use -- a
  // whole topology's worth of channels can be registered in O(F log F)
  // instead of O(F^2). Groups are in ascending (from, to) order and each
  // group's flows in ascending FlowId, so every fill, sum and event order
  // follows ids, never hash-table order. A group's capacity and allocation
  // sum live in its link's record (links_).
  struct LinkGroup {
    SiteId from;
    SiteId to;
    std::size_t begin = 0;  // [begin, end) of link_flows_
    std::size_t end = 0;
    std::size_t live = 0;  // unfinished flows at the last fill
    bool filled = false;   // false until the first fill after the rebuild
  };
  void rebuild_link_groups();
  void ensure_link_groups() {
    if (link_groups_dirty_) rebuild_link_groups();
  }
  [[nodiscard]] std::span<Flow* const> flows_of(const LinkGroup& g) const {
    return std::span(link_flows_).subspan(g.begin, g.end - g.begin);
  }
  [[nodiscard]] std::size_t link_key(SiteId from, SiteId to) const {
    return static_cast<std::size_t>(from.value()) * topology_.num_sites() +
           static_cast<std::size_t>(to.value());
  }
  // Whether `g`, whose record is `link`, must be refilled at
  // `capacity_mbps` (see step()).
  [[nodiscard]] bool needs_fill(const LinkGroup& g, const LinkRecord& link,
                                double capacity_mbps) const;
  // Allocates one group's flows at `capacity_mbps` (see step()); `active`
  // is the calling chunk's scratch.
  void fill_link(LinkGroup& g, double capacity_mbps,
                 std::vector<Flow*>& active);
  // The group's allocations summed in id order.
  [[nodiscard]] double allocated_sum(const LinkGroup& g) const;
  // Stores `f` under the next FlowId, in a free slot if there is one.
  FlowId add_flow(Flow f);
  [[nodiscard]] std::size_t slot(FlowId id) const {
    assert(has_flow(id));
    return static_cast<std::size_t>(
        slot_of_[static_cast<std::size_t>(id.value())]);
  }

  Topology topology_;
  std::shared_ptr<const BandwidthModel> model_;
  std::vector<char> link_partitioned_;  // num_sites^2, row-major from*n+to
  std::vector<char> site_down_;         // num_sites
  // Flow store: slots with stable addresses (a deque never moves its
  // elements when it grows). A removed flow's slot holds an invalid id and
  // goes on a LIFO free list for the next add; slot_of_ maps a FlowId value
  // to its slot, -1 once the flow is removed. Slot order is never used for
  // a value, an event or an order: rebuild_link_groups() sorts by id.
  std::deque<Flow> flows_;
  std::vector<std::int32_t> free_slots_;
  std::vector<std::int32_t> slot_of_;  // one entry per FlowId ever issued
  std::vector<Flow*> link_flows_;        // every flow, by (from, to, id)
  std::vector<LinkGroup> link_groups_;   // by (from, to)
  // One record per directed link, row-major from*n+to: num_sites^2 entries,
  // allocated by the first rebuild.
  std::vector<LinkRecord> links_;
  std::vector<Flow*> bulk_flows_;        // bulk flows, by id
  // Per-chunk waterfill working set (persists across steps; no allocation
  // after warm-up). One slot per link-group chunk.
  std::vector<std::vector<Flow*>> wf_scratch_;
  exec::ThreadPool* pool_ = nullptr;
  bool link_groups_dirty_ = true;
  obs::TraceEmitter* trace_ = nullptr;
};

}  // namespace wasp::net
