#include "net/network.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

#include "common/units.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"

namespace wasp::net {
namespace {

// Link groups per parallel-region chunk of step(). A layout constant (never
// a function of the worker count): chunk boundaries must be identical for
// --threads 1 and --threads N.
constexpr std::size_t kLinkChunk = 16;
// Flows from which step() hands its fills to the pool; below it the chunks
// run inline in index order, bit-identical to a pooled step by
// construction. Like the engine's kPoolMinChannels this is not a cost
// crossover (the pool lost at every measured size, DESIGN.md §11): it keeps
// every shipped workload inline and the pooled path reachable by tests.
// A layout constant too.
constexpr std::size_t kPoolMinFlows = 1024;

}  // namespace

Network::Network(Topology topology, std::shared_ptr<const BandwidthModel> model)
    : topology_(std::move(topology)),
      model_(std::move(model)),
      link_partitioned_(topology_.num_sites() * topology_.num_sites(), 0),
      site_down_(topology_.num_sites(), 0) {
  assert(model_ != nullptr);
}

double Network::capacity(SiteId from, SiteId to, double t) const {
  if (link_partitioned(from, to) || site_down(from) || site_down(to)) {
    return 0.0;
  }
  return topology_.base_bandwidth(from, to) * model_->factor(from, to, t);
}

void Network::set_link_partitioned(SiteId from, SiteId to, bool partitioned) {
  const auto n = static_cast<std::size_t>(topology_.num_sites());
  const auto f = static_cast<std::size_t>(from.value());
  const auto d = static_cast<std::size_t>(to.value());
  assert(f < n && d < n);
  link_partitioned_[f * n + d] = partitioned ? 1 : 0;
}

bool Network::link_partitioned(SiteId from, SiteId to) const {
  const auto n = static_cast<std::size_t>(topology_.num_sites());
  const auto f = static_cast<std::size_t>(from.value());
  const auto d = static_cast<std::size_t>(to.value());
  assert(f < n && d < n);
  return link_partitioned_[f * n + d] != 0;
}

void Network::set_site_down(SiteId site, bool down) {
  const auto s = static_cast<std::size_t>(site.value());
  assert(s < site_down_.size());
  site_down_[s] = down ? 1 : 0;
}

bool Network::site_down(SiteId site) const {
  const auto s = static_cast<std::size_t>(site.value());
  assert(s < site_down_.size());
  return site_down_[s] != 0;
}

FlowId Network::add_flow(Flow f) {
  f.id = FlowId(static_cast<std::int64_t>(slot_of_.size()));
  std::int32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::int32_t>(flows_.size());
    flows_.push_back(f);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    flows_[static_cast<std::size_t>(slot)] = f;
  }
  slot_of_.push_back(slot);
  link_groups_dirty_ = true;
  return f.id;
}

FlowId Network::add_stream_flow(SiteId from, SiteId to) {
  return add_flow(
      Flow{FlowId(), from, to, FlowKind::kStream, 0.0, 0.0, 0.0, false});
}

FlowId Network::add_bulk_flow(SiteId from, SiteId to, double size_mb) {
  return add_flow(Flow{FlowId(), from, to, FlowKind::kBulk, 0.0, 0.0,
                       size_mb, size_mb <= 0.0});
}

void Network::remove_flow(FlowId id) {
  if (!has_flow(id)) return;
  std::int32_t& slot = slot_of_[static_cast<std::size_t>(id.value())];
  flows_[static_cast<std::size_t>(slot)] = Flow{};  // invalid id: free
  free_slots_.push_back(slot);
  slot = -1;
  link_groups_dirty_ = true;
}

void Network::rebuild_link_groups() {
  // Sized once, by the first rebuild.
  links_.resize(topology_.num_sites() * topology_.num_sites());
  for (const LinkGroup& g : link_groups_) {
    links_[link_key(g.from, g.to)].allocated_mbps = 0.0;  // unless re-summed
  }
  link_flows_.clear();
  link_groups_.clear();
  bulk_flows_.clear();
  // The slot walk only collects; the sort fixes the order (ids are unique,
  // so the order is total and independent of which slot holds which flow).
  for (Flow& f : flows_) {
    if (f.id.valid()) link_flows_.push_back(&f);
  }
  std::sort(link_flows_.begin(), link_flows_.end(),
            [](const Flow* a, const Flow* b) {
              if (a->from != b->from) return a->from < b->from;
              if (a->to != b->to) return a->to < b->to;
              return a->id < b->id;
            });
  for (std::size_t i = 0; i < link_flows_.size(); ++i) {
    const Flow& f = *link_flows_[i];
    if (link_groups_.empty() || link_groups_.back().from != f.from ||
        link_groups_.back().to != f.to) {
      link_groups_.push_back(LinkGroup{f.from, f.to, i, i});
    }
    link_groups_.back().end = i + 1;
    if (f.kind == FlowKind::kBulk) bulk_flows_.push_back(link_flows_[i]);
  }
  std::sort(bulk_flows_.begin(), bulk_flows_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
  // The records now sum the new groups: a removed flow drops out and a new
  // one adds its 0, exactly as a sum taken at read time would.
  for (const LinkGroup& g : link_groups_) {
    links_[link_key(g.from, g.to)].allocated_mbps = allocated_sum(g);
  }
  link_groups_dirty_ = false;
}

void Network::set_stream_demand(FlowId id, double mbps) {
  set_stream_demand(flows_[slot(id)], mbps);
}

void Network::set_stream_demand(const Flow& flow, double mbps) {
  assert(has_flow(flow.id) && &flows_[slot(flow.id)] == &flow);
  assert(flow.kind == FlowKind::kStream);
  // flows_ holds its flows non-const; callers only see them as const.
  Flow& f = const_cast<Flow&>(flow);
  const double demand = std::max(0.0, mbps);
  if (std::bit_cast<std::uint64_t>(demand) !=
      std::bit_cast<std::uint64_t>(f.demand_mbps)) {
    f.demand_mbps = demand;
    f.changed = true;
  }
}

double Network::allocated_sum(const LinkGroup& g) const {
  double total = 0.0;
  for (const Flow* f : flows_of(g)) total += f->allocated_mbps;
  return total;
}

bool Network::needs_fill(const LinkGroup& g, const LinkRecord& link,
                         double capacity_mbps) const {
  // A local fill ignores capacity but reads site_down(from); there are few
  // local groups, so they always refill.
  if (!g.filled || g.from == g.to) return true;
  // Bit patterns, not values: equal bits (even a NaN's) feed the fill the
  // same input, and 0.0 vs -0.0 refills.
  if (std::bit_cast<std::uint64_t>(capacity_mbps) !=
      std::bit_cast<std::uint64_t>(link.capacity_mbps)) {
    return true;
  }
  for (const Flow* f : flows_of(g)) {
    if (f->changed) return true;
  }
  return false;
}

void Network::fill_link(LinkGroup& g, double capacity_mbps,
                        std::vector<Flow*>& active) {
  g.filled = true;
  if (g.from == g.to) {
    // Local transfers are unconstrained unless the site is down.
    for (Flow* f : flows_of(g)) {
      f->changed = false;
      if (f->kind == FlowKind::kBulk && f->done) {
        f->allocated_mbps = 0.0;
      } else if (site_down(f->from)) {
        f->allocated_mbps = 0.0;
      } else {
        f->allocated_mbps = f->kind == FlowKind::kStream ? f->demand_mbps
                                                         : kLocalBandwidthMbps;
      }
    }
    return;
  }
  // Classic progressive filling over the unfinished flows, in id order.
  // Bulk flows have unbounded demand and end up with an equal split of
  // whatever streams leave unused. The working set is compacted in place
  // (stably, so the fill order stays the id order) inside the chunk's
  // scratch: no allocation after warm-up.
  active.clear();
  for (Flow* f : flows_of(g)) {
    f->changed = false;
    f->allocated_mbps = 0.0;
    if (f->kind == FlowKind::kStream || !f->done) active.push_back(f);
  }
  g.live = active.size();
  double remaining = capacity_mbps;
  while (!active.empty() && remaining > 1e-12) {
    const double share = remaining / static_cast<double>(active.size());
    bool anyone_satisfied = false;
    std::size_t kept = 0;
    for (Flow* f : active) {
      const bool bounded = f->kind == FlowKind::kStream;
      const double want = bounded ? f->demand_mbps - f->allocated_mbps
                                  : std::numeric_limits<double>::infinity();
      if (bounded && want <= share) {
        f->allocated_mbps += want;
        remaining -= want;
        anyone_satisfied = true;
      } else {
        active[kept++] = f;
      }
    }
    active.resize(kept);
    if (!anyone_satisfied) {
      // Everyone wants at least the equal share: split evenly and stop.
      const double each = remaining / static_cast<double>(active.size());
      for (Flow* f : active) f->allocated_mbps += each;
      break;
    }
  }
}

void Network::step(double t, double dt) {
  ensure_link_groups();
  // Links are independent (each flow belongs to exactly one group), so the
  // per-link fills fan out across the pool in fixed chunks of the group
  // order. Each link is computed by exactly one chunk, over its flows in id
  // order -- allocations are bit-identical for any thread count.
  //
  // A fill is a pure function of its link's capacity, its flows' kinds,
  // demands and done flags, and (local links) site_down(from). So a WAN link
  // is refilled only when one of them may have moved since its last fill:
  // its group is new (every group is, after a rebuild), its capacity's bit
  // pattern differs from the stored one (partitions, site-down flags and
  // the bandwidth model reach a WAN fill only through capacity()), or a
  // flow is marked changed (a new demand, a finished bulk transfer; the
  // fill clears the mark). Otherwise its flows, live count and record
  // already hold what a refill would write. Local links always refill.
  const std::size_t n_groups = link_groups_.size();
  const std::size_t n_chunks = (n_groups + kLinkChunk - 1) / kLinkChunk;
  if (wf_scratch_.size() < n_chunks) wf_scratch_.resize(n_chunks);
  const auto fill_chunk = [&](std::size_t c) {
    const std::size_t end = std::min(n_groups, (c + 1) * kLinkChunk);
    for (std::size_t gi = c * kLinkChunk; gi < end; ++gi) {
      LinkGroup& g = link_groups_[gi];
      LinkRecord& link = links_[link_key(g.from, g.to)];
      const double capacity_mbps = capacity(g.from, g.to, t);
      if (needs_fill(g, link, capacity_mbps)) {
        fill_link(g, capacity_mbps, wf_scratch_[c]);
        link.allocated_mbps = allocated_sum(g);
      }
      link.capacity_mbps = capacity_mbps;
    }
  };
  if (pool_ != nullptr && link_flows_.size() >= kPoolMinFlows) {
    pool_->parallel_for(n_chunks, fill_chunk);
  } else {
    for (std::size_t c = 0; c < n_chunks; ++c) fill_chunk(c);
  }

  const bool tracing = trace_ != nullptr && trace_->enabled();
  if (tracing) {
    for (const LinkGroup& g : link_groups_) {
      if (g.from == g.to || g.live == 0) continue;
      const LinkRecord& link = links_[link_key(g.from, g.to)];
      // Finished bulk flows hold exactly 0, so summing the whole group
      // equals summing its live flows.
      double stream_mbps = 0.0, bulk_mbps = 0.0;
      for (const Flow* f : flows_of(g)) {
        (f->kind == FlowKind::kStream ? stream_mbps : bulk_mbps) +=
            f->allocated_mbps;
      }
      trace_->event_at(t, "link_alloc")
          .num("from_site", static_cast<double>(g.from.value()))
          .num("to_site", static_cast<double>(g.to.value()))
          .num("capacity_mbps", link.capacity_mbps)
          .num("stream_mbps", stream_mbps)
          .num("bulk_mbps", bulk_mbps)
          .num("num_flows", static_cast<double>(g.live));
    }
  }

  // Advance bulk transfers.
  for (Flow* f : bulk_flows_) {
    if (f->done) continue;
    f->remaining_mb -= mbps_to_mb_per_sec(f->allocated_mbps) * dt;
    if (f->remaining_mb <= 1e-9) {
      f->remaining_mb = 0.0;
      f->done = true;
      f->changed = true;
      if (tracing) {
        trace_->event_at(t, "bulk_done")
            .num("flow", static_cast<double>(f->id.value()))
            .num("from_site", static_cast<double>(f->from.value()))
            .num("to_site", static_cast<double>(f->to.value()));
      }
    }
  }
}

std::size_t Network::num_bulk_flows() const {
  const_cast<Network*>(this)->ensure_link_groups();
  return static_cast<std::size_t>(std::count_if(
      bulk_flows_.begin(), bulk_flows_.end(),
      [](const Flow* f) { return !f->done; }));
}

double Network::link_allocated(SiteId from, SiteId to) const {
  // The grouping cache is logically const state (rebuilding it re-sums the
  // records and changes no observable allocation).
  const_cast<Network*>(this)->ensure_link_groups();
  return links_[link_key(from, to)].allocated_mbps;
}

}  // namespace wasp::net
