#include "oracle/micro_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.h"
#include "common/units.h"

namespace wasp::micro {
namespace {

// A survival draw that matches an arbitrary selectivity sigma >= 0: each
// record yields floor(sigma) copies plus one more with probability
// frac(sigma).
std::uint64_t copies_for(double sigma, Rng& rng) {
  const double whole = std::floor(sigma);
  const double frac = sigma - whole;
  std::uint64_t copies = static_cast<std::uint64_t>(whole);
  if (rng.uniform() < frac) ++copies;
  return copies;
}

}  // namespace

MicroEngine::MicroEngine(const query::LogicalPlan& logical,
                         const physical::PhysicalPlan& physical,
                         const net::Topology& topology, MicroConfig config)
    : logical_(logical),
      topology_(topology),
      config_(config),
      rng_(config.seed) {
  assert(logical_.validate().empty());
  groups_of_op_.resize(logical_.num_operators());
  for (const auto& op : logical_.operators()) {
    const auto op_index = static_cast<std::size_t>(op.id.value());
    const physical::Stage& stage = physical.stage_for(op.id);
    for (SiteId site : stage.placement.sites()) {
      TaskGroup group;
      group.op_index = op_index;
      group.site = site;
      group.servers = stage.placement.at(site);
      group.mean_service_sec = 1.0 / op.events_per_sec_per_slot;
      group.selectivity = op.selectivity;
      group.window_len_sec = op.window.length_sec;
      group.out_event_bytes = op.output_event_bytes;
      group.is_sink = op.is_sink();
      group.windowed = op.window.windowed();
      group.forward =
          op.output_partitioning == query::Partitioning::kForward;
      groups_of_op_[op_index].push_back(groups_.size());
      groups_.push_back(std::move(group));
    }
    if (op.is_source()) {
      for (SiteId site : stage.placement.sites()) {
        sources_.push_back(SourceGen{op_index, site, 0.0, 0});
      }
    }
  }

  // Resolve each generator's group once (the event loop hops straight to it
  // per record).
  for (SourceGen& gen : sources_) {
    gen.group = kNoGroup;
    for (const std::size_t g : groups_of_op_[gen.op_index]) {
      if (groups_[g].site == gen.site) {
        gen.group = g;
        break;
      }
    }
    // A source with no co-located task group would make the event loop index
    // groups_[kNoGroup]; fail loudly in Release too.
    check(gen.group != kNoGroup,
          "MicroEngine: source operator ", gen.op_index, " at site ",
          gen.site.value(), " has no task group placed on its own site");
  }

  // Routing tables: for every (operator, downstream) pair the receiver
  // groups and their server weights; for every sender group the co-located
  // forward target. Weights never change (the micro engine runs a fixed
  // deployment), so the per-record routing draw reuses these vectors.
  routes_.resize(logical_.num_operators());
  fwd_target_.assign(groups_.size(), {});
  for (const auto& op : logical_.operators()) {
    const auto op_index = static_cast<std::size_t>(op.id.value());
    for (OperatorId d : logical_.downstream(op.id)) {
      Route route;
      route.d_groups = groups_of_op_[static_cast<std::size_t>(d.value())];
      route.weights.reserve(route.d_groups.size());
      for (const std::size_t dg : route.d_groups) {
        route.weights.push_back(static_cast<double>(groups_[dg].servers));
      }
      routes_[op_index].push_back(std::move(route));
    }
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const std::vector<Route>& rts = routes_[groups_[g].op_index];
    fwd_target_[g].assign(rts.size(), kNoGroup);
    for (std::size_t ri = 0; ri < rts.size(); ++ri) {
      for (const std::size_t dg : rts[ri].d_groups) {
        if (groups_[dg].site == groups_[g].site) {
          fwd_target_[g][ri] = dg;
          break;
        }
      }
    }
  }

  // Dense link state. Bandwidth and latency are topology constants; the
  // transmission-time expression in deliver() keeps the exact operand order
  // of a direct topology query, so caching them is bit-neutral.
  num_sites_ = static_cast<std::size_t>(topology_.num_sites());
  link_busy_until_.assign(num_sites_ * num_sites_, 0.0);
  link_bw_mbps_.assign(num_sites_ * num_sites_, 0.0);
  link_latency_ms_.assign(num_sites_ * num_sites_, 0.0);
  for (std::size_t from = 0; from < num_sites_; ++from) {
    for (std::size_t to = 0; to < num_sites_; ++to) {
      if (from == to) continue;
      const SiteId sf(static_cast<std::int64_t>(from));
      const SiteId st(static_cast<std::int64_t>(to));
      link_bw_mbps_[from * num_sites_ + to] =
          topology_.base_bandwidth(sf, st);
      link_latency_ms_[from * num_sites_ + to] = topology_.latency_ms(sf, st);
    }
  }
}

void MicroEngine::set_source_rate(OperatorId source, SiteId site, double eps) {
  for (auto& gen : sources_) {
    if (gen.op_index == static_cast<std::size_t>(source.value()) &&
        gen.site == site) {
      gen.rate = eps;
      return;
    }
  }
  // Setting a rate on an undeployed (source, site) pair used to be a plain
  // assert, i.e. a silent no-op in Release builds: the caller's workload
  // pattern was quietly ignored and the run produced zero events from that
  // source. Fail loudly in every build type instead.
  check(false, "MicroEngine::set_source_rate: source operator ",
        source.value(), " is not deployed at site ", site.value());
}

void MicroEngine::ring_push(TaskGroup& g, double gen_time) {
  if (g.count == g.ring.size()) {
    // Grow to the next power of two, unrolling the ring to the front.
    const std::size_t old_cap = g.ring.size();
    std::vector<double> grown(old_cap == 0 ? 64 : old_cap * 2);
    for (std::size_t i = 0; i < g.count; ++i) {
      grown[i] = g.ring[(g.head + i) & (old_cap - 1)];
    }
    g.ring = std::move(grown);
    g.head = 0;
  }
  g.ring[(g.head + g.count) & (g.ring.size() - 1)] = gen_time;
  ++g.count;
}

double MicroEngine::ring_pop(TaskGroup& g) {
  const double gen_time = g.ring[g.head];
  g.head = (g.head + 1) & (g.ring.size() - 1);
  --g.count;
  return gen_time;
}

void MicroEngine::schedule(double time, EventKind kind, std::size_t a,
                           Record record) {
  const Event e{time, next_seq_++, kind, a, record};
  events_.push_back(e);
  std::size_t i = events_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!(events_[parent] > e)) break;
    events_[i] = events_[parent];
    i = parent;
  }
  events_[i] = e;
}

MicroEngine::Event MicroEngine::pop_event() {
  const Event top = events_.front();
  const Event last = events_.back();
  events_.pop_back();
  const std::size_t n = events_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t child = 4 * i + 1;
      if (child >= n) break;
      std::size_t best = child;
      const std::size_t end = std::min(child + 4, n);
      for (std::size_t j = child + 1; j < end; ++j) {
        if (events_[best] > events_[j]) best = j;
      }
      if (!(last > events_[best])) break;
      events_[i] = events_[best];
      i = best;
    }
    events_[i] = last;
  }
  return top;
}

void MicroEngine::enqueue_record(std::size_t group, double now,
                                 Record record) {
  TaskGroup& g = groups_[group];
  ring_push(g, record.gen_time);
  if (g.busy < g.servers) start_service(group, now);
}

void MicroEngine::start_service(std::size_t group, double now) {
  TaskGroup& g = groups_[group];
  if (g.count == 0 || g.busy >= g.servers) return;
  const Record record{ring_pop(g)};
  ++g.busy;
  const double service = config_.exponential_service
                             ? rng_.exponential(1.0 / g.mean_service_sec)
                             : g.mean_service_sec;
  schedule(now + service, EventKind::kServiceDone, group, record);
}

void MicroEngine::emit_downstream(std::size_t group, double now, Record record,
                                  std::uint64_t copies) {
  const TaskGroup& g = groups_[group];
  const std::vector<Route>& rts = routes_[g.op_index];
  const std::vector<std::size_t>& fwd = fwd_target_[group];
  for (std::size_t ri = 0; ri < rts.size(); ++ri) {
    const Route& rt = rts[ri];
    if (rt.d_groups.empty()) continue;
    // Routing: forward keeps the record local when a co-located receiver
    // exists; otherwise hash-partition across the receiver's tasks. The
    // weighted draw consumes exactly one uniform per routed record, the
    // same RNG schedule as rebuilding the weights per copy would have.
    const bool local = g.forward && fwd[ri] != kNoGroup;
    for (std::uint64_t c = 0; c < copies; ++c) {
      const std::size_t target =
          local ? fwd[ri] : rt.d_groups[rng_.weighted_index(rt.weights)];
      deliver(group, target, now, record);
    }
  }
}

void MicroEngine::deliver(std::size_t from_group, std::size_t to_group,
                          double now, Record record) {
  const TaskGroup& from = groups_[from_group];
  const TaskGroup& to = groups_[to_group];
  if (from.site == to.site) {
    enqueue_record(to_group, now, record);
    return;
  }
  // FIFO serialization on the directed link, then propagation.
  const std::size_t link =
      static_cast<std::size_t>(from.site.value()) * num_sites_ +
      static_cast<std::size_t>(to.site.value());
  const double bw = link_bw_mbps_[link];
  const double tx_sec = from.out_event_bytes * kBitsPerByte / (bw * 1e6);
  const double tx_start = std::max(now, link_busy_until_[link]);
  link_busy_until_[link] = tx_start + tx_sec;
  const double arrival = link_busy_until_[link] + link_latency_ms_[link] / 1e3;
  schedule(arrival, EventKind::kLinkDelivered, to_group, record);
}

MicroResults MicroEngine::run() {
  results_ = MicroResults{};
  const double measure_from = config_.horizon_sec / 2.0;
  std::uint64_t delivered_in_window = 0;
  events_.reserve(4096);

  // Prime source generation and window boundaries.
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    if (sources_[s].rate > 0.0) {
      schedule(0.0, EventKind::kGenerate, s, Record{});
    }
  }
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g].windowed) {
      schedule(groups_[g].window_len_sec, EventKind::kWindowBoundary, g,
               Record{});
    }
  }

  while (!events_.empty()) {
    const Event event = pop_event();
    if (event.time > config_.horizon_sec) break;
    const double now = event.time;

    switch (event.kind) {
      case EventKind::kGenerate: {
        SourceGen& gen = sources_[event.a];
        ++results_.generated;
        Record record{now};
        enqueue_record(gen.group, now, record);
        const double gap = config_.poisson_arrivals
                               ? rng_.exponential(gen.rate)
                               : 1.0 / gen.rate;
        schedule(now + gap, EventKind::kGenerate, event.a, Record{});
        break;
      }
      case EventKind::kServiceDone: {
        TaskGroup& g = groups_[event.a];
        --g.busy;
        if (g.is_sink) {
          ++results_.delivered;
          if (now >= measure_from) {
            ++delivered_in_window;
            results_.latency.add(now - event.record.gen_time);
          }
        } else if (g.windowed) {
          // Buffer into the open window; emission happens at the boundary.
          ++g.window_count;
          g.window_latest_gen =
              std::max(g.window_latest_gen, event.record.gen_time);
        } else {
          emit_downstream(event.a, now, event.record,
                          copies_for(g.selectivity, rng_));
        }
        start_service(event.a, now);
        break;
      }
      case EventKind::kLinkDelivered:
        enqueue_record(event.a, now, event.record);
        break;
      case EventKind::kWindowBoundary: {
        TaskGroup& g = groups_[event.a];
        if (g.window_count > 0) {
          // §8.3 semantics: aggregates carry the latest contained event
          // time; output volume follows the selectivity.
          const auto outputs = static_cast<std::uint64_t>(std::ceil(
              g.selectivity * static_cast<double>(g.window_count)));
          Record aggregate{g.window_latest_gen};
          emit_downstream(event.a, now, aggregate, outputs);
          g.window_count = 0;
          g.window_latest_gen = 0.0;
        }
        schedule(now + g.window_len_sec, EventKind::kWindowBoundary, event.a,
                 Record{});
        break;
      }
    }
  }

  const double window = config_.horizon_sec - measure_from;
  results_.sink_eps =
      window > 0.0 ? static_cast<double>(delivered_in_window) / window : 0.0;
  return results_;
}

}  // namespace wasp::micro
