#include "engine/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/log.h"
#include "common/units.h"
#include "engine/kernels.h"
#include "exec/thread_pool.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wasp::engine {
namespace {

// Delay estimates are capped so a fully stalled pipeline reports "hours",
// not infinity (keeps CDFs and log-scale plots well-behaved).
constexpr double kMaxDelaySec = 1e5;

// Channels per parallel-region chunk. A layout constant, deliberately not a
// function of the worker count: chunk boundaries (and therefore which data
// each chunk touches) must be identical for --threads 1 and --threads N.
constexpr std::size_t kChanChunk = 512;
// Channels from which run_region hands its chunks to the pool (two full
// chunks); below it the chunks run inline in index order, bit-identical to
// a pooled run by construction. This is not a cost crossover: on a 4-core
// host the pool at 4 threads was slower than inline at every size measured,
// from 37 to 14.6k channels (t4/t1 0.18-0.65, DESIGN.md §11). The floor
// keeps every shipped workload inline and leaves the pooled path to the
// tests that build data planes above it. A layout constant like kChanChunk.
constexpr std::size_t kPoolMinChannels = 2 * kChanChunk;

// Bounded buffers. A channel accepts new output only while its queue is
// below kChannelBufferSec seconds of its observed drain rate plus a floor --
// like Flink's byte-bounded network buffers, scaled to what the link
// actually sustains. An input queue absorbs up to one tick of the group's
// processing capacity plus a floor. Sustained bottlenecks therefore
// propagate backpressure to the sources within seconds, and the overload
// backlog accumulates in the replayable source, where its age drives the
// event-time delay -- exactly as in the paper's prototype.
constexpr double kChannelBufferSec = 2.0;
constexpr double kChannelBufferFloorEvents = 5'000.0;
constexpr double kInputBufferFloorEvents = 10'000.0;

// Local checkpoint restore throughput (MB/s) after a failure (§5:
// localized checkpointing makes restore a local, fast operation).
constexpr double kLocalRestoreMbPerSec = 200.0;
constexpr double kCheckpointIntervalSec = 30.0;
// Tiered checkpoints: every Nth checkpoint is a full snapshot; the ones
// between record only dirty-group deltas, so checkpoint cost scales with
// the change rate instead of total state size (DESIGN.md §12).
constexpr int kFullCheckpointEvery = 5;

}  // namespace

Engine::Engine(query::LogicalPlan logical, physical::PhysicalPlan physical,
               net::Network& network, EngineConfig config)
    : logical_(std::move(logical)),
      physical_(std::move(physical)),
      network_(network),
      config_(config) {
  check(logical_.validate().empty(),
        "engine: constructed with an invalid logical plan");
  failed_sites_.assign(network_.topology().num_sites(), false);
  straggler_factor_.assign(network_.topology().num_sites(), 1.0);
  build_runtime();
  refresh_source_runtime();
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    mh_.ticks = &reg.counter("engine.ticks");
    mh_.delay_sec = &reg.gauge("engine.delay_sec");
    mh_.generated_eps = &reg.gauge("engine.generated_eps");
    mh_.admitted_eps = &reg.gauge("engine.admitted_eps");
    mh_.sink_eps = &reg.gauge("engine.sink_eps");
    mh_.processing_ratio = &reg.gauge("engine.processing_ratio");
    mh_.source_backlog = &reg.gauge("engine.source_backlog_events");
    mh_.backpressured_stages = &reg.gauge("engine.backpressured_stages");
    mh_.dropped_events = &reg.counter("engine.dropped_events");
    mh_.checkpoints = &reg.counter("engine.checkpoints");
  }
}

Engine::~Engine() { teardown_channels(); }

void Engine::build_runtime() {
  num_sites_ = network_.topology().num_sites();
  num_stages_ = logical_.num_operators();
  const std::size_t num_groups = num_stages_ * num_sites_;

  stage_eps_per_slot_.assign(num_stages_, 0.0);
  stage_selectivity_.assign(num_stages_, 1.0);
  stage_window_len_.assign(num_stages_, 0.0);
  stage_base_mb_.assign(num_stages_, 0.0);
  stage_mb_per_kevent_.assign(num_stages_, 0.0);
  stage_fixed_mb_.assign(num_stages_, -1.0);
  stage_is_source_.assign(num_stages_, 0);
  stage_is_sink_.assign(num_stages_, 0);
  stage_stateful_.assign(num_stages_, 0);
  stage_windowed_.assign(num_stages_, 0);
  stage_forward_.assign(num_stages_, 0);

  stage_placement_.assign(num_stages_, physical::StagePlacement{});
  stage_parallelism_.assign(num_stages_, 0);
  stage_suspended_.assign(num_stages_, 0);
  stage_backpressured_.assign(num_stages_, 0);
  stage_state_override_.assign(num_stages_, -1.0);
  stage_skew_.assign(num_stages_, 1.0);
  stage_skew_site_.assign(num_stages_, -1);
  stage_processed_.assign(num_stages_, 0.0);
  stage_emitted_.assign(num_stages_, 0.0);
  stage_arrived_.assign(num_stages_, 0.0);
  stage_tracker_.assign(num_stages_, nullptr);

  g_tasks_.assign(num_groups, 0);
  g_input_queue_.assign(num_groups, 0.0);
  g_window_events_.assign(num_groups, 0.0);
  g_restore_until_.assign(num_groups, -1.0);
  g_processed_prev_.assign(num_groups, 0.0);
  g_source_rate_.assign(num_groups, 0.0);
  g_capacity_.assign(num_groups, 0.0);
  proc_scratch_.assign(num_groups, 0.0);
  bp_scratch_.assign(num_groups, 0);

  for (const auto& op : logical_.operators()) {
    const auto i = static_cast<std::size_t>(op.id.value());
    stage_eps_per_slot_[i] = op.events_per_sec_per_slot;
    stage_selectivity_[i] = op.selectivity;
    stage_window_len_[i] = op.window.length_sec;
    stage_base_mb_[i] = op.state.base_mb;
    stage_mb_per_kevent_[i] = op.state.mb_per_kevent;
    stage_fixed_mb_[i] = op.state.fixed_mb;
    stage_is_source_[i] = op.is_source() ? 1 : 0;
    stage_is_sink_[i] = op.is_sink() ? 1 : 0;
    stage_stateful_[i] = op.stateful() ? 1 : 0;
    stage_windowed_[i] = op.window.windowed() ? 1 : 0;
    stage_forward_[i] =
        op.output_partitioning == query::Partitioning::kForward ? 1 : 0;

    const physical::StagePlacement& placement =
        physical_.stage_for(op.id).placement;
    stage_placement_[i] = placement;
    stage_parallelism_[i] = placement.parallelism();
    for (std::size_t s = 0; s < num_sites_; ++s) {
      g_tasks_[gid(i, s)] = placement.per_site[s];
    }
  }

  topo_order_.clear();
  for (OperatorId id : logical_.topological_order()) {
    topo_order_.push_back(static_cast<std::size_t>(id.value()));
  }
  source_ids_ = logical_.sources();

  teardown_channels();
  for (const auto& op : logical_.operators()) {
    for (OperatorId d : logical_.downstream(op.id)) {
      append_edge(static_cast<std::size_t>(op.id.value()),
                  static_cast<std::size_t>(d.value()), 0.0, 0.0);
    }
  }
  rebuild_channel_indexes();

  checkpointed_state_.assign(num_groups, 0.0);
  checkpointed_window_.assign(num_groups, 0.0);
  rebuild_stage_sites();
}

void Engine::rebuild_stage_sites() {
  ss_off_.assign(num_stages_ + 1, 0);
  ss_ids_.clear();
  for (std::size_t i = 0; i < num_stages_; ++i) {
    for (std::size_t s = 0; s < num_sites_; ++s) {
      if (g_tasks_[gid(i, s)] > 0) {
        ss_ids_.push_back(static_cast<std::uint32_t>(s));
      }
    }
    ss_off_[i + 1] = static_cast<std::uint32_t>(ss_ids_.size());
  }
}

void Engine::teardown_channels() {
  for (const ChannelDesc& c : chan_) {
    if (c.flow.valid() && network_.has_flow(c.flow)) {
      network_.remove_flow(c.flow);
    }
  }
  chan_.clear();
  c_queue_.clear();
  c_offered_.clear();
  c_delivered_.clear();
  c_delivered_prev_.clear();
  c_event_bytes_.clear();
  c_share_.clear();
  c_flow_.clear();
  c_to_stage_.clear();
}

void Engine::append_edge(std::size_t from_stage, std::size_t to_stage,
                         double queue, double drain) {
  const physical::StagePlacement& fp = stage_placement_[from_stage];
  const physical::StagePlacement& tp = stage_placement_[to_stage];
  const int p_from = fp.parallelism();
  const int p_to = tp.parallelism();
  if (p_from == 0 || p_to == 0) return;
  const double event_bytes =
      logical_.op(OperatorId(static_cast<std::int64_t>(from_stage)))
          .output_event_bytes;
  // Seed both delivery fields: tick() derives delivered_prev from
  // `delivered` at the start of the next tick when the receiver is live (so
  // a seed in delivered_prev alone would be clobbered by the fresh channel's
  // zero), while a still-suspended receiver skips that update and reads
  // delivered_prev directly.
  const auto append = [&](SiteId su, SiteId sd, double share) {
    append_channel(from_stage, to_stage, su, sd, event_bytes, queue * share,
                   drain * share, drain * share);
  };
  const std::vector<SiteId> to_sites = tp.sites();
  for (SiteId su : fp.sites()) {
    const double from_share = static_cast<double>(fp.at(su)) / p_from;
    if (chained(from_stage, to_stage, static_cast<std::size_t>(su.value()))) {
      append(su, su, from_share);
      continue;
    }
    for (SiteId sd : to_sites) {
      append(su, sd, from_share * (static_cast<double>(tp.at(sd)) / p_to));
    }
  }
}

void Engine::append_channel(std::size_t from_stage, std::size_t to_stage,
                            SiteId su, SiteId sd, double event_bytes,
                            double queue, double delivered,
                            double delivered_prev) {
  ChannelDesc c;
  c.from_stage = static_cast<std::int32_t>(from_stage);
  c.to_stage = static_cast<std::int32_t>(to_stage);
  c.from_site = static_cast<std::int32_t>(su.value());
  c.to_site = static_cast<std::int32_t>(sd.value());
  c.event_bytes = event_bytes;
  if (su != sd) c.flow = network_.add_stream_flow(su, sd);
  chan_.push_back(c);
  c_queue_.push_back(queue);
  c_offered_.push_back(0.0);
  c_delivered_.push_back(delivered);
  c_delivered_prev_.push_back(delivered_prev);
  c_event_bytes_.push_back(event_bytes);
  c_share_.push_back(0.0);
  c_flow_.push_back(nullptr);
  c_to_stage_.push_back(c.to_stage);
}

void Engine::rebuild_channel_indexes() {
  const std::size_t n = chan_.size();
  want_by_channel_.assign(n, 0.0);
  d_qexcess_.assign(n, 0.0);
  d_weight_.assign(n, 0.0);
  d_wlat_.assign(n, 0.0);
  d_linkeps_.assign(n, 0.0);
  c_latency_ms_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c_to_stage_[i] = chan_[i].to_stage;
    c_flow_[i] = chan_[i].flow.valid() ? &network_.flow(chan_[i].flow)
                                       : nullptr;
    c_latency_ms_[i] = network_.latency_ms(SiteId(chan_[i].from_site),
                                           SiteId(chan_[i].to_site));
  }

  // Counting-sort CSR build: bucket lists come out in ascending channel-id
  // order, the order a filtered scan of the channel vector visits.
  const auto build_csr = [n](std::vector<std::uint32_t>& off,
                             std::vector<std::uint32_t>& ids,
                             std::size_t num_buckets, auto&& key_of) {
    off.assign(num_buckets + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++off[key_of(i) + 1];
    for (std::size_t b = 0; b < num_buckets; ++b) off[b + 1] += off[b];
    ids.resize(n);
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      ids[cursor[key_of(i)]++] = static_cast<std::uint32_t>(i);
    }
  };
  build_csr(in_off_, in_ids_, num_stages_ * num_sites_, [this](std::size_t i) {
    return static_cast<std::size_t>(chan_[i].to_stage) * num_sites_ +
           static_cast<std::size_t>(chan_[i].to_site);
  });
  build_csr(out_off_, out_ids_, num_stages_ * num_sites_,
            [this](std::size_t i) {
              return static_cast<std::size_t>(chan_[i].from_stage) *
                         num_sites_ +
                     static_cast<std::size_t>(chan_[i].from_site);
            });
  build_csr(edge_off_, edge_ids_, num_stages_ * num_stages_,
            [this](std::size_t i) {
              return static_cast<std::size_t>(chan_[i].from_stage) *
                         num_stages_ +
                     static_cast<std::size_t>(chan_[i].to_stage);
            });
  build_csr(sin_off_, sin_ids_, num_stages_, [this](std::size_t i) {
    return static_cast<std::size_t>(chan_[i].to_stage);
  });

  recompute_channel_shares();
}

double Engine::compute_channel_share(std::size_t ci) const {
  // Share of the sending group's output routed through channel `ci`:
  // all of it on a chained edge (whose only channel at the sender's site is
  // the local one), hash partitioning otherwise -- balanced by task count,
  // except that an injected key skew over-weights the pinned hot site.
  const ChannelDesc& c = chan_[ci];
  const auto down = static_cast<std::size_t>(c.to_stage);
  const physical::StagePlacement& dp = stage_placement_[down];
  const int p_down = stage_parallelism_[down];
  if (p_down == 0) return 0.0;
  if (chained(static_cast<std::size_t>(c.from_stage), down,
              static_cast<std::size_t>(c.from_site))) {
    assert(c.to_site == c.from_site);
    return 1.0;
  }
  // Hot site: the pinned skew site while it still hosts tasks, else the
  // lowest-indexed hosting site (also the unpinned default, which matches
  // the neutral skew of 1.0 exactly).
  std::int32_t hot = stage_skew_site_[down];
  if (hot < 0 || dp.per_site[static_cast<std::size_t>(hot)] == 0) {
    hot = first_hosting_site(down);
  }
  double total = 0.0;
  double my_weight = 0.0;
  for (std::size_t sd = 0; sd < dp.per_site.size(); ++sd) {
    if (dp.per_site[sd] == 0) continue;
    const double w =
        static_cast<double>(dp.per_site[sd]) *
        (static_cast<std::int32_t>(sd) == hot ? stage_skew_[down] : 1.0);
    if (sd == static_cast<std::size_t>(c.to_site)) my_weight = w;
    total += w;
  }
  return total > 0.0 ? my_weight / total : 0.0;
}

std::int32_t Engine::first_hosting_site(std::size_t stage) const {
  const std::vector<int>& per_site = stage_placement_[stage].per_site;
  for (std::size_t s = 0; s < per_site.size(); ++s) {
    if (per_site[s] > 0) return static_cast<std::int32_t>(s);
  }
  return -1;
}

void Engine::reanchor_skew(std::size_t stage) {
  std::int32_t& pin = stage_skew_site_[stage];
  if (pin >= 0 &&
      stage_placement_[stage].per_site[static_cast<std::size_t>(pin)] == 0) {
    pin = first_hosting_site(stage);
  }
}

void Engine::recompute_channel_shares() {
  for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
    c_share_[ci] = compute_channel_share(ci);
  }
}

void Engine::refresh_source_runtime() {
  // Eagerly create one tracker per live source and prune entries whose
  // signature no longer names a live source (a re-plan that removed a
  // source must not keep its stale cumulative curves around).
  stage_tracker_.assign(num_stages_, nullptr);
  for (OperatorId src : logical_.sources()) {
    const std::size_t i = stage_index(src);
    stage_tracker_[i] = &source_trackers_[logical_.signature(src)];
  }
  for (auto it = source_trackers_.begin(); it != source_trackers_.end();) {
    bool live = false;
    for (DelayTracker* t : stage_tracker_) {
      if (t == &it->second) {
        live = true;
        break;
      }
    }
    it = live ? std::next(it) : source_trackers_.erase(it);
  }
}

std::size_t Engine::stage_index(OperatorId op) const {
  const auto i = static_cast<std::size_t>(op.value());
  assert(i < num_stages_);
  return i;
}

double Engine::group_capacity_eps(std::size_t stage, std::size_t site) const {
  if (failed_sites_[site]) return 0.0;
  return g_tasks_[gid(stage, site)] * stage_eps_per_slot_[stage] *
         straggler_factor_[site];
}

void Engine::set_straggler(SiteId site, double factor) {
  check(factor >= 0.0, "engine: negative straggler factor ", factor,
        " for site ", site.value());
  straggler_factor_[static_cast<std::size_t>(site.value())] = factor;
}

double Engine::straggler_factor(SiteId site) const {
  return straggler_factor_[static_cast<std::size_t>(site.value())];
}

void Engine::set_source_rate(OperatorId source, SiteId site, double eps) {
  check(logical_.op(source).is_source(), "engine: set_source_rate on operator ",
        source.value(), ", which is not a source");
  g_source_rate_[gid(stage_index(source),
                     static_cast<std::size_t>(site.value()))] =
      std::max(0.0, eps);
}

double Engine::source_generation_eps(OperatorId source) const {
  const std::size_t i = stage_index(source);
  double total = 0.0;
  for (std::size_t s = 0; s < num_sites_; ++s) {
    total += g_source_rate_[gid(i, s)];
  }
  return total;
}

double Engine::source_backlog_events() const {
  double total = 0.0;
  for (const std::size_t idx : topo_order_) {
    if (stage_is_source_[idx] == 0) continue;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      total += g_input_queue_[gid(idx, s)];
    }
  }
  return total;
}

void Engine::apply_degrade_drops(double t) {
  const double dt = config_.tick_sec;
  for (const std::size_t idx : topo_order_) {
    if (stage_is_source_[idx] == 0) continue;
    DelayTracker& tracker = *stage_tracker_[idx];
    // Shed the backlog prefix that cannot meet the SLO (paper §8.4: Degrade
    // drops late events to hold the delay at the SLO). An event admitted
    // now still incurs the pipeline's downstream queueing, so the admission
    // age budget is the SLO minus the observed downstream delay.
    const double source_age = tracker.queueing_delay(t);
    const double downstream = std::max(0.0, prev_delay_sec_ - source_age);
    const double age_budget =
        std::max(0.5, config_.slo_sec - downstream);
    if (source_age <= age_budget) continue;
    double drop = std::max(0.0, tracker.generated_at(t - age_budget) -
                                    tracker.consumed_cum());
    double backlog = 0.0;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      backlog += g_input_queue_[gid(idx, s)];
    }
    drop = std::min(drop, backlog);
    if (drop <= 0.0) continue;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      if (backlog <= 0.0) break;
      const std::size_t gi = gid(idx, s);
      const double share = drop * (g_input_queue_[gi] / backlog);
      g_input_queue_[gi] -= share;
    }
    tracker.record_consumed(drop);
    last_.dropped_eps += drop / dt;
  }
}

void Engine::run_region(std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  if (config_.pool != nullptr && chan_.size() >= kPoolMinChannels) {
    config_.pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

// Fused deliver+process for one hosting site of `par_stage_` -- the region
// chunk of the per-stage pass. Legally reordered from the legacy
// "deliver_into(all sites) then process_stage(all sites)" sequence: a site's
// process step reads only state its own deliver step (or earlier topo
// stages) wrote -- in-channel and out-channel sets of one stage are disjoint
// (the plan is a DAG, no self-loops) and every per-gid array is touched only
// by its own site's chunk -- so fusing per site changes no value, and chunks
// for different sites are shared-nothing. Cross-site accumulators
// (stage_arrived_/stage_emitted_/total processed/backpressure) are NOT
// updated here; tick() recombines them serially in legacy operand order from
// c_delivered_ / proc_scratch_ / bp_scratch_.
void Engine::stage_site_chunk(std::size_t k) {
  const std::size_t stage_idx = par_stage_;
  const double t = now_;
  const double dt = config_.tick_sec;
  const std::size_t s = ss_ids_[ss_off_[stage_idx] + k];
  const std::size_t gi = gid(stage_idx, s);
  proc_scratch_[gi] = 0.0;
  bp_scratch_[gi] = 0;

  // --- deliver: ration the receiver's free input-buffer space over its
  // inbound channels, proportionally to what each channel can ship. ---
  const double capacity = g_capacity_[gi];
  const std::uint32_t ib = in_off_[gi];
  const std::uint32_t ie = in_off_[gi + 1];
  if (ib != ie && capacity > 0.0 && !(g_restore_until_[gi] > t)) {
    // The group accepts one tick's worth of processing capacity plus a
    // small floor: deliveries never throttle a keeping-up stage (nor slow a
    // post-adaptation catch-up burst), while an overloaded stage parks at
    // most ~one second of capacity before backpressure walks upstream to
    // the sources.
    const double input_cap = kInputBufferFloorEvents + capacity * dt;
    const double space = std::max(0.0, input_cap - g_input_queue_[gi]);
    if (space > 0.0) {
      double total_want = 0.0;
      for (std::uint32_t k2 = ib; k2 < ie; ++k2) {
        const std::size_t ci = in_ids_[k2];
        double transferable = c_queue_[ci];
        if (c_flow_[ci] != nullptr) {
          const double mbps = c_flow_[ci]->allocated_mbps;
          transferable =
              std::min(transferable,
                       events_per_sec_over(mbps, c_event_bytes_[ci]) * dt);
        }
        want_by_channel_[ci] = transferable;
        total_want += transferable;
      }
      if (total_want > 0.0) {
        const double factor = std::min(1.0, space / total_want);
        for (std::uint32_t k2 = ib; k2 < ie; ++k2) {
          const std::size_t ci = in_ids_[k2];
          const double moved = want_by_channel_[ci] * factor;
          c_queue_[ci] -= moved;
          c_delivered_[ci] += moved;
          g_input_queue_[gi] += moved;
        }
      }
    }
  }

  // --- process ---
  if (g_restore_until_[gi] > t) return;  // still replaying checkpoint
  g_restore_until_[gi] = -1.0;
  if (capacity <= 0.0) return;
  const double sel = stage_selectivity_[stage_idx];

  double proc = std::min(g_input_queue_[gi], capacity * dt);

  // Backpressure: output must fit the free space of every outbound
  // channel (CSR bucket of this group's channels, precomputed shares).
  const std::uint32_t ob = out_off_[gi];
  const std::uint32_t oe = out_off_[gi + 1];
  for (std::uint32_t k2 = ob; k2 < oe; ++k2) {
    const std::size_t ci = out_ids_[k2];
    const double share = c_share_[ci];
    if (share <= 0.0 || sel <= 0.0) continue;
    // A dead receiver (failed site) blocks its channels entirely. The
    // buffer bound scales with what the channel can actually drain: the
    // receiver's processing capacity for intra-site channels, the link's
    // current fair-share allocation for WAN channels. Both are exogenous
    // to the sender's own throttling, so backpressure releases as soon as
    // the underlying constraint does (no stop-go limit cycle).
    const auto down = static_cast<std::size_t>(chan_[ci].to_stage);
    const auto down_site = static_cast<std::size_t>(chan_[ci].to_site);
    const double down_capacity = g_capacity_[gid(down, down_site)];
    double chan_cap = 0.0;
    if (down_capacity > 0.0) {
      // The channel drains at the slower of the link's current allocation
      // and the receiver's processing capacity; a suspended receiver
      // drains nothing (execution halted -> only the floor buffers).
      double drain_eps = stage_suspended_[down] != 0 ? 0.0 : down_capacity;
      if (stage_suspended_[down] == 0 && c_flow_[ci] != nullptr) {
        // What the channel could drain next tick: its current allocation
        // plus the link's unused headroom (demand-driven allocations
        // under-report a lightly-loaded link's potential, which would
        // otherwise self-limit backlog draining).
        const net::LinkRecord& link = network_.link(
            SiteId(chan_[ci].from_site), SiteId(chan_[ci].to_site));
        const double headroom =
            std::max(0.0, link.capacity_mbps - link.allocated_mbps);
        // A freshly (re)built flow has allocated_mbps = 0 and, on a busy
        // link, near-zero headroom -- but the channel demonstrably drained
        // at delivered_prev last tick, so never estimate below that.
        const double link_eps = std::max(
            events_per_sec_over(c_flow_[ci]->allocated_mbps + headroom,
                                c_event_bytes_[ci]),
            c_delivered_prev_[ci] / dt);
        drain_eps = std::min(drain_eps, link_eps);
      }
      chan_cap = kChannelBufferFloorEvents + kChannelBufferSec * drain_eps;
    }
    const double space = std::max(0.0, chan_cap - c_queue_[ci]);
    const double max_proc = space / (sel * share);
    if (max_proc < proc) {
      proc = max_proc;
      bp_scratch_[gi] = 1;
    }
  }
  proc = std::max(0.0, proc);

  g_input_queue_[gi] -= proc;
  g_processed_prev_[gi] = proc;
  proc_scratch_[gi] = proc;

  // Window bookkeeping: state resets at tumbling-window boundaries.
  if (stage_windowed_[stage_idx] != 0) {
    const double w = stage_window_len_[stage_idx];
    if (std::fmod(t, w) < dt) g_window_events_[gi] = 0.0;
    g_window_events_[gi] += proc;
  } else if (stage_stateful_[stage_idx] != 0) {
    g_window_events_[gi] += proc;  // running state driver (joins w/o window)
  }

  // Emit.
  const double out = proc * sel;
  for (std::uint32_t k2 = ob; k2 < oe; ++k2) {
    const std::size_t ci = out_ids_[k2];
    const double pushed = out * c_share_[ci];
    if (pushed <= 0.0) continue;
    c_queue_[ci] += pushed;
    c_offered_[ci] += pushed;
  }
}

void Engine::flow_demand_chunk(std::size_t chunk) {
  const std::size_t n = chan_.size();
  const std::size_t begin = chunk * kChanChunk;
  const std::size_t end = std::min(n, begin + kChanChunk);
  const std::size_t len = end - begin;
  const double dt = config_.tick_sec;
  kernels::flow_demand_mbps(len, c_queue_.data() + begin,
                            c_event_bytes_.data() + begin, dt,
                            demand_scratch_.data() + begin);
  // Each channel owns a distinct flow (1:1 at append_channel), so the writes
  // are shared-nothing: set_stream_demand stores the demand and the flow's
  // change flag through the cached pointer, with no id lookup.
  for (std::size_t i = begin; i < end; ++i) {
    if (c_flow_[i] == nullptr) continue;
    network_.set_stream_demand(*c_flow_[i], demand_scratch_[i]);
  }
}

void Engine::set_flow_demands(double /*dt*/) {
  const std::size_t n = chan_.size();
  demand_scratch_.resize(n);
  run_region((n + kChanChunk - 1) / kChanChunk,
             [this](std::size_t chunk) { flow_demand_chunk(chunk); });
}

void Engine::delay_pre_chunk(std::size_t chunk) {
  // Per-channel terms of update_delay_metric's edge aggregations, computed
  // with the exact expressions the serial DP used inline; the DP then sums
  // the precomputed terms in the identical (ascending channel id) order.
  const std::size_t n = chan_.size();
  const std::size_t begin = chunk * kChanChunk;
  const std::size_t end = std::min(n, begin + kChanChunk);
  for (std::size_t ci = begin; ci < end; ++ci) {
    d_qexcess_[ci] = std::max(0.0, c_queue_[ci] - c_offered_[ci]);
    const double w = c_delivered_[ci] + c_offered_[ci] + 1e-9;
    d_weight_[ci] = w;
    d_wlat_[ci] = w * c_latency_ms_[ci];
    // A cross-site channel reads its link's record; an intra-site channel
    // carries no flow, so its local link may have no record.
    const SiteId from(chan_[ci].from_site);
    const SiteId to(chan_[ci].to_site);
    const double link_mbps = c_flow_[ci] != nullptr
                                 ? network_.link(from, to).capacity_mbps
                                 : network_.capacity(from, to, now_);
    d_linkeps_[ci] = events_per_sec_over(link_mbps, c_event_bytes_[ci]);
  }
}

void Engine::update_delay_metric(double t) {
  // Sojourn-time DP over the DAG: the delay a marker event entering now
  // would see, assuming current rates persist. Sources contribute the age
  // of the backlog head (exact, from the cumulative curves); each hop adds
  // channel-queue drain time plus link latency; each stage adds its input-
  // queue drain time. The per-channel terms (queue excess, latency weights,
  // link drain bounds) are precomputed in parallel chunks; the DP itself --
  // all the ordered reductions -- stays serial.
  run_region((chan_.size() + kChanChunk - 1) / kChanChunk,
             [this](std::size_t chunk) { delay_pre_chunk(chunk); });
  lat_scratch_.assign(num_stages_, 0.0);
  double sink_delay = 0.0;
  for (const std::size_t idx : topo_order_) {
    const OperatorId op_id(static_cast<std::int64_t>(idx));
    double d = 0.0;
    if (stage_is_source_[idx] != 0) {
      const DelayTracker* tracker = stage_tracker_[idx];
      d = tracker != nullptr ? tracker->queueing_delay(t) : 0.0;
    } else {
      // Per upstream stage: aggregate its channels into this stage. One tick
      // of offered traffic is in transit by construction; only the excess
      // counts as queueing backlog.
      for (OperatorId u : logical_.upstream(op_id)) {
        const std::size_t from_idx = stage_index(u);
        const std::uint32_t eb = edge_off_[from_idx * num_stages_ + idx];
        const std::uint32_t ee = edge_off_[from_idx * num_stages_ + idx + 1];
        double queue = 0.0, delivered = 0.0, latency_weight = 0.0,
               weighted_latency_ms = 0.0;
        for (std::uint32_t k = eb; k < ee; ++k) {
          const std::size_t ci = edge_ids_[k];
          queue += d_qexcess_[ci];
          delivered += c_delivered_[ci];
          weighted_latency_ms += d_wlat_[ci];
          latency_weight += d_weight_[ci];
        }
        const double hop_latency_sec =
            latency_weight > 0.0 ? weighted_latency_ms / latency_weight / 1e3
                                 : 0.0;
        // Drain estimate: the observed delivery rate. With no deliveries
        // this tick (suspension, rewiring, or a dead link) estimate what the
        // links and the receiver could sustain -- a dead link keeps the
        // estimate near zero and the delay correctly explodes, while a
        // suspended-but-healthy path reports the post-resume drain rate.
        double drain_rate = delivered / config_.tick_sec;
        if (drain_rate < 1.0) {
          double link_eps = 0.0;
          for (std::uint32_t k = eb; k < ee; ++k) {
            link_eps += d_linkeps_[edge_ids_[k]];
          }
          double capacity = 0.0;
          for (std::uint32_t sk = ss_off_[idx]; sk < ss_off_[idx + 1]; ++sk) {
            capacity += g_capacity_[gid(idx, ss_ids_[sk])];
          }
          drain_rate = std::min(link_eps, std::max(capacity, 1.0));
        }
        drain_rate = std::max(drain_rate, 1e-3);
        const double queue_delay =
            queue > 0.0 ? std::min(kMaxDelaySec, queue / drain_rate) : 0.0;
        d = std::max(d, lat_scratch_[from_idx] + queue_delay + hop_latency_sec);
      }
      // Own input queue drain time. The queue sum walks every site (events
      // can be stranded where the stage no longer runs); the capacity sum
      // only needs hosting sites -- the rest are exact zeros.
      double input_queue = 0.0, capacity = 0.0;
      for (std::size_t s = 0; s < num_sites_; ++s) {
        input_queue += g_input_queue_[gid(idx, s)];
      }
      for (std::uint32_t sk = ss_off_[idx]; sk < ss_off_[idx + 1]; ++sk) {
        capacity += g_capacity_[gid(idx, ss_ids_[sk])];
      }
      // Queued input drains at the stage's capacity once it runs (even if
      // currently suspended for a transition).
      const double service =
          std::max({stage_processed_[idx], capacity, 1.0});
      if (input_queue > 0.0) {
        d += std::min(kMaxDelaySec, input_queue / service);
      }
    }
    lat_scratch_[idx] = std::min(kMaxDelaySec, d);
    if (stage_is_sink_[idx] != 0) {
      sink_delay = std::max(sink_delay, lat_scratch_[idx]);
    }
  }
  last_.delay_sec = sink_delay;
}

void Engine::phase_reset_chunk(std::size_t i) {
  if (i < par_chan_chunks_) {
    // Channel-state roll on one fixed slice. The kernels are elementwise
    // (subrange-safe, see kernels.h), so chunked calls match one full-range
    // call bit for bit.
    const std::size_t n = chan_.size();
    const std::size_t begin = i * kChanChunk;
    const std::size_t len = std::min(n, begin + kChanChunk) - begin;
    kernels::reset_channel_tick(
        len, c_to_stage_.data() + begin, stage_suspended_.data(),
        c_delivered_prev_.data() + begin, c_delivered_.data() + begin,
        c_offered_.data() + begin);
    return;
  }
  // Group-capacity snapshot for one stage's row of the gid array. The dense
  // row equals the legacy "fill zero + hosting-sites loop" exactly: a
  // non-hosting group has tasks == 0, and 0 * eps * straggler is the same
  // +0.0 the fill wrote (see kernels.h).
  const std::size_t stage = i - par_chan_chunks_;
  kernels::group_capacity_row(
      num_sites_, g_tasks_.data() + stage * num_sites_,
      stage_eps_per_slot_[stage], failed_sites_.data(),
      straggler_factor_.data(), g_capacity_.data() + stage * num_sites_);
}

void Engine::tick(double t) {
  const double dt = config_.tick_sec;
  now_ = t;

  // Tick-phase accounting (DESIGN.md §13): one inclusive "engine" frame,
  // then a chain of sibling segments -- each boundary costs one clock read,
  // and a null/disabled profiler reduces every line to a predictable branch.
  obs::Profiler::Scope profile_tick(config_.profiler, obs::Phase::kEngine);
  obs::Profiler::Chain profile(config_.profiler);
  profile.next(obs::Phase::kEngineReset);

  // delivered_prev is the channel's last *live* drain rate: while the
  // receiver is suspended (mid-transition), delivery skips it and
  // `delivered` decays to zero, which must not erase the drain estimate
  // the post-transition backpressure bound depends on.
  kernels::reset_stage_tick(num_stages_, stage_processed_.data(),
                            stage_emitted_.data(), stage_arrived_.data(),
                            stage_backpressured_.data());
  // One region fuses the channel resets (fixed slices) with the per-stage
  // capacity rows -- disjoint arrays, so the fusion is free parallelism.
  par_chan_chunks_ = (chan_.size() + kChanChunk - 1) / kChanChunk;
  run_region(par_chan_chunks_ + num_stages_,
             [this](std::size_t i) { phase_reset_chunk(i); });
  prev_delay_sec_ = last_.delay_sec;
  last_ = QueryTickMetrics{};
  // The network stepped before this tick, but flows added or removed since
  // (another query's control plane, in a runtime::Cluster) leave its link
  // records to be regrouped: do it here, serially, so chunks only read them.
  network_.sync_links();

  if (config_.degrade) apply_degrade_drops(t);

  // Per-stage pass in topological order (stages are sequential: downstream
  // consumes what upstream emitted this tick). Within a stage, the hosting
  // sites are independent -- one region chunk per site -- and the cross-site
  // reductions below recombine the per-site partials serially in the exact
  // operand order the legacy per-object loops used.
  profile.next(obs::Phase::kEngineStage);
  for (const std::size_t idx : topo_order_) {
    // Sources generate regardless of suspension: the external stream does
    // not pause for us; events accumulate in the (replayable) source
    // backlog. Serial: trackers and last_ are whole-engine state.
    if (stage_is_source_[idx] != 0) {
      double generated = 0.0;
      for (std::size_t s = 0; s < num_sites_; ++s) {
        const std::size_t gi = gid(idx, s);
        const double events = g_source_rate_[gi] * dt;
        g_input_queue_[gi] += events;
        generated += events;
      }
      stage_tracker_[idx]->record_generated(t, generated);
      last_.generated_eps += generated / dt;
    }
    if (stage_suspended_[idx] != 0) continue;  // halted mid-transition

    par_stage_ = idx;
    const std::uint32_t sb = ss_off_[idx];
    const std::uint32_t se = ss_off_[idx + 1];
    run_region(se - sb, [this](std::size_t k) { stage_site_chunk(k); });

    // Recombine (serial, legacy operand order; skipped sites contribute the
    // exact +0.0 the legacy loop's `continue` never added -- x += 0.0 is the
    // identity for these non-negative accumulators).
    const double sel = stage_selectivity_[idx];
    double total_processed = 0.0;
    for (std::uint32_t sk = sb; sk < se; ++sk) {
      const std::size_t gi = gid(idx, ss_ids_[sk]);
      // Arrived: each in-channel's delivered count equals its moved amount
      // (delivered was reset to zero this tick and written once, by the
      // receiving site's chunk).
      for (std::uint32_t k = in_off_[gi]; k < in_off_[gi + 1]; ++k) {
        stage_arrived_[idx] += c_delivered_[in_ids_[k]] / dt;
      }
      total_processed += proc_scratch_[gi];
      stage_emitted_[idx] += proc_scratch_[gi] * sel / dt;
      if (bp_scratch_[gi] != 0) stage_backpressured_[idx] = 1;
    }
    stage_processed_[idx] += total_processed / dt;
    if (stage_is_source_[idx] != 0) {
      stage_tracker_[idx]->record_consumed(total_processed);
      last_.admitted_eps += total_processed / dt;
    }
    if (stage_is_sink_[idx] != 0) {
      last_.sink_eps += total_processed / dt;
    }
  }
  profile.next(obs::Phase::kEngineChannel);
  set_flow_demands(dt);

  // Periodic localized checkpoint (§5), tiered (DESIGN.md §12): every Nth
  // interval takes a full snapshot; the intervals between record only the
  // groups whose state moved since the last snapshot, so the written size
  // (and the standby-sync traffic priced off it) scales with the change
  // rate, not the total state. Either way the snapshot arrays end up
  // identical -- clean groups already match -- so restore semantics do not
  // depend on the tier.
  profile.next(obs::Phase::kEngineCheckpoint);
  if (t - last_checkpoint_ >= kCheckpointIntervalSec) {
    const bool full = checkpoint_seq_ % kFullCheckpointEvery == 0;
    ++checkpoint_seq_;
    double checkpointed_mb = 0.0;
    double written_mb = 0.0;
    int dirty_groups = 0;
    for (std::size_t i = 0; i < num_stages_; ++i) {
      for (std::size_t s = 0; s < num_sites_; ++s) {
        const std::size_t gi = gid(i, s);
        const double state = group_state_mb(i, s);
        checkpointed_mb += state;
        const bool dirty = state != checkpointed_state_[gi] ||
                           g_window_events_[gi] != checkpointed_window_[gi];
        if (dirty) {
          ++dirty_groups;
          if (!full) written_mb += std::abs(state - checkpointed_state_[gi]);
          checkpointed_state_[gi] = state;
          checkpointed_window_[gi] = g_window_events_[gi];
        }
      }
    }
    if (full) written_mb = checkpointed_mb;
    last_checkpoint_ = t;
    last_checkpoint_written_mb_ = written_mb;
    if (config_.trace != nullptr && config_.trace->enabled()) {
      config_.trace->event_at(t, "checkpoint")
          .str("kind", full ? "full" : "delta")
          .num("state_mb", checkpointed_mb)
          .num("written_mb", written_mb)
          .num("dirty_groups", static_cast<double>(dirty_groups));
    }
    if (config_.metrics != nullptr) mh_.checkpoints->inc();
  }

  profile.next(obs::Phase::kEngineDelay);
  update_delay_metric(t);
  if (replay_pending_events_ > 0.0) {
    last_.generated_eps += replay_pending_events_ / dt;
    replay_pending_events_ = 0.0;
  }
  last_.processing_ratio =
      last_.generated_eps > 0.0 ? last_.admitted_eps / last_.generated_eps
                                : 1.0;

  profile.next(obs::Phase::kEngineEmit);
  emit_tick_trace(t, dt);
}

void Engine::emit_tick_trace(double t, double dt) {
  if (config_.metrics != nullptr) {
    mh_.ticks->inc();
    mh_.delay_sec->set(last_.delay_sec);
    mh_.generated_eps->set(last_.generated_eps);
    mh_.admitted_eps->set(last_.admitted_eps);
    mh_.sink_eps->set(last_.sink_eps);
    mh_.processing_ratio->set(last_.processing_ratio);
    mh_.source_backlog->set(source_backlog_events());
    int backpressured = 0;
    for (std::size_t i = 0; i < num_stages_; ++i) {
      if (stage_backpressured_[i] != 0) ++backpressured;
    }
    mh_.backpressured_stages->set(backpressured);
    if (last_.dropped_eps > 0.0) {
      mh_.dropped_events->inc(last_.dropped_eps * dt);
    }
  }

  if (config_.trace == nullptr || !config_.trace->enabled()) return;
  obs::TraceEmitter& trace = *config_.trace;

  trace.event_at(t, "tick")
      .num("delay_sec", last_.delay_sec)
      .num("generated_eps", last_.generated_eps)
      .num("admitted_eps", last_.admitted_eps)
      .num("sink_eps", last_.sink_eps)
      .num("dropped_eps", last_.dropped_eps)
      .num("processing_ratio", last_.processing_ratio);

  for (std::size_t i = 0; i < num_stages_; ++i) {
    // Idle, unsuspended stages with empty queues carry no information; skip
    // them to keep the stream proportional to activity.
    double input_queue = 0.0;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      input_queue += g_input_queue_[gid(i, s)];
    }
    if (stage_processed_[i] <= 0.0 && stage_arrived_[i] <= 0.0 &&
        input_queue <= 0.0 && stage_backpressured_[i] == 0 &&
        stage_suspended_[i] == 0) {
      continue;
    }
    trace.event_at(t, "op_tick")
        .num("op", static_cast<double>(i))
        .str("name", logical_.op(OperatorId(static_cast<std::int64_t>(i))).name)
        .num("processed_eps", stage_processed_[i])
        .num("emitted_eps", stage_emitted_[i])
        .num("arrived_eps", stage_arrived_[i])
        .num("input_queue_events", input_queue)
        .num("state_mb", stage_total_state_mb(i))
        .flag("backpressured", stage_backpressured_[i] != 0)
        .flag("suspended", stage_suspended_[i] != 0);
  }

  for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
    if (c_offered_[ci] <= 0.0 && c_delivered_[ci] <= 0.0 &&
        c_queue_[ci] <= 0.0) {
      continue;
    }
    const ChannelDesc& c = chan_[ci];
    auto event = trace.event_at(t, "channel_tick");
    event.num("from_op", static_cast<double>(c.from_stage))
        .num("to_op", static_cast<double>(c.to_stage))
        .num("from_site", static_cast<double>(c.from_site))
        .num("to_site", static_cast<double>(c.to_site))
        .num("offered_eps", c_offered_[ci] / dt)
        .num("delivered_eps", c_delivered_[ci] / dt)
        .num("queue_events", c_queue_[ci]);
    if (c_flow_[ci] != nullptr) {
      event.num("allocated_mbps", c_flow_[ci]->allocated_mbps);
    }
  }
}

void Engine::suspend_stage(OperatorId op) {
  stage_suspended_[stage_index(op)] = 1;
}
void Engine::resume_stage(OperatorId op) {
  stage_suspended_[stage_index(op)] = 0;
}

void Engine::suspend_all() {
  std::fill(stage_suspended_.begin(), stage_suspended_.end(), char{1});
}

void Engine::resume_all() {
  std::fill(stage_suspended_.begin(), stage_suspended_.end(), char{0});
}

bool Engine::stage_suspended(OperatorId op) const {
  return stage_suspended_[stage_index(op)] != 0;
}

const physical::StagePlacement& Engine::placement(OperatorId op) const {
  return stage_placement_[stage_index(op)];
}

void Engine::apply_placement(OperatorId op,
                             const physical::StagePlacement& placement) {
  const std::size_t i = stage_index(op);
  const int new_p = placement.parallelism();
  check(new_p > 0, "engine: apply_placement with zero parallelism for operator ",
        op.value());

  double total_queue = 0.0, total_window = 0.0;
  for (std::size_t s = 0; s < num_sites_; ++s) {
    total_queue += g_input_queue_[gid(i, s)];
    total_window += g_window_events_[gid(i, s)];
  }

  stage_placement_[i] = placement;
  stage_parallelism_[i] = new_p;
  physical_.mutable_stage_for(op).placement = placement;
  for (std::size_t s = 0; s < num_sites_; ++s) {
    const std::size_t gi = gid(i, s);
    const double share =
        static_cast<double>(placement.per_site[s]) / static_cast<double>(new_p);
    g_tasks_[gi] = placement.per_site[s];
    g_input_queue_[gi] = total_queue * share;
    g_window_events_[gi] = total_window * share;
    // A group mid-way through replaying its checkpoint keeps the pause if it
    // still hosts tasks here -- re-placement does not speed up recovery.
    if (!(g_restore_until_[gi] > now_ && placement.per_site[s] > 0)) {
      g_restore_until_[gi] = -1.0;
    }
  }
  // The pinned hot-key site survives reorderings of the placement's site
  // list; only losing the site entirely re-anchors the skew.
  reanchor_skew(i);
  rebuild_stage_sites();
  rebuild_adjacent_channels(i);

  if (config_.trace != nullptr && config_.trace->enabled()) {
    auto event = config_.trace->event("placement");
    event.num("op", static_cast<double>(op.value()))
        .str("name", logical_.op(op).name)
        .num("parallelism", new_p);
    for (SiteId site : placement.sites()) {
      event.num("tasks_at_site_" + std::to_string(site.value()),
                placement.at(site));
    }
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("engine.placements_applied").inc();
  }
}

void Engine::rebuild_adjacent_channels(std::size_t stage_idx) {
  // Collect queued events and the aggregate drain rate per logical edge
  // touching this stage, drop those channels, then recreate them against the
  // new placement and redistribute both by traffic share. Seeding the drain
  // (delivered_prev) matters: a fresh channel with delivered_prev = 0 on a
  // busy link would see its buffer cap collapse to the floor and signal
  // spurious backpressure for the first post-migration tick.
  struct EdgeKey {
    std::size_t from, to;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeCarry {
    double queue = 0.0;
    double drain = 0.0;  // summed delivered(_prev) of the replaced channels
  };
  std::vector<std::pair<EdgeKey, EdgeCarry>> edge_carry;
  auto carry_of = [&](EdgeKey key) -> EdgeCarry& {
    for (auto& [k, c] : edge_carry) {
      if (k == key) return c;
    }
    edge_carry.emplace_back(key, EdgeCarry{});
    return edge_carry.back().second;
  };

  // Carry + compaction pass: survivors keep their relative order (and thus
  // the channel-id order every filtered FP sum visits).
  std::size_t kept = 0;
  for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
    const auto from_stage = static_cast<std::size_t>(chan_[ci].from_stage);
    const auto to_stage = static_cast<std::size_t>(chan_[ci].to_stage);
    if (from_stage == stage_idx || to_stage == stage_idx) {
      EdgeCarry& carry = carry_of({from_stage, to_stage});
      carry.queue += c_queue_[ci];
      // `delivered` holds the just-completed tick's delivery (freshest for a
      // live receiver); delivered_prev is the retained live rate when the
      // receiver spent the last tick suspended mid-transition.
      carry.drain += std::max(c_delivered_[ci], c_delivered_prev_[ci]);
      if (chan_[ci].flow.valid() && network_.has_flow(chan_[ci].flow)) {
        network_.remove_flow(chan_[ci].flow);
      }
    } else {
      chan_[kept] = chan_[ci];
      c_queue_[kept] = c_queue_[ci];
      c_offered_[kept] = c_offered_[ci];
      c_delivered_[kept] = c_delivered_[ci];
      c_delivered_prev_[kept] = c_delivered_prev_[ci];
      c_event_bytes_[kept] = c_event_bytes_[ci];
      ++kept;
    }
  }
  chan_.resize(kept);
  c_queue_.resize(kept);
  c_offered_.resize(kept);
  c_delivered_.resize(kept);
  c_delivered_prev_.resize(kept);
  c_event_bytes_.resize(kept);
  c_share_.resize(kept);
  c_flow_.resize(kept);
  c_to_stage_.resize(kept);

  auto make_edge = [&](std::size_t from_idx, std::size_t to_idx) {
    const EdgeCarry carry = carry_of({from_idx, to_idx});
    append_edge(from_idx, to_idx, carry.queue, carry.drain);
  };

  const OperatorId op(static_cast<std::int64_t>(stage_idx));
  for (OperatorId u : logical_.upstream(op)) {
    make_edge(stage_index(u), stage_idx);
  }
  for (OperatorId d : logical_.downstream(op)) {
    make_edge(stage_idx, stage_index(d));
  }
  rebuild_channel_indexes();
}

void Engine::apply_replan(query::LogicalPlan logical,
                          physical::PhysicalPlan physical) {
  // 1. Carry-over inventory from the old execution.
  struct Carried {
    double window_events = 0.0;
    double state_override = -1.0;
  };
  std::unordered_map<std::string, Carried> carried;          // stateful ops
  std::unordered_map<std::string, double> source_backlogs;   // source units
  // Injected key skews follow the operator's signature across the re-plan
  // (the hot key exists in the data, not in the plan).
  std::unordered_map<std::string, std::pair<double, std::int32_t>> skews;
  double inflight_source_units = 0.0;

  const auto units_per_event = source_units_per_event();

  for (std::size_t i = 0; i < num_stages_; ++i) {
    const OperatorId op_id(static_cast<std::int64_t>(i));
    double queue = 0.0, window = 0.0;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      queue += g_input_queue_[gid(i, s)];
      window += g_window_events_[gid(i, s)];
    }
    if (stage_skew_[i] != 1.0) {
      skews[logical_.signature(op_id)] = {stage_skew_[i], stage_skew_site_[i]};
    }
    if (stage_is_source_[i] != 0) {
      source_backlogs[logical_.signature(op_id)] = queue;
      continue;
    }
    if (stage_stateful_[i] != 0) {
      Carried c;
      c.window_events = window;
      c.state_override = stage_state_override_[i];
      carried[logical_.signature(op_id)] = c;
    }
    // In-flight events at non-source operators are replayed from the source
    // checkpoints: convert to source units via the expected-rate ratio.
    double inbound_channels = 0.0;
    for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
      if (static_cast<std::size_t>(chan_[ci].to_stage) == i) {
        inbound_channels += c_queue_[ci];
      }
    }
    inflight_source_units +=
        (queue + inbound_channels) * units_per_event[op_id];
  }

  // 2. Capture per-site source rates keyed by source *name* (names identify
  // the external stream and are stable across plan candidates).
  std::unordered_map<std::string, std::vector<double>> rates_by_name;
  for (OperatorId src : logical_.sources()) {
    const auto row = g_source_rate_.begin() +
                     static_cast<std::ptrdiff_t>(gid(stage_index(src), 0));
    rates_by_name[logical_.op(src).name].assign(
        row, row + static_cast<std::ptrdiff_t>(num_sites_));
  }

  // 3. Swap in the new plan and rebuild the runtime.
  logical_ = std::move(logical);
  physical_ = std::move(physical);
  check(logical_.validate().empty(),
        "engine: apply_replan with an invalid logical plan");
  build_runtime();

  // The previous execution's delay must not leak into the new one: the
  // degrade budget (prev_delay_sec_, re-primed from last_.delay_sec at the
  // next tick) and any not-yet-folded replay credit start from zero.
  prev_delay_sec_ = 0.0;
  last_.delay_sec = 0.0;
  replay_pending_events_ = 0.0;

  // 4a. Re-key source rates to the new operator ids and restore backlogs.
  for (OperatorId new_src : logical_.sources()) {
    const std::size_t i = stage_index(new_src);
    const auto rit = rates_by_name.find(logical_.op(new_src).name);
    if (rit != rates_by_name.end()) {
      std::copy(rit->second.begin(), rit->second.end(),
                g_source_rate_.begin() +
                    static_cast<std::ptrdiff_t>(gid(i, 0)));
    }
    const auto bl = source_backlogs.find(logical_.signature(new_src));
    if (bl != source_backlogs.end() && bl->second > 0.0) {
      int active_sites = 0;
      for (std::size_t s = 0; s < num_sites_; ++s) {
        if (g_tasks_[gid(i, s)] > 0) ++active_sites;
      }
      if (active_sites > 0) {
        for (std::size_t s = 0; s < num_sites_; ++s) {
          const std::size_t gi = gid(i, s);
          if (g_tasks_[gi] > 0) g_input_queue_[gi] = bl->second / active_sites;
        }
      }
    }
  }
  // Tracker creation for the new sources; trackers whose signature no
  // longer names a live source are pruned here.
  refresh_source_runtime();

  // 4b. Restore carried state into matching stateful operators.
  for (const auto& op : logical_.operators()) {
    if (!op.stateful()) continue;
    const auto it = carried.find(logical_.signature(op.id));
    if (it == carried.end()) continue;
    const std::size_t i = stage_index(op.id);
    stage_state_override_[i] = it->second.state_override;
    const int p = stage_parallelism_[i];
    if (p == 0) continue;
    for (std::size_t s = 0; s < num_sites_; ++s) {
      const double share =
          static_cast<double>(stage_placement_[i].per_site[s]) /
          static_cast<double>(p);
      g_window_events_[gid(i, s)] = it->second.window_events * share;
    }
  }

  // 4c. Restore carried skews (re-anchoring if the pinned site no longer
  // hosts the operator).
  for (const auto& op : logical_.operators()) {
    const auto it = skews.find(logical_.signature(op.id));
    if (it == skews.end()) continue;
    const std::size_t i = stage_index(op.id);
    stage_skew_[i] = it->second.first;
    stage_skew_site_[i] = it->second.second;
    reanchor_skew(i);
  }
  recompute_channel_shares();

  // 5. Re-inject in-flight events as replayed source work.
  replay_at_sources(inflight_source_units);

  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->event("replan")
        .num("num_operators", static_cast<double>(logical_.num_operators()))
        .num("replayed_source_units", inflight_source_units);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("engine.replans_applied").inc();
  }
}

void Engine::fail_site(SiteId site) {
  if (failed_sites_[static_cast<std::size_t>(site.value())]) return;
  failed_sites_[static_cast<std::size_t>(site.value())] = true;
  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->event("site_failed")
        .num("site", static_cast<double>(site.value()));
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("engine.site_failures").inc();
  }
}

void Engine::restore_site(SiteId site) {
  const auto s = static_cast<std::size_t>(site.value());
  if (!failed_sites_[s]) return;
  failed_sites_[s] = false;

  // Converts events lost at an operator back into source units, the same
  // way apply_replan re-injects in-flight work.
  const auto units_per_event = source_units_per_event();

  // Groups at the site replay their local checkpoint before processing
  // resumes; the pause is proportional to the checkpointed state size (§5).
  // The failure destroyed everything the group accumulated since that
  // checkpoint: its state rolls back to the snapshot, and the delta (window
  // growth since the checkpoint plus the queued-but-unprocessed input) is
  // lost and must be replayed from the sources' durable logs.
  double restore_mb = 0.0;
  double max_restore_sec = 0.0;
  double lost_source_units = 0.0;
  for (std::size_t i = 0; i < num_stages_; ++i) {
    const std::size_t gi = gid(i, s);
    if (g_tasks_[gi] == 0) continue;
    const double restore_sec =
        checkpointed_state_[gi] / kLocalRestoreMbPerSec;
    // A replay already in progress (back-to-back failures) composes with the
    // new one -- the group must finish the earlier replay and then this one;
    // resetting to now_ + restore_sec would silently discount work.
    g_restore_until_[gi] = std::max(g_restore_until_[gi], now_) + restore_sec;
    restore_mb += checkpointed_state_[gi];
    max_restore_sec = std::max(max_restore_sec, restore_sec);

    // Sources model the durable external stream: their backlog survives the
    // failure (the log retains it), so only operator groups roll back.
    if (stage_is_source_[i] != 0) continue;
    const double lost =
        std::max(0.0, g_window_events_[gi] - checkpointed_window_[gi]) +
        g_input_queue_[gi];
    g_window_events_[gi] = checkpointed_window_[gi];
    g_input_queue_[gi] = 0.0;
    if (lost > 0.0) {
      lost_source_units +=
          lost * units_per_event[OperatorId(static_cast<std::int64_t>(i))];
    }
  }

  // Re-inject the lost delta at the replayable sources (rate-proportional
  // shares, mirroring apply_replan's in-flight replay).
  if (lost_source_units > 0.0) replay_at_sources(lost_source_units);

  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->event("site_restored")
        .num("site", static_cast<double>(site.value()))
        .num("checkpoint_mb", restore_mb)
        .num("restore_sec", max_restore_sec)
        .num("replayed_source_units", lost_source_units);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("engine.site_restores").inc();
  }
}

void Engine::replay_at_sources(double units) {
  if (units <= 0.0) return;
  double total_src_eps = 0.0;
  for (OperatorId src : logical_.sources()) {
    total_src_eps += source_generation_eps(src);
  }
  for (OperatorId src : logical_.sources()) {
    const std::size_t i = stage_index(src);
    const double rate = source_generation_eps(src);
    const double share =
        total_src_eps > 0.0
            ? rate / total_src_eps
            : 1.0 / static_cast<double>(logical_.sources().size());
    const double src_units = units * share;
    if (src_units <= 0.0) continue;
    int active_sites = 0;
    for (std::size_t st = 0; st < num_sites_; ++st) {
      if (g_tasks_[gid(i, st)] > 0) ++active_sites;
    }
    if (active_sites == 0) continue;
    for (std::size_t st = 0; st < num_sites_; ++st) {
      const std::size_t gi = gid(i, st);
      if (g_tasks_[gi] > 0) g_input_queue_[gi] += src_units / active_sites;
    }
    // Replayed events re-enter the generation curve "now"; their original
    // generation times are unknown to the new execution (documented
    // approximation -- slightly undercounts delay during the transition).
    stage_tracker_[i]->record_generated(now_, src_units);
    // The replayed events will be admitted a second time; surface them as
    // generated work too so cumulative processed/generated accounting
    // stays balanced.
    replay_pending_events_ += src_units;
  }
}

query::OperatorTable<query::OperatorRates> Engine::generation_rates() const {
  query::OperatorTable<double> src_rates(logical_.num_operators());
  for (OperatorId src : logical_.sources()) {
    src_rates[src] = source_generation_eps(src);
  }
  return logical_.estimate_rates(src_rates);
}

query::OperatorTable<double> Engine::source_units_per_event() const {
  const auto rates = generation_rates();
  double total_src_eps = 0.0;
  for (OperatorId src : logical_.sources()) {
    total_src_eps += rates[src].input_eps;
  }
  query::OperatorTable<double> units(logical_.num_operators());
  for (const auto& op : logical_.operators()) {
    const double op_eps = rates[op.id].input_eps;
    if (op_eps > 0.0 && total_src_eps > 0.0) {
      units[op.id] = total_src_eps / op_eps;
    }
  }
  return units;
}

Engine::PromotionResult Engine::promote_standby(OperatorId op,
                                                SiteId failed_site,
                                                SiteId standby_site,
                                                double synced_window_events) {
  PromotionResult result;
  const std::size_t i = stage_index(op);
  const auto sd = static_cast<std::size_t>(failed_site.value());
  const auto sb = static_cast<std::size_t>(standby_site.value());
  const std::size_t gd = gid(i, sd);
  const std::size_t gs = gid(i, sb);
  const int moved_tasks = g_tasks_[gd];
  if (moved_tasks == 0 || sd == sb || failed_sites_[sb]) return result;

  // The standby holds the window as of its last sync. Installing more than
  // the primary actually had would fabricate events, so the effective
  // replica is capped at the live window; everything past it -- post-sync
  // window growth plus the queued-but-unprocessed input -- died with the
  // primary and replays from the sources' durable logs.
  const double live_window = g_window_events_[gd];
  const double installed = std::min(synced_window_events, live_window);
  const double lost = (live_window - installed) + g_input_queue_[gd];

  g_tasks_[gd] = 0;
  g_input_queue_[gd] = 0.0;
  g_window_events_[gd] = 0.0;
  g_restore_until_[gd] = -1.0;
  checkpointed_state_[gd] = 0.0;
  checkpointed_window_[gd] = 0.0;
  g_tasks_[gs] += moved_tasks;
  g_window_events_[gs] += installed;
  // The replica is warm: no checkpoint-scan pause at the standby
  // (g_restore_until_[gs] untouched).

  physical::StagePlacement placement = stage_placement_[i];
  placement.per_site[sb] += placement.per_site[sd];
  placement.per_site[sd] = 0;
  stage_placement_[i] = placement;
  physical_.mutable_stage_for(op).placement = placement;
  // Parallelism is unchanged: tasks moved, none were added or removed.

  // Losing the hot-key site re-anchors partition skew, as in
  // apply_placement.
  reanchor_skew(i);

  double lost_source_units = 0.0;
  if (lost > 0.0) {
    lost_source_units = lost * source_units_per_event()[op];
    replay_at_sources(lost_source_units);
  }

  rebuild_stage_sites();
  rebuild_adjacent_channels(i);

  result.moved_tasks = moved_tasks;
  result.installed_window_events = installed;
  result.replayed_source_units = lost_source_units;
  if (config_.trace != nullptr && config_.trace->enabled()) {
    config_.trace->event("standby_promoted")
        .num("op", static_cast<double>(op.value()))
        .str("name", logical_.op(op).name)
        .num("from_site", static_cast<double>(failed_site.value()))
        .num("to_site", static_cast<double>(standby_site.value()))
        .num("tasks", static_cast<double>(moved_tasks))
        .num("installed_window_events", installed)
        .num("replayed_source_units", lost_source_units);
  }
  if (config_.metrics != nullptr) {
    config_.metrics->counter("engine.standby_promotions").inc();
  }
  return result;
}

bool Engine::site_failed(SiteId site) const {
  return failed_sites_[static_cast<std::size_t>(site.value())];
}

void Engine::set_state_override_mb(OperatorId op, double mb) {
  stage_state_override_[stage_index(op)] = mb;
}

void Engine::set_partition_skew(OperatorId op, double hot_factor) {
  check(hot_factor > 0.0, "engine: set_partition_skew with non-positive factor ",
        hot_factor, " for operator ", op.value());
  const std::size_t i = stage_index(op);
  stage_skew_[i] = hot_factor;
  if (hot_factor == 1.0) {
    stage_skew_site_[i] = -1;  // balance restored; nothing to pin
  } else {
    // Pin the hot key to the lowest-indexed hosting site *at call time*; it
    // stays there across later placement changes (see header comment).
    stage_skew_site_[i] = first_hosting_site(i);
  }
  recompute_channel_shares();
}

double Engine::group_state_mb(std::size_t stage, std::size_t site) const {
  const std::size_t gi = gid(stage, site);
  const int p = stage_parallelism_[stage];
  if (p == 0 || g_tasks_[gi] == 0) return 0.0;
  const double share =
      static_cast<double>(g_tasks_[gi]) / static_cast<double>(p);
  if (stage_state_override_[stage] >= 0.0) {
    return stage_state_override_[stage] * share;
  }
  if (stage_stateful_[stage] == 0) return 0.0;
  if (stage_fixed_mb_[stage] >= 0.0) return stage_fixed_mb_[stage] * share;
  return stage_base_mb_[stage] * share +
         stage_mb_per_kevent_[stage] * g_window_events_[gi] / 1e3;
}

double Engine::stage_total_state_mb(std::size_t stage) const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_sites_; ++s) {
    total += group_state_mb(stage, s);
  }
  return total;
}

double Engine::state_mb(OperatorId op, SiteId site) const {
  return group_state_mb(stage_index(op),
                        static_cast<std::size_t>(site.value()));
}

double Engine::total_state_mb(OperatorId op) const {
  return stage_total_state_mb(stage_index(op));
}

double Engine::window_events(OperatorId op, SiteId site) const {
  return g_window_events_[gid(stage_index(op),
                              static_cast<std::size_t>(site.value()))];
}

double Engine::restore_until(OperatorId op, SiteId site) const {
  return g_restore_until_[gid(stage_index(op),
                              static_cast<std::size_t>(site.value()))];
}

void Engine::op_metrics_into(OperatorId op, OperatorMetrics& m,
                             bool include_state) const {
  const std::size_t i = stage_index(op);
  m.op = op;
  m.processed_eps = stage_processed_[i];
  m.emitted_eps = stage_emitted_[i];
  m.arrived_eps = stage_arrived_[i];
  m.selectivity = stage_processed_[i] > 0.0
                      ? stage_emitted_[i] / stage_processed_[i]
                      : 1.0;
  m.backpressured = stage_backpressured_[i] != 0;
  // The monitoring fast path (include_state == false) skips the fields the
  // window accumulator never reads: per-site state sizes and the placement
  // copy (parallelism is available via stage_parallelism()).
  if (include_state) m.placement = stage_placement_[i];
  m.input_queue_events = 0.0;
  m.state_mb_per_site.clear();
  for (std::size_t s = 0; s < num_sites_; ++s) {
    m.input_queue_events += g_input_queue_[gid(i, s)];
    if (include_state) m.state_mb_per_site.push_back(group_state_mb(i, s));
  }
  m.channel_backlog_events = 0.0;
  for (std::uint32_t k = sin_off_[i]; k < sin_off_[i + 1]; ++k) {
    // One tick of offered traffic is always in transit in this pipeline
    // model; only the excess is genuine backlog.
    const std::size_t ci = sin_ids_[k];
    m.channel_backlog_events += std::max(0.0, c_queue_[ci] - c_offered_[ci]);
  }
}

OperatorMetrics Engine::op_metrics(OperatorId op) const {
  OperatorMetrics m;
  op_metrics_into(op, m);
  return m;
}

std::vector<ChannelMetrics> Engine::channels_into(OperatorId op) const {
  std::vector<ChannelMetrics> out;
  const std::size_t idx = stage_index(op);
  const double dt = config_.tick_sec;
  for (std::uint32_t k = sin_off_[idx]; k < sin_off_[idx + 1]; ++k) {
    const std::size_t ci = sin_ids_[k];
    ChannelMetrics m;
    m.from_op = OperatorId(static_cast<std::int64_t>(chan_[ci].from_stage));
    m.to_op = op;
    m.from = SiteId(chan_[ci].from_site);
    m.to = SiteId(chan_[ci].to_site);
    m.offered_eps = c_offered_[ci] / dt;
    m.delivered_eps = c_delivered_[ci] / dt;
    m.queue_events = c_queue_[ci];
    out.push_back(m);
  }
  return out;
}

std::unordered_map<std::int64_t, double> Engine::adjacent_link_mbps(
    OperatorId op) const {
  std::unordered_map<std::int64_t, double> out;
  const std::size_t idx = stage_index(op);
  const auto n = static_cast<std::int64_t>(num_sites_);
  for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
    const ChannelDesc& c = chan_[ci];
    if (static_cast<std::size_t>(c.from_stage) != idx &&
        static_cast<std::size_t>(c.to_stage) != idx) {
      continue;
    }
    if (!c.flow.valid() || !network_.has_flow(c.flow)) continue;
    out[c.from_site * n + c.to_site] += network_.flow(c.flow).allocated_mbps;
  }
  return out;
}

std::unordered_map<std::int64_t, double> Engine::all_link_mbps() const {
  std::unordered_map<std::int64_t, double> out;
  const auto n = static_cast<std::int64_t>(num_sites_);
  for (std::size_t ci = 0; ci < chan_.size(); ++ci) {
    const ChannelDesc& c = chan_[ci];
    if (!c.flow.valid() || !network_.has_flow(c.flow)) continue;
    out[c.from_site * n + c.to_site] += network_.flow(c.flow).allocated_mbps;
  }
  return out;
}

std::vector<int> Engine::slots_in_use() const {
  std::vector<int> used(num_sites_, 0);
  for (std::size_t s = 0; s < num_sites_; ++s) {
    used[s] = slots_in_use(SiteId(static_cast<std::int64_t>(s)));
  }
  return used;
}

int Engine::slots_in_use(SiteId site) const {
  // Sources are adapters onto the external streams (Kafka-style readers at
  // the data's site) and do not occupy computing slots; every other task
  // takes one.
  const auto s = static_cast<std::size_t>(site.value());
  int used = 0;
  for (std::size_t i = 0; i < num_stages_; ++i) {
    if (stage_is_source_[i] == 0) used += g_tasks_[gid(i, s)];
  }
  return used;
}

}  // namespace wasp::engine
