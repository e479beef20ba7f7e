// Per-record discrete-event simulator (the fluid engine's ground truth).
//
// The main engine (src/engine) is a fluid approximation: event populations
// are real-valued rates and queue levels, which is what lets whole
// evaluation figures run in milliseconds. This module is its validator: a
// classic discrete-event queueing-network simulation of the same deployment
// where every record is an object with a generation timestamp that travels
// through task servers and link servers one at a time.
//
// Model:
//  - each (stage, site) task group is a server pool: `tasks` records in
//    service concurrently, each taking 1/events_per_sec_per_slot seconds
//    (deterministic or exponential);
//  - each directed site pair is a FIFO link: a record's transmission
//    serializes at bytes*8/bandwidth seconds, then propagation latency
//    elapses before it arrives (records of all edges sharing the link
//    serialize together);
//  - selectivity is applied per record (survival sampling); windowed
//    aggregations buffer per-window counts and emit ceil(count * sigma)
//    records at the window boundary carrying the *latest* contained
//    generation time -- the paper's §8.3 event-time semantics;
//  - routing follows the placement shares (hash) or co-location (forward),
//    sampled per record;
//  - queues are unbounded (no backpressure): the micro engine measures what
//    an unconstrained-buffer execution would do, so cross-validation against
//    the fluid engine uses sink throughput and latency, which backpressure
//    does not change in the underloaded and capacity-saturated regimes the
//    tests pin down.
//
// Data layout: the event loop runs against flat, precomputed state -- each
// task group's waiting records live in a power-of-two ring buffer of
// generation times, per-(operator, downstream) routing tables (target groups
// + server weights) are built once at construction, and directed-link busy
// times sit in a dense num_sites^2 vector. Per-event work is array reads;
// no hashing or allocation happens after warm-up. The deterministic
// verification contract is strict: all changes preserve the exact event
// order (time, then schedule sequence) and the exact RNG draw sequence of
// the straightforward one-object-at-a-time formulation, so results are
// bit-identical to it.
//
// Deliberately small-scale: O(events * log events); use it for seconds of
// simulated time on single queries, not the full evaluation scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/topology.h"
#include "physical/physical_plan.h"
#include "query/logical_plan.h"

namespace wasp::micro {

struct MicroConfig {
  double horizon_sec = 60.0;
  std::uint64_t seed = 1;
  // Deterministic service/interarrival times isolate queueing effects;
  // exponential adds M/M/1-style variance.
  bool exponential_service = false;
  bool poisson_arrivals = false;
};

struct MicroResults {
  // Records emitted at sinks per second, averaged over the measured half of
  // the horizon (the first half is warm-up).
  double sink_eps = 0.0;
  // End-to-end latency (sink arrival time minus generation time) of every
  // sink record in the measured window.
  WeightedHistogram latency;
  // Total records generated / delivered to sinks over the whole run.
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
};

class MicroEngine {
 public:
  MicroEngine(const query::LogicalPlan& logical,
              const physical::PhysicalPlan& physical,
              const net::Topology& topology, MicroConfig config);

  // Sets the generation rate of `source` at `site` (records/s).
  void set_source_rate(OperatorId source, SiteId site, double eps);

  // Runs the whole horizon and returns the measurements.
  [[nodiscard]] MicroResults run();

 private:
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  struct Record {
    double gen_time = 0.0;
  };

  // One (stage, site) task group. Waiting records are generation times in a
  // power-of-two ring buffer; the operator parameters the event loop touches
  // are cached here so dispatch never chases the logical plan.
  struct TaskGroup {
    std::size_t op_index = 0;
    SiteId site;
    int servers = 0;
    int busy = 0;
    std::vector<double> ring;  // gen times; capacity is a power of two
    std::size_t head = 0;
    std::size_t count = 0;
    // Open-window buffer (windowed operators only).
    std::uint64_t window_count = 0;
    double window_latest_gen = 0.0;
    // Cached operator parameters.
    double mean_service_sec = 0.0;
    double selectivity = 1.0;
    double window_len_sec = 0.0;
    double out_event_bytes = 0.0;
    bool is_sink = false;
    bool windowed = false;
    bool forward = false;  // output partitioning is kForward
  };

  // Precomputed routing for one (operator -> downstream operator) edge: the
  // receiver's groups and their server-count weights, reused for every
  // record instead of being rebuilt per copy.
  struct Route {
    std::vector<std::size_t> d_groups;
    std::vector<double> weights;
  };

  enum class EventKind {
    kGenerate,        // a source emits its next record
    kServiceDone,     // a task group finishes one record
    kLinkDelivered,   // a record finishes transmission + propagation
    kWindowBoundary,  // a tumbling window closes
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break
    EventKind kind = EventKind::kGenerate;
    std::size_t a = 0;  // generator index / group index
    Record record;

    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  struct SourceGen {
    std::size_t op_index = 0;
    SiteId site;
    double rate = 0.0;
    std::size_t group = 0;  // resolved once; the per-record hop is an index
  };

  void schedule(double time, EventKind kind, std::size_t a, Record record);
  Event pop_event();
  void enqueue_record(std::size_t group, double now, Record record);
  void start_service(std::size_t group, double now);
  void emit_downstream(std::size_t group, double now, Record record,
                       std::uint64_t copies);
  void deliver(std::size_t from_group, std::size_t to_group, double now,
               Record record);

  static void ring_push(TaskGroup& g, double gen_time);
  static double ring_pop(TaskGroup& g);

  const query::LogicalPlan& logical_;
  const net::Topology& topology_;
  MicroConfig config_;
  Rng rng_;

  std::vector<TaskGroup> groups_;
  // op index -> group indices (per hosting site).
  std::vector<std::vector<std::size_t>> groups_of_op_;
  std::vector<SourceGen> sources_;

  // Routing tables: routes_[op] lists one Route per downstream operator (in
  // logical-plan downstream order); fwd_target_[group][route] is the
  // co-located receiver group for forward routing, kNoGroup when none.
  std::vector<std::vector<Route>> routes_;
  std::vector<std::vector<std::size_t>> fwd_target_;

  // Dense directed-link state, indexed by from*num_sites+to.
  std::size_t num_sites_ = 0;
  std::vector<double> link_busy_until_;
  std::vector<double> link_bw_mbps_;
  std::vector<double> link_latency_ms_;

  // Pending events in a 4-ary implicit min-heap (earliest time first, seq
  // tie-break). The (time, seq) order is a strict total order -- seq is
  // unique -- so the pop sequence is independent of heap layout and arity;
  // 4-ary just touches fewer cache lines per operation than binary.
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  MicroResults results_;
};

}  // namespace wasp::micro
