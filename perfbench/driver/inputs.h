// Workload definitions and the seed-driven load generator.
//
// A workload is a fixed job (topology, query, mode, tracing) plus a
// generator that turns the benchmark seed into that job's inputs. The program
// under test only ever receives the generated inputs:
//
//   - bandwidth: the program's own net::RandomWalkBandwidth (paper range
//     0.51-2.36x) seeded from the instance seed, or constant;
//   - workload: workload::RandomWalkWorkload (0.8-2.4x) over a fixed
//     10k events/s per source site, or a steady per-site rate;
//   - faults: fault-schedule *text* fed through faults::FaultSchedule::parse,
//     a cycle of crash/restore, self-healing partition, straggler and
//     control-plane stall repeated through the run and cleared before its
//     end. The coordinator (site 0) is never crashed.
//
// One seed expands into `instances` scenarios (instance seeds derived from
// it), so a run's simulated statistics describe many generated scenarios
// rather than one lucky or unlucky draw.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_injector.h"
#include "net/network.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"

namespace perfbench {

class SpanRecorder;

struct WorkloadDef {
  std::string name;
  std::string topology;  // net::TopologySpec text
  bool traced = false;   // timed episodes write a full JSONL trace
  bool chaos = false;    // live bandwidth + workload, generated faults
  int standby_replicas = 0;
  int ticks = 0;          // simulated 1-s ticks per episode
  // Ticks the inputs are generated for (>= ticks): the random walks vary
  // over its first half and then hold; faults fire within it.
  int input_horizon = 0;
  int instances = 1;      // generated scenarios per round
  // Steady workloads: each source site's rate is drawn once per instance,
  // uniformly within +/- this fraction of the base rate.
  double rate_spread = 0.0;
  // Traced probes that measure trace volume on an untraced workload
  // (outside the timed loop): the first `probe_ticks` of the first
  // `probe_instances` instances.
  int probe_ticks = 0;
  int probe_instances = 0;
  // Workload whose simulated outputs this one must reproduce over its own
  // tick count ("" = none).
  std::string reference;

  // Canonical one-line description of everything that defines the job.
  [[nodiscard]] std::string spec() const;
};

inline constexpr double kSourceRateEps = 10'000.0;
// Seed kept out of every tuning run; later performance claims are checked
// on it (see README.md).
inline constexpr std::uint64_t kHeldOutSeed = 7919;

[[nodiscard]] const std::vector<WorkloadDef>& workloads();
// Null for an unknown name.
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);

// Seed of scenario `instance` of a run seeded with `run_seed`.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t run_seed,
                                          int instance);

// ---- fault cycle --------------------------------------------------------

// Timing of the generated fault cycle, in simulated seconds.
inline constexpr double kCycleFirstSec = 60.0;      // the first cycle starts
inline constexpr double kCyclePeriodSec = 600.0;    // cycles start this apart
inline constexpr double kCycleSpanSec = 360.0;      // a cycle's faults clear
inline constexpr double kCycleCalmTailSec = 120.0;  // fault-free before horizon

// Fault-schedule text over `horizon_sec`. Crash victims and partition
// sources are drawn from `dc_sites`, stragglers from `other_sites`; neither
// may contain the heartbeat `coordinator`, which is never crashed and is the
// far end of every partition. Deterministic in `seed`.
[[nodiscard]] std::string generate_fault_schedule(
    std::uint64_t seed, double horizon_sec, int coordinator,
    const std::vector<int>& dc_sites, const std::vector<int>& other_sites);

// ---- one episode's deployed system ---------------------------------------

struct EpisodeOptions {
  int ticks = 0;
  int threads = 1;
  bool profile = false;
  std::string trace_path;  // empty = untraced
  // After the run, step until no bulk flow is left (see main.cc).
  bool check_drain = false;
};

// Wall time of the three set-up stages, in nanoseconds.
struct SetupTimes {
  std::int64_t topology_ns = 0;  // topology build
  std::int64_t inputs_ns = 0;    // random walks, rates, fault text + parse
  std::int64_t deploy_ns = 0;    // network, query, WaspSystem, injector

  [[nodiscard]] std::int64_t total_ns() const {
    return topology_ns + inputs_ns + deploy_ns;
  }
};

// Everything one episode owns, in dependency order: each member uses the
// ones above it, so they must be destroyed bottom-up.
struct Deployment {
  Deployment() = default;
  Deployment(Deployment&&) = default;
  // Member-wise assignment would free the network first.
  Deployment& operator=(Deployment&&) = delete;

  std::unique_ptr<wasp::net::Network> network;
  std::unique_ptr<wasp::workload::WorkloadPattern> pattern;
  std::unique_ptr<wasp::runtime::WaspSystem> system;
  std::unique_ptr<wasp::faults::FaultInjector> injector;  // null without faults

  // Destroys the members in reverse order; flushes any trace file.
  void teardown() {
    injector.reset();
    system.reset();
    pattern.reset();
    network.reset();
  }
};

// Builds instance `instance` of `w` for run seed `run_seed`, timing the
// set-up stages into `times`. When `spans` is non-null the stages are also
// recorded as spans under `parent_span`. Throws std::runtime_error on bad
// input (unparseable topology or fault text).
[[nodiscard]] Deployment deploy(const WorkloadDef& w, std::uint64_t run_seed,
                                int instance, const EpisodeOptions& options,
                                SetupTimes* times, SpanRecorder* spans,
                                std::uint32_t parent_span);

}  // namespace perfbench
