// One run description (DESIGN.md §9): `RunSpec` holds everything a run
// simulates, `RunSpec::set` is the only place a run value is parsed, and
// `build_run` is the only place a spec becomes a running system. wasp_sim,
// every wasp_sweep cell and the bench testbed's site roles go through here.
//
// Keys, in to_string() order (RunSpec::help prints the same table):
//   query mode seed duration rate alpha slo topology trace workload-trace
//   workload-step bandwidth-step standby-replicas fail fault-schedule
// The sweep axis spellings seeds, policy and fault are aliases of seed, mode
// and fault-schedule. to_string() prints every key, doubles in shortest
// round-trip form, so RunSpec::parse(s.to_string()) == s holds exactly.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "faults/fault_injector.h"
#include "net/network.h"
#include "net/topology_spec.h"
#include "obs/trace.h"
#include "runtime/slo_watchdog.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::runtime {

enum class QueryKind { kTopk, kYsb, kEventsOfInterest, kJoin };

[[nodiscard]] const char* to_string(QueryKind query);

// (time, factor) pairs of workload-step / bandwidth-step.
using Steps = std::vector<std::pair<double, double>>;

struct RunSpec {
  QueryKind query = QueryKind::kTopk;
  AdaptationMode mode = AdaptationMode::kWasp;
  std::uint64_t seed = 7;
  double duration_sec = 900.0;
  double rate_eps = 10'000.0;  // base events/s per source site
  double alpha = 0.8;
  double slo_sec = 10.0;                // degrade/hybrid SLO
  std::optional<SloSpec> slo_watchdog;  // the slo=k=v,... form
  net::TopologySpec topology;           // the paper testbed by default
  std::string bandwidth_trace;  // key `trace`: "" = constant, "live", or CSV
  std::string workload_trace;   // "" = constant, "live", or CSV
  Steps workload_steps;         // scale the constant workload only
  Steps bandwidth_steps;
  int standby_replicas = 0;
  std::optional<std::pair<double, double>> fail;  // (t, duration)
  std::string fault_schedule;                     // "" = none

  // Parses and validates one key or alias. Returns false with a one-line
  // *error, leaving the spec unchanged, on an unknown key or a bad value.
  bool set(std::string_view key, std::string_view value, std::string* error);

  // One command-line argument: "--key=value", or --live-bandwidth
  // (trace=live) or --live-workload (workload-trace=live).
  bool set_arg(std::string_view arg, std::string* error);

  // Whitespace-separated key=value pairs applied to a default spec.
  static std::optional<RunSpec> parse(std::string_view text,
                                      std::string* error);
  [[nodiscard]] std::string to_string() const;

  // The sweep axis spelling of a key or alias (seeds, policy, fault, or the
  // key itself); nullopt for an unknown name.
  static std::optional<std::string_view> axis_name(std::string_view name);

  // One --key=VALUE help entry per key, showing the value in `defaults` as
  // the default.
  static std::string help(const RunSpec& defaults);

  bool operator==(const RunSpec&) const = default;
};

// Which sites feed a query's sources and which hosts its sink. When the
// topology has edge sites they feed the sources, split east/west
// alternately; otherwise the hub layout applies: site 0 is the sink and
// every other site feeds a source, odd ids east and even ids west. `dcs` are
// the non-edge sites (every site in the hub layout); the sink is the first.
struct SiteRoles {
  std::vector<SiteId> east, west, edges, dcs;
  SiteId sink;
};

[[nodiscard]] SiteRoles site_roles(const net::Topology& topology);

// The query's plan over `roles`, or nullopt with *error when there are too
// few sites for it: topk needs an east and a west source site, ysb one
// source site, interest two, join four data centers.
std::optional<workload::QuerySpec> make_query(QueryKind query,
                                              const SiteRoles& roles,
                                              std::string* error);

// How a run executes and is observed, never what it simulates: results are
// identical for any value of these (DESIGN.md §9, §11, §13), so they stay
// out of RunSpec and its string form.
struct RunSettings {
  int threads = 1;
  bool profile = false;
  int profile_every = 60;
  std::shared_ptr<obs::TraceSink> trace_sink;  // null = no trace
};

struct BuildError {
  std::string message;
  bool file = false;  // a named input file could not be read or parsed
};

// A built run. Owns the network, workload pattern, system and fault
// injector, destroyed in reverse order.
class Run {
 public:
  // One tick: the fail window's edges, then the fault injector, then the
  // system step.
  void step();

  // Steps while a whole tick fits before `t`; stops early at a tick
  // boundary once *stop is nonzero (wasp_sim's SIGINT flag).
  void run_until(double t, const volatile std::sig_atomic_t* stop = nullptr);

  [[nodiscard]] WaspSystem& system() { return *system_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }
  // Null when the spec has no fault schedule.
  [[nodiscard]] const faults::FaultInjector* injector() const {
    return injector_.get();
  }

 private:
  friend std::unique_ptr<Run> build_run(const RunSpec& spec,
                                        const RunSettings& settings,
                                        BuildError* error);
  explicit Run(std::optional<std::pair<double, double>> fail) : fail_(fail) {}
  [[nodiscard]] bool tick_fits(double until) const;

  std::optional<std::pair<double, double>> fail_;
  bool failed_ = false;
  bool restored_ = false;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<workload::WorkloadPattern> pattern_;
  std::unique_ptr<WaspSystem> system_;
  std::unique_ptr<faults::FaultInjector> injector_;
};

// Builds `spec`: topology Rng(seed), bandwidth walk Rng(seed + 1), workload
// walk Rng(seed + 2), fault injector Rng(seed ^ 0xFA17). Returns null with
// *error when an input file cannot be read, the query needs more sites than
// the topology has, or the fault schedule names a site or domain outside it.
std::unique_ptr<Run> build_run(const RunSpec& spec, const RunSettings& settings,
                               BuildError* error);

}  // namespace wasp::runtime
