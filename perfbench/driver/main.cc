// wasp_perfbench: runs one benchmark job and prints one JSON object.
//
//   wasp_perfbench --job=plain|layer|probe|reference --workload=NAME
//                  --seed=N --seconds=S --out-dir=DIR
//   wasp_perfbench --list
//
// The driver is one closed-loop caller of the public API: per tick it calls
// faults::FaultInjector::tick and then runtime::WaspSystem::step, and times
// both from outside. Episodes (deploy, run the workload's ticks, collect,
// tear down) repeat in whole rounds over the workload's generated instances
// until --seconds have passed. Jobs:
//
//   plain      the end-to-end metrics: profiler off, tracing only where the
//              workload is traced. Run alone in its process (peak RSS).
//   layer      per-layer metrics: interleaves profiled episodes (with the
//              driver's own spans) with plain ones, the same inputs on a
//              4-thread pool, and the same inputs with tracing flipped.
//   probe      a traced prefix of an untraced workload: trace volume.
//   reference  one round of the workload's reference job over its ticks,
//              for the cross-workload equality checks in run.py.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.h"
#include "driver/digest.h"
#include "driver/inputs.h"
#include "driver/spans.h"
#include "driver/stats.h"
#include "obs/profiler.h"
#include "obs/trace_analysis.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using wasp::obs::Phase;

// Rounds a plain run repeats at least, so each tick's best time is the
// fastest of two or more runs of it.
constexpr int kMinRounds = 2;
// Every workload runs single-threaded; the layer run repeats its instances
// on a pool of this many threads to measure the exec layer.
constexpr int kPoolThreads = 4;
constexpr std::size_t kSpanCapacity = 200'000;
// A run can end while a standby sync (every 30 s) or a migration (up to
// ~100 s on a slow link) is in flight, so the bulk-flow check keeps
// stepping, untimed and after the outputs are collected, until the network
// drains. A leaked flow never does.
constexpr int kDrainLimitTicks = 600;
// Scenarios a layer run cycles through.
constexpr int kLayerInstances = 16;
constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::kCount);

// ---- JSON output ----------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// An ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& encoded) {
    fields_.emplace_back(key, encoded);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  [[nodiscard]] std::string encode() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Metrics in emission order: name -> {"value", "unit", "samples"}.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_.raw(name, JsonObject()
                           .num("value", value)
                           .str("unit", unit)
                           .num("samples", static_cast<double>(samples))
                           .encode());
  }
  [[nodiscard]] std::string encode() const { return metrics_.encode(); }

 private:
  JsonObject metrics_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string encode_checks(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonObject()
               .str("name", checks[i].name)
               .flag("ok", checks[i].ok)
               .str("detail", checks[i].detail)
               .encode();
  }
  return out + "]";
}

// ---- episodes -----------------------------------------------------------

// What a profiled episode adds: the phase profiler, the driver's spans, the
// per-tick work counts, and the control-plane outcomes.
struct LayerSample {
  std::array<wasp::obs::PhaseAccum, kPhases> accums{};
  double flow_ticks = 0.0;     // sum over ticks of Network::num_flows()
  double channel_ticks = 0.0;  // sum over ticks of inbound channels
  double group_ticks = 0.0;    // sum over ticks of (stage, site) groups
  double recovery_events = 0.0;
  double transition_aborts = 0.0;
  double failovers = 0.0;
  double adaptations = 0.0;
  double transitions_completed = 0.0;
  double migrated_mb = 0.0;
  std::vector<double> stabilize_sec;
  double pool_threads = 0.0;
  double pool_regions = 0.0;
  double pool_busy_us = 0.0;
};

struct Episode {
  int instance = 0;
  SetupTimes setup;
  std::vector<double> tick_ns;  // wall time of injector tick + step
  bool completed = false;       // ran every requested tick
  std::uint64_t digest = 0;
  double delay_p99_s = 0.0;  // the Recorder's event-weighted p99
  double generated = 0.0;
  double processed = 0.0;
  // Untimed ticks after the run until no bulk flow was left; -1 when the
  // network did not drain within kDrainLimitTicks (or was not checked).
  int drain_ticks = -1;
  std::uint64_t trace_bytes = 0;
  LayerSample layer;

  [[nodiscard]] double tick_sum_ns(std::size_t first_n) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < std::min(first_n, tick_ns.size()); ++i) {
      sum += tick_ns[i];
    }
    return sum;
  }
};

double metric_value(const wasp::obs::MetricsRegistry& metrics,
                    const std::string& name) {
  for (const auto& [k, v] : metrics.snapshot()) {
    if (k == name) return v;
  }
  return 0.0;
}

void count_work(const wasp::runtime::WaspSystem& system,
                const wasp::net::Network& network, LayerSample* out) {
  out->flow_ticks += static_cast<double>(network.num_flows());
  const wasp::engine::Engine& engine = system.engine();
  const std::size_t ops = engine.logical().num_operators();
  for (std::size_t i = 0; i < ops; ++i) {
    const wasp::OperatorId op(static_cast<std::int64_t>(i));
    out->channel_ticks += static_cast<double>(engine.channels_into(op).size());
    for (const int tasks : engine.placement(op).per_site) {
      if (tasks > 0) out->group_ticks += 1.0;
    }
  }
}

// Deploys instance `instance` of `w`, runs `options.ticks` ticks and tears
// the system down. With `spans`, the episode is a layer episode: set-up
// stages, every tick, the injector call and the step call become spans, and
// the work per tick is counted. With options.profile the profiler's and the
// pool's totals are collected.
Episode run_episode(const WorkloadDef& w, std::uint64_t seed, int instance,
                    const EpisodeOptions& options, SpanRecorder* spans) {
  Episode ep;
  ep.instance = instance;
  const std::uint32_t root = spans != nullptr ? spans->new_id() : 0;
  const std::int64_t episode_start = now_ns();
  Deployment d = deploy(w, seed, instance, options, &ep.setup, spans, root);
  wasp::runtime::WaspSystem& system = *d.system;
  ep.tick_ns.reserve(static_cast<std::size_t>(options.ticks));

  if (spans == nullptr) {
    std::int64_t prev = now_ns();
    for (int t = 0; t < options.ticks; ++t) {
      if (d.injector != nullptr) d.injector->tick(system.now());
      system.step();
      const std::int64_t now = now_ns();
      ep.tick_ns.push_back(static_cast<double>(now - prev));
      prev = now;
    }
  } else {
    for (int t = 0; t < options.ticks; ++t) {
      count_work(system, *d.network, &ep.layer);
      const std::int64_t t0 = now_ns();
      if (d.injector != nullptr) d.injector->tick(system.now());
      const std::int64_t t1 = now_ns();
      system.step();
      const std::int64_t t2 = now_ns();
      const std::uint32_t tick = spans->new_id();
      spans->record(tick, "tick", root, t0, t2);
      spans->record(spans->new_id(), "faults.inject", tick, t0, t1);
      spans->record(spans->new_id(), "runtime.step", tick, t1, t2);
      ep.tick_ns.push_back(static_cast<double>(t2 - t0));
    }
  }

  ep.completed = std::lround(system.now()) == options.ticks &&
                 static_cast<int>(ep.tick_ns.size()) == options.ticks;
  ep.digest = sim_digest(system);
  const wasp::runtime::Recorder& rec = system.recorder();
  ep.delay_p99_s = rec.delay_histogram().percentile(99.0);
  ep.generated = rec.total_generated();
  ep.processed = rec.total_processed();

  if (options.profile) {
    LayerSample& l = ep.layer;
    system.export_profiler_metrics();
    l.accums = system.profiler().accums();
    const auto& metrics = system.metrics();
    l.recovery_events = metric_value(metrics, "runtime.recovery_events");
    l.transition_aborts = metric_value(metrics, "runtime.transition_aborts");
    l.failovers = metric_value(metrics, "runtime.failovers");
    l.pool_threads = metric_value(metrics, "pool.threads");
    l.pool_regions = metric_value(metrics, "pool.regions");
    l.pool_busy_us = metric_value(metrics, "pool.wall_busy_us");
    for (const auto& e : rec.events()) {
      l.adaptations += 1.0;
      if (e.transition_end >= 0.0 && !e.aborted()) {
        l.transitions_completed += 1.0;
        l.migrated_mb += e.migrated_mb;
      }
      if (e.stabilized_at >= 0.0) l.stabilize_sec.push_back(e.stabilize_sec());
    }
  }
  if (options.check_drain) {
    int extra = 0;
    while (d.network->num_bulk_flows() > 0 && extra < kDrainLimitTicks) {
      if (d.injector != nullptr) d.injector->tick(system.now());
      system.step();
      ++extra;
    }
    if (d.network->num_bulk_flows() == 0) ep.drain_ticks = extra;
  }
  d.teardown();
  if (spans != nullptr) spans->record(root, "episode", 0, episode_start, now_ns());
  if (!options.trace_path.empty()) {
    ep.trace_bytes = std::filesystem::file_size(options.trace_path);
  }
  return ep;
}

// ---- shared helpers -----------------------------------------------------

struct TraceCount {
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  bool valid = false;
  std::string detail;
};

// Counts and validates a written trace the way `wasp_trace validate` does:
// every line parses and the span forest balances.
TraceCount inspect_trace(const std::string& path) {
  TraceCount out;
  out.bytes = std::filesystem::file_size(path);
  std::string error;
  const wasp::obs::TraceFile file =
      wasp::obs::load_trace_file(path, &error);
  out.events = file.lines;
  const wasp::obs::ValidationReport report = wasp::obs::validate_trace(file);
  out.valid = error.empty() && report.ok() && report.unclosed == 0 &&
              report.orphan_ends == 0 && file.lines > 0;
  std::ostringstream detail;
  detail << file.lines << " events, " << report.spans << " spans, "
         << report.errors.size() << " errors";
  if (!report.errors.empty()) detail << " (first: " << report.errors.front() << ")";
  if (!error.empty()) detail << " (" << error << ")";
  out.detail = detail.str();
  return out;
}

// Peak RSS of this program's address space (VmHWM). getrusage's ru_maxrss
// would not do: it keeps the RSS of the process that forked this one, so a
// driver started from Python would report at least Python's RSS.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Args {
  std::string job;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string out_dir = ".";
};

std::string trace_file(const Args& args, const std::string& tag) {
  return (std::filesystem::path(args.out_dir) /
          (args.workload + "-" + tag + ".jsonl"))
      .string();
}

JsonObject job_header(const Args& args, const WorkloadDef& w) {
  JsonObject out;
  out.str("job", args.job)
      .str("workload", w.name)
      .str("spec", w.spec())
      .num("seed", static_cast<double>(args.seed))
      .num("seconds", args.seconds)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", PERFBENCH_COMPILER);
  return out;
}

// Digest of every episode of one instance must equal its first one.
void check_repeats(const std::vector<Episode>& eps, const std::string& what,
                   std::vector<std::uint64_t>* first, int* failed,
                   std::vector<Check>* checks) {
  std::map<int, std::uint64_t> seen;
  int mismatches = 0;
  for (const Episode& e : eps) {
    const auto [it, inserted] = seen.emplace(e.instance, e.digest);
    if (!inserted && it->second != e.digest) {
      ++mismatches;
      ++*failed;
    }
  }
  for (const auto& [instance, digest] : seen) first->push_back(digest);
  checks->push_back({what + "_repeats_identical", mismatches == 0,
                     std::to_string(mismatches) + " of " +
                         std::to_string(eps.size()) +
                         " episodes differ from their instance's first run"});
}

std::string encode_digests(const std::vector<std::uint64_t>& digests) {
  std::string out = "[";
  for (std::size_t i = 0; i < digests.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(to_hex(digests[i]));
  }
  return out + "]";
}

// Runs whole rounds of episodes (instances 0..K-1) until `seconds` have
// passed and at least `min_rounds` rounds have run; returns the rounds run.
template <typename EpisodeFn>
int run_rounds(int instances, double seconds, int min_rounds,
               EpisodeFn episode) {
  const std::int64_t start = now_ns();
  for (int r = 0;; ++r) {
    for (int i = 0; i < instances; ++i) episode(r, i);
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (elapsed >= seconds && r + 1 >= min_rounds) return r + 1;
  }
}

// ---- jobs -----------------------------------------------------------------

int job_plain(const Args& args, const WorkloadDef& w) {
  EpisodeOptions options;
  options.ticks = w.ticks;
  if (w.traced) options.trace_path = trace_file(args, "plain");
  // Full-length chaos episodes end after the faults clear; the traced
  // prefix stops mid-cycle.
  options.check_drain = w.chaos && !w.traced;

  std::vector<Episode> eps;
  // Every round replays the same instances (their digests must match), so a
  // tick's time differs between rounds only by what the rest of the host did
  // meanwhile, which only ever adds time. So each tick, and each instance's
  // set-up, is timed at its fastest over the rounds.
  std::vector<std::vector<double>> best_tick_ns(
      static_cast<std::size_t>(w.instances));
  std::vector<double> best_setup_s(static_cast<std::size_t>(w.instances));
  std::size_t ticks = 0;
  // Every trace of the first round is validated (untimed, between
  // episodes); later rounds repeat the same instances.
  int traces_checked = 0, traces_bad = 0;
  std::string bad_trace;
  // Later rounds repeat the first round's instances, so the program's peak
  // is reached in the first round.
  double rss_mb = 0.0;
  const int rounds = run_rounds(w.instances, args.seconds, kMinRounds,
                                [&](int round, int instance) {
    eps.push_back(run_episode(w, args.seed, instance, options, nullptr));
    Episode& e = eps.back();
    const auto i = static_cast<std::size_t>(instance);
    const double setup_s = static_cast<double>(e.setup.total_ns()) / 1e9;
    if (round == 0) {
      best_tick_ns[i] = e.tick_ns;
      best_setup_s[i] = setup_s;
    } else {
      const std::size_t n = std::min(e.tick_ns.size(), best_tick_ns[i].size());
      for (std::size_t t = 0; t < n; ++t) {
        best_tick_ns[i][t] = std::min(best_tick_ns[i][t], e.tick_ns[t]);
      }
      best_setup_s[i] = std::min(best_setup_s[i], setup_s);
    }
    ticks += e.tick_ns.size();
    std::vector<double>().swap(e.tick_ns);
    if (w.traced && round == 0) {
      const TraceCount trace = inspect_trace(options.trace_path);
      ++traces_checked;
      if (!trace.valid) {
        ++traces_bad;
        if (bad_trace.empty()) {
          bad_trace = "; instance " + std::to_string(instance) + ": " +
                      trace.detail;
        }
      }
    }
    if (round == 0 && instance + 1 == w.instances) rss_mb = peak_rss_mb();
  });
  if (w.traced) std::filesystem::remove(options.trace_path);

  std::vector<Check> checks;
  int failed = 0;
  std::uint64_t trace_bytes = 0;
  int incomplete = 0, bulk_left = 0;
  std::string bulk_instances;
  for (const Episode& e : eps) {
    trace_bytes += e.trace_bytes;
    const bool bulk_ok = !options.check_drain || e.drain_ticks >= 0;
    if (!e.completed) ++incomplete;
    if (!bulk_ok) {
      ++bulk_left;
      bulk_instances += ' ';
      bulk_instances += std::to_string(e.instance);
    }
    if (!e.completed || !bulk_ok) ++failed;
  }
  checks.push_back({"ticks_completed", incomplete == 0,
                    std::to_string(incomplete) + " episodes stopped early"});
  if (options.check_drain) {
    std::string detail = std::to_string(bulk_left) +
                         " episodes kept bulk flows " +
                         std::to_string(kDrainLimitTicks) +
                         " ticks past the run";
    if (bulk_left > 0) detail += "; instances" + bulk_instances;
    checks.push_back({"bulk_flows_drain", bulk_left == 0, detail});
  }
  std::vector<std::uint64_t> digests;
  check_repeats(eps, "plain", &digests, &failed, &checks);
  if (w.traced) {
    checks.push_back({"traces_valid", traces_bad == 0,
                      std::to_string(traces_bad) + " of " +
                          std::to_string(traces_checked) +
                          " traces fail validation" + bad_trace});
    failed += traces_bad;
  }

  // Simulated statistics come from the first round: the same instances on
  // every run of a seed, however fast the host.
  std::vector<const Episode*> first_round;
  double generated = 0.0, processed = 0.0;
  for (int i = 0; i < w.instances; ++i) {
    first_round.push_back(&eps[static_cast<std::size_t>(i)]);
    generated += eps[static_cast<std::size_t>(i)].generated;
    processed += eps[static_cast<std::size_t>(i)].processed;
  }

  // One round of ticks, each at its best time.
  std::vector<double> best;
  for (const auto& instance_ticks : best_tick_ns) {
    best.insert(best.end(), instance_ticks.begin(), instance_ticks.end());
  }
  double best_sum_ns = 0.0;
  for (const double ns : best) best_sum_ns += ns;
  const std::optional<Percentile> p99 = tail_percentile(best, 99.0);
  if (!p99.has_value()) {
    ++failed;
    checks.push_back({"tick_p99_samples", false,
                      std::to_string(best.size()) +
                          " ticks per round leave fewer than 10 beyond p99"});
  }
  MetricSet m;
  m.add("ticks_per_s", static_cast<double>(best.size()) / (best_sum_ns / 1e9),
        "ticks/s", best.size());
  m.add("tick_us_p50", median(best) / 1e3, "us", best.size());
  m.add("tick_us_p99", p99.has_value() ? p99->value / 1e3 : 0.0, "us",
        best.size());
  m.add("setup_s", median(best_setup_s), "s", best_setup_s.size());
  m.add("peak_rss_mb", rss_mb, "MB", 1);
  if (w.traced) {
    m.add("trace_bytes_per_tick",
          static_cast<double>(trace_bytes) / static_cast<double>(ticks),
          "B/tick", eps.size());
  }
  // The median scenario's p99: a few scenarios stall a stream for most of
  // a fault, so a pooled p99 would follow how many of those a seed draws.
  std::vector<double> scenario_p99;
  for (const Episode* e : first_round) scenario_p99.push_back(e->delay_p99_s);
  m.add("sim_delay_p99_s", median(scenario_p99), "sim_s", first_round.size());
  m.add("sim_processed_frac", generated > 0.0 ? processed / generated : 0.0,
        "ratio", first_round.size());

  JsonObject out = job_header(args, w);
  out.num("episodes", static_cast<double>(eps.size()))
      .num("rounds", rounds)
      .num("ticks", static_cast<double>(ticks))
      .num("failed", failed)
      .raw("checks", encode_checks(checks))
      .raw("digests", encode_digests(digests))
      .raw("metrics", m.encode());
  std::cout << out.encode() << "\n";
  return 0;
}

// Traced prefixes of the first instances: what a full trace of this
// workload costs in bytes and events per tick.
int job_probe(const Args& args, const WorkloadDef& w) {
  EpisodeOptions options;
  options.ticks = w.probe_ticks;
  options.trace_path = trace_file(args, "probe");
  const int instances = w.probe_instances;
  std::uint64_t bytes = 0, events = 0;
  int incomplete = 0, invalid = 0;
  std::string bad_trace;
  for (int i = 0; i < instances; ++i) {
    const Episode e = run_episode(w, args.seed, i, options, nullptr);
    const TraceCount trace = inspect_trace(options.trace_path);
    bytes += trace.bytes;
    events += trace.events;
    if (!e.completed) ++incomplete;
    if (!trace.valid) {
      ++invalid;
      if (bad_trace.empty()) {
        bad_trace = "; instance " + std::to_string(i) + ": " + trace.detail;
      }
    }
  }
  std::filesystem::remove(options.trace_path);
  const std::string of = " of " + std::to_string(instances);
  const std::vector<Check> checks{
      {"probe_ticks_completed", incomplete == 0,
       std::to_string(incomplete) + of + " probes stopped early"},
      {"traces_valid", invalid == 0,
       std::to_string(invalid) + of + " traces fail validation" + bad_trace}};
  JsonObject out = job_header(args, w);
  out.num("episodes", instances)
      .num("ticks", static_cast<double>(instances) * options.ticks)
      .num("trace_bytes", static_cast<double>(bytes))
      .num("trace_events", static_cast<double>(events))
      .num("failed", incomplete + invalid)
      .raw("checks", encode_checks(checks));
  std::cout << out.encode() << "\n";
  return 0;
}

// One round of the reference workload over this workload's ticks and
// instances, untraced.
int job_reference(const Args& args, const WorkloadDef& w) {
  const WorkloadDef* ref = find_workload(w.reference);
  if (ref == nullptr) {
    std::cerr << "workload " << w.name << " has no reference\n";
    return 2;
  }
  EpisodeOptions options;
  options.ticks = w.ticks;
  std::vector<std::uint64_t> digests;
  int failed = 0;
  for (int i = 0; i < w.instances; ++i) {
    const Episode e = run_episode(*ref, args.seed, i, options, nullptr);
    digests.push_back(e.digest);
    if (!e.completed) ++failed;
  }
  JsonObject out = job_header(args, w);
  out.str("reference", ref->name)
      .num("episodes", w.instances)
      .num("failed", failed)
      .raw("checks", encode_checks({{"reference_ticks_completed", failed == 0,
                                     ""}}))
      .raw("digests", encode_digests(digests));
  std::cout << out.encode() << "\n";
  return 0;
}

int job_layer(const Args& args, const WorkloadDef& w) {
  EpisodeOptions layer_opts;
  layer_opts.ticks = w.ticks;
  layer_opts.profile = true;
  if (w.traced) layer_opts.trace_path = trace_file(args, "layer");
  EpisodeOptions plain_opts = layer_opts;
  plain_opts.profile = false;
  // The same inputs on a thread pool, profiled for the pool's counters.
  EpisodeOptions pooled = layer_opts;
  pooled.threads = kPoolThreads;
  // The same inputs with tracing flipped: untraced over the traced ticks,
  // or a traced probe over the first probe_ticks of an untraced workload.
  EpisodeOptions flipped = plain_opts;
  if (w.traced) {
    flipped.trace_path.clear();
  } else {
    flipped.ticks = w.probe_ticks;
    flipped.trace_path = trace_file(args, "probe");
  }

  SpanRecorder spans(kSpanCapacity);
  std::vector<Episode> layer, plain, other, flip;
  std::vector<TraceCount> flip_traces;
  std::vector<TraceCount> plain_traces;
  // Per-layer figures need fewer scenarios than the end-to-end ones; the
  // traced probe of an untraced workload runs on the first few only.
  const int instances = std::min(w.instances, kLayerInstances);
  run_rounds(instances, args.seconds, 1, [&](int round, int instance) {
    layer.push_back(run_episode(w, args.seed, instance, layer_opts, &spans));
    plain.push_back(run_episode(w, args.seed, instance, plain_opts, nullptr));
    if (w.traced && round == 0) {
      plain_traces.push_back(inspect_trace(plain_opts.trace_path));
    }
    other.push_back(run_episode(w, args.seed, instance, pooled, nullptr));
    if (w.traced || (round == 0 && instance < w.probe_instances)) {
      flip.push_back(run_episode(w, args.seed, instance, flipped, nullptr));
      if (!w.traced) flip_traces.push_back(inspect_trace(flipped.trace_path));
    }
  });
  for (const std::string& path : {layer_opts.trace_path, flipped.trace_path}) {
    if (!path.empty()) std::filesystem::remove(path);
  }

  // Outputs must not depend on the profiler, the thread count, or tracing.
  std::vector<Check> checks;
  int failed = 0;
  std::vector<std::uint64_t> first;
  check_repeats(layer, "layer", &first, &failed, &checks);
  auto same_as_layer = [&](const std::vector<Episode>& eps,
                           const std::string& what) {
    int bad = 0;
    for (std::size_t i = 0; i < eps.size(); ++i) {
      if (eps[i].digest != first[static_cast<std::size_t>(eps[i].instance)]) {
        ++bad;
      }
    }
    failed += bad;
    checks.push_back({what, bad == 0,
                      std::to_string(bad) + " of " + std::to_string(eps.size()) +
                          " episodes differ from the layer run"});
  };
  same_as_layer(plain, "plain_equals_layer");
  same_as_layer(other, "threads4_equals_layer");
  if (w.traced) same_as_layer(flip, "untraced_equals_traced");
  for (const auto& traces : {plain_traces, flip_traces}) {
    for (const TraceCount& t : traces) {
      if (!t.valid) ++failed;
      checks.push_back({"trace_valid", t.valid, t.detail});
    }
  }

  // Totals over the layer episodes.
  std::array<wasp::obs::PhaseAccum, kPhases> acc{};
  LayerSample sum;
  std::vector<double> topo_ms, inputs_ms, deploy_ms;
  double ticks = 0.0, layer_tick_ns = 0.0;
  for (const Episode& e : layer) {
    for (std::size_t p = 0; p < kPhases; ++p) {
      acc[p].calls += e.layer.accums[p].calls;
      acc[p].total_ns += e.layer.accums[p].total_ns;
      acc[p].self_ns += e.layer.accums[p].self_ns;
    }
    const LayerSample& l = e.layer;
    sum.flow_ticks += l.flow_ticks;
    sum.channel_ticks += l.channel_ticks;
    sum.group_ticks += l.group_ticks;
    sum.recovery_events += l.recovery_events;
    sum.transition_aborts += l.transition_aborts;
    sum.failovers += l.failovers;
    sum.adaptations += l.adaptations;
    sum.transitions_completed += l.transitions_completed;
    sum.migrated_mb += l.migrated_mb;
    sum.stabilize_sec.insert(sum.stabilize_sec.end(), l.stabilize_sec.begin(),
                             l.stabilize_sec.end());
    topo_ms.push_back(static_cast<double>(e.setup.topology_ns) / 1e6);
    inputs_ms.push_back(static_cast<double>(e.setup.inputs_ns) / 1e6);
    deploy_ms.push_back(static_cast<double>(e.setup.deploy_ns) / 1e6);
    ticks += static_cast<double>(e.tick_ns.size());
    layer_tick_ns += e.tick_sum_ns(e.tick_ns.size());
  }
  const double episodes = static_cast<double>(layer.size());
  auto phase = [&](Phase p) { return acc[static_cast<std::size_t>(p)]; };
  auto self_ns = [&](Phase p) { return static_cast<double>(phase(p).self_ns); };
  auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto us_per_call = [&](Phase p) {
    return per(static_cast<double>(phase(p).total_ns) / 1e3,
               static_cast<double>(phase(p).calls));
  };
  auto calls = [&](Phase p) {
    return per(static_cast<double>(phase(p).calls), episodes);
  };
  auto tps = [&per](const std::vector<Episode>& eps) {
    double n = 0.0, ns = 0.0;
    for (const Episode& e : eps) {
      n += static_cast<double>(e.tick_ns.size());
      ns += e.tick_sum_ns(e.tick_ns.size());
    }
    return per(n, ns / 1e9);
  };
  double plain_tick_ns = 0.0, plain_ticks = 0.0;
  for (const Episode& e : plain) {
    plain_tick_ns += e.tick_sum_ns(e.tick_ns.size());
    plain_ticks += static_cast<double>(e.tick_ns.size());
  }

  // Trace cost: traced minus untraced wall time over the same ticks, per
  // event written.
  double trace_events = 0.0, trace_bytes = 0.0, trace_ticks = 0.0;
  double traced_ns = 0.0, untraced_ns = 0.0;
  if (w.traced) {
    for (std::size_t i = 0; i < plain_traces.size(); ++i) {
      trace_events += static_cast<double>(plain_traces[i].events);
      trace_bytes += static_cast<double>(plain_traces[i].bytes);
      trace_ticks += static_cast<double>(plain[i].tick_ns.size());
    }
    for (const Episode& e : plain) traced_ns += e.tick_sum_ns(e.tick_ns.size());
    for (const Episode& e : flip) untraced_ns += e.tick_sum_ns(e.tick_ns.size());
    // plain and flip hold the same instances the same number of times.
  } else {
    for (std::size_t i = 0; i < flip.size(); ++i) {
      trace_events += static_cast<double>(flip_traces[i].events);
      trace_bytes += static_cast<double>(flip_traces[i].bytes);
      trace_ticks += static_cast<double>(flip[i].tick_ns.size());
      traced_ns += flip[i].tick_sum_ns(flip[i].tick_ns.size());
      untraced_ns += plain[i].tick_sum_ns(flip[i].tick_ns.size());
    }
  }
  const double events_total =
      w.traced ? per(trace_events, trace_ticks) *
                     static_cast<double>(plain.size()) * w.ticks
               : trace_events;

  const double step_total = static_cast<double>(phase(Phase::kStep).total_ns);
  double pool_threads = 0.0, pool_regions = 0.0, pool_busy_us = 0.0;
  double pool_step_ns = 0.0;
  for (const Episode& e : other) {
    pool_threads = std::max(pool_threads, e.layer.pool_threads);
    pool_regions += e.layer.pool_regions;
    pool_busy_us += e.layer.pool_busy_us;
    pool_step_ns += static_cast<double>(
        e.layer.accums[static_cast<std::size_t>(Phase::kStep)].total_ns);
  }
  std::vector<double> stabilize = sum.stabilize_sec;

  MetricSet m;
  const auto n_ep = layer.size();
  const auto n_ticks = static_cast<std::size_t>(ticks);
  m.add("setup.topology_ms", median(topo_ms), "ms", n_ep);
  m.add("setup.inputs_ms", median(inputs_ms), "ms", n_ep);
  m.add("setup.deploy_ms", median(deploy_ms), "ms", n_ep);
  m.add("workload.ns_per_tick", per(self_ns(Phase::kWorkload), ticks),
        "ns/tick", n_ticks);
  m.add("net.flows", per(sum.flow_ticks, ticks), "flows", n_ticks);
  m.add("net.waterfill.ns_per_flow_tick",
        per(self_ns(Phase::kWaterfill), sum.flow_ticks), "ns/flow-tick",
        n_ticks);
  m.add("engine.channels", per(sum.channel_ticks, ticks), "channels", n_ticks);
  m.add("engine.reset.ns_per_channel_tick",
        per(self_ns(Phase::kEngineReset), sum.channel_ticks), "ns/chan-tick",
        n_ticks);
  m.add("engine.channel.ns_per_channel_tick",
        per(self_ns(Phase::kEngineChannel), sum.channel_ticks),
        "ns/chan-tick", n_ticks);
  m.add("engine.delay.ns_per_channel_tick",
        per(self_ns(Phase::kEngineDelay), sum.channel_ticks), "ns/chan-tick",
        n_ticks);
  m.add("engine.stage.ns_per_group_tick",
        per(self_ns(Phase::kEngineStage), sum.group_ticks), "ns/group-tick",
        n_ticks);
  m.add("engine.checkpoint.ns_per_tick",
        per(self_ns(Phase::kEngineCheckpoint), ticks), "ns/tick", n_ticks);
  m.add("engine.emit.ns_per_tick", per(self_ns(Phase::kEngineEmit), ticks),
        "ns/tick", n_ticks);
  m.add("adapt.monitor.ns_per_tick",
        per(self_ns(Phase::kMonitorExtract), ticks), "ns/tick", n_ticks);
  m.add("adapt.decide.us_per_call", us_per_call(Phase::kPolicyDecide),
        "us/call", phase(Phase::kPolicyDecide).calls);
  m.add("adapt.decide.calls", calls(Phase::kPolicyDecide), "calls/episode",
        n_ep);
  m.add("physical.placement.us_per_call", us_per_call(Phase::kSolverPlacement),
        "us/call", phase(Phase::kSolverPlacement).calls);
  m.add("physical.placement.calls", calls(Phase::kSolverPlacement),
        "calls/episode", n_ep);
  m.add("state.migration.us_per_call", us_per_call(Phase::kSolverMigration),
        "us/call", phase(Phase::kSolverMigration).calls);
  m.add("state.migration.calls", calls(Phase::kSolverMigration),
        "calls/episode", n_ep);
  m.add("state.migrated_mb", per(sum.migrated_mb, episodes), "MB/episode",
        n_ep);
  m.add("faults.inject.ns_per_tick",
        per(static_cast<double>(spans.total("faults.inject").total_ns), ticks),
        "ns/tick", n_ticks);
  m.add("faults.recovery_events", per(sum.recovery_events, episodes),
        "events/episode", n_ep);
  m.add("faults.transition_aborts", per(sum.transition_aborts, episodes),
        "aborts/episode", n_ep);
  m.add("resilience.sync.us_per_call", us_per_call(Phase::kStandbySync),
        "us/call", phase(Phase::kStandbySync).calls);
  m.add("resilience.failovers", per(sum.failovers, episodes), "count/episode",
        n_ep);
  m.add("runtime.control.ns_per_tick", per(self_ns(Phase::kControl), ticks),
        "ns/tick", n_ticks);
  m.add("runtime.record.ns_per_tick", per(self_ns(Phase::kRecord), ticks),
        "ns/tick", n_ticks);
  m.add("runtime.step.ns_per_tick", per(self_ns(Phase::kStep), ticks),
        "ns/tick", n_ticks);
  m.add("runtime.adaptations", per(sum.adaptations, episodes), "count/episode",
        n_ep);
  m.add("runtime.transitions_completed_frac",
        per(sum.transitions_completed, sum.adaptations), "ratio",
        static_cast<std::size_t>(sum.adaptations));
  m.add("runtime.stabilize_s_p50", median(stabilize), "sim_s",
        stabilize.size());
  m.add("obs.trace.events_per_tick", per(trace_events, trace_ticks),
        "events/tick", static_cast<std::size_t>(trace_ticks));
  m.add("obs.trace.bytes_per_event", per(trace_bytes, trace_events), "B/event",
        static_cast<std::size_t>(trace_events));
  m.add("obs.trace.ns_per_event", per(traced_ns - untraced_ns, events_total),
        "ns/event", static_cast<std::size_t>(events_total));
  m.add("obs.profile.overhead_frac",
        per(layer_tick_ns / ticks, plain_tick_ns / plain_ticks) - 1.0, "ratio",
        n_ticks);
  m.add("obs.profile.coverage_frac",
        per(step_total - self_ns(Phase::kStep), step_total), "ratio", n_ticks);
  // Both sides profiled: the pool's episodes against the layer episodes.
  m.add("exec.pool.busy_frac",
        per(pool_busy_us * 1e3, pool_threads * pool_step_ns), "ratio",
        n_ticks);
  m.add("exec.pool.regions_per_tick", per(pool_regions, ticks),
        "regions/tick", n_ticks);
  m.add("exec.t4_over_t1", per(tps(other), tps(layer)), "ratio",
        other.size());

  const std::string spans_path =
      (std::filesystem::path(args.out_dir) /
       (w.name + "-seed" + std::to_string(args.seed) + "-spans.json"))
          .string();
  {
    std::ofstream out(spans_path);
    spans.write_chrome_trace(out);
  }

  JsonObject out = job_header(args, w);
  out.num("episodes", episodes + static_cast<double>(plain.size() +
                                                     other.size() + flip.size()))
      .num("layer_episodes", episodes)
      .num("ticks", ticks)
      .num("failed", failed)
      .str("spans_file", spans_path)
      .num("spans_stored", static_cast<double>(spans.stored()))
      .num("spans_dropped", static_cast<double>(spans.dropped()))
      .raw("checks", encode_checks(checks))
      .raw("digests", encode_digests(first))
      .raw("metrics", m.encode());
  std::cout << out.encode() << "\n";
  return 0;
}

int list_workloads() {
  std::string ws = "[";
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    const WorkloadDef& w = workloads()[i];
    ws += (i > 0 ? ", " : "") + JsonObject()
                                    .str("name", w.name)
                                    .str("spec", w.spec())
                                    .str("reference", w.reference)
                                    .encode();
  }
  std::cout << JsonObject()
                   .raw("workloads", ws + "]")
                   .num("held_out_seed", static_cast<double>(kHeldOutSeed))
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .str("compiler", PERFBENCH_COMPILER)
                   .encode()
            << "\n";
  return 0;
}

bool parse_args(int argc, char** argv, Args* args, bool* list) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    const std::string key = a.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : a.substr(eq + 1);
    try {
      if (key == "--list") {
        *list = true;
      } else if (key == "--job") {
        args->job = value;
      } else if (key == "--workload") {
        args->workload = value;
      } else if (key == "--seed") {
        args->seed = std::stoull(value);
      } else if (key == "--seconds") {
        args->seconds = std::stod(value);
      } else if (key == "--out-dir") {
        args->out_dir = value;
      } else {
        std::cerr << "unknown argument " << a << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value in " << a << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool list = false;
  if (!parse_args(argc, argv, &args, &list)) return 2;
  if (list) return list_workloads();
  const WorkloadDef* w = find_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  wasp::set_log_level(wasp::LogLevel::kError);
  try {
    if (args.job == "plain") return job_plain(args, *w);
    if (args.job == "layer") return job_layer(args, *w);
    if (args.job == "probe") return job_probe(args, *w);
    if (args.job == "reference") return job_reference(args, *w);
  } catch (const std::exception& e) {
    std::cerr << "wasp_perfbench: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown job '" << args.job << "'\n";
  return 2;
}
