#include "runtime/run_spec.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/number.h"
#include "common/rng.h"
#include "faults/fault_schedule.h"
#include "net/bandwidth_model.h"
#include "net/trace_io.h"
#include "workload/trace_io.h"

namespace wasp::runtime {
namespace {

// The one query-name table.
constexpr std::pair<std::string_view, QueryKind> kQueryNames[] = {
    {"topk", QueryKind::kTopk},
    {"ysb", QueryKind::kYsb},
    {"interest", QueryKind::kEventsOfInterest},
    {"join", QueryKind::kJoin},
};

bool reject(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// "A:B" -> (A, B), both whole-string numbers.
bool parse_pair(std::string_view text, std::pair<double, double>* out) {
  const auto colon = text.find(':');
  return colon != std::string_view::npos &&
         parse_number(text.substr(0, colon), &out->first) &&
         parse_number(text.substr(colon + 1), &out->second);
}

// Appends "T:F" steps joined by '+' ("300:2+600:1"); "none" clears. A '+'
// right after an exponent 'e' belongs to its number ("1e+21:2").
bool append_steps(std::string_view text, Steps* out) {
  if (text == "none") {
    out->clear();
    return true;
  }
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() &&
        (text[i] != '+' || (i > 0 && (text[i - 1] == 'e' ||
                                      text[i - 1] == 'E')))) {
      continue;
    }
    if (!parse_pair(text.substr(start, i - start), &out->emplace_back())) {
      return false;
    }
    start = i + 1;
  }
  return true;
}

std::string or_none(const std::string& value) {
  return value.empty() ? "none" : value;
}

std::string steps_or_none(const Steps& steps) {
  std::string out;
  for (const auto& [t, factor] : steps) {
    if (!out.empty()) out += '+';
    out += format_number(t) + ":" + format_number(factor);
  }
  return or_none(out);
}

struct Key {
  std::string_view name;
  std::string_view axis;  // the sweep's spelling, also accepted; or empty
  std::string_view metavar;
  std::string_view want;  // the accepted values, for error messages
  std::string_view help;  // '\n' separates help lines
  // Sets the key on a scratch copy of the spec; false rejects the value,
  // with *why overriding `want` when set.
  bool (*set)(RunSpec& spec, std::string_view value, std::string* why);
  std::string (*print)(const RunSpec& spec);
};

// The one key table: parsing, validation, canonical printing and help.
const Key kKeys[] = {
    {"query", "", "topk|ysb|interest|join", "topk|ysb|interest|join",
     "query to deploy",
     [](RunSpec& s, std::string_view v, std::string*) {
       for (const auto& [name, query] : kQueryNames) {
         if (name == v) {
           s.query = query;
           return true;
         }
       }
       return false;
     },
     [](const RunSpec& s) -> std::string { return to_string(s.query); }},
    {"mode", "policy", "MODE",
     "wasp|no-adapt|static|degrade|re-assign|scale|re-plan|hybrid",
     "adaptation mode: wasp, no-adapt (alias\n"
     "static), degrade, re-assign, scale, re-plan,\n"
     "hybrid",
     [](RunSpec& s, std::string_view v, std::string*) {
       const auto mode = parse_mode(v);
       if (mode.has_value()) s.mode = *mode;
       return mode.has_value();
     },
     [](const RunSpec& s) -> std::string { return to_string(s.mode); }},
    {"seed", "seeds", "N", "an unsigned integer", "master seed",
     [](RunSpec& s, std::string_view v, std::string*) {
       return parse_number(v, &s.seed);
     },
     [](const RunSpec& s) { return std::to_string(s.seed); }},
    {"duration", "", "SECONDS", "a number > 0", "simulated runtime",
     [](RunSpec& s, std::string_view v, std::string*) {
       return parse_number(v, &s.duration_sec) && s.duration_sec > 0.0;
     },
     [](const RunSpec& s) { return format_number(s.duration_sec); }},
    {"rate", "", "EPS", "a number >= 0", "base events/s per source site",
     [](RunSpec& s, std::string_view v, std::string*) {
       return parse_number(v, &s.rate_eps) && s.rate_eps >= 0.0;
     },
     [](const RunSpec& s) { return format_number(s.rate_eps); }},
    {"alpha", "", "X", "0 < X <= 1", "bandwidth utilization threshold",
     [](RunSpec& s, std::string_view v, std::string*) {
       return parse_number(v, &s.alpha) && s.alpha > 0.0 && s.alpha <= 1.0;
     },
     [](const RunSpec& s) { return format_number(s.alpha); }},
    {"slo", "", "SECONDS|SPEC", "seconds >= 0 or a watchdog spec",
     "degrade/hybrid SLO; or a watchdog spec like\n"
     "delay_p99=5s,ratio_min=0.9,window=30s (keys\n"
     "delay_p99 delay_p95 delay_max ratio_min\n"
     "window) whose violations become slo_violation\n"
     "spans",
     [](RunSpec& s, std::string_view v, std::string* why) {
       if (v.find('=') == std::string_view::npos) {
         return parse_number(v, &s.slo_sec) && s.slo_sec >= 0.0;
       }
       s.slo_watchdog = SloSpec::parse(v, why);
       return s.slo_watchdog.has_value();
     },
     // Both forms can be set at once; the watchdog prints as a second slo.
     [](const RunSpec& s) {
       return format_number(s.slo_sec) +
              (s.slo_watchdog ? " slo=" + s.slo_watchdog->to_string() : "");
     }},
    {"topology", "", "SPEC", "",
     "paper | uniform:sites=N,slots=S,bw=MBPS,\n"
     "lat=MS | edge:sites=,regions=,core=,\n"
     "regional=,core-slots=,regional-slots=,\n"
     "edge-slots=A-B,domains-per-region= (';' also\n"
     "separates pairs; DESIGN.md §14). edge: is\n"
     "seeded by seed and re-plans failures per\n"
     "region",
     [](RunSpec& s, std::string_view v, std::string* why) {
       const auto topology = net::TopologySpec::parse(std::string(v), why);
       if (topology.has_value()) s.topology = *topology;
       return topology.has_value();
     },
     [](const RunSpec& s) { return s.topology.to_string(); }},
    {"trace", "", "FILE|live|none", "",
     "bandwidth: replay a CSV (time_sec,from_site,\n"
     "to_site,factor), or a live random walk\n"
     "(factors 0.51-2.36; also --live-bandwidth)",
     [](RunSpec& s, std::string_view v, std::string*) {
       s.bandwidth_trace = v == "none" ? "" : v;
       return true;
     },
     [](const RunSpec& s) { return or_none(s.bandwidth_trace); }},
    {"workload-trace", "", "FILE|live|none", "",
     "workload: replay a CSV (time_sec,\n"
     "source_name,site,events_per_sec), or a live\n"
     "random walk (factors 0.8-2.4; also\n"
     "--live-workload)",
     [](RunSpec& s, std::string_view v, std::string*) {
       s.workload_trace = v == "none" ? "" : v;
       return true;
     },
     [](const RunSpec& s) { return or_none(s.workload_trace); }},
    {"workload-step", "", "T:F[+T:F...]", "T:F, '+'-joined, or none",
     "scale the constant workload by F at time T\n"
     "(not with workload-trace); repeating\n"
     "appends, none clears",
     [](RunSpec& s, std::string_view v, std::string*) {
       return append_steps(v, &s.workload_steps);
     },
     [](const RunSpec& s) { return steps_or_none(s.workload_steps); }},
    {"bandwidth-step", "", "T:F[+T:F...]", "T:F, '+'-joined, or none",
     "scale every link by F at time T; repeating\n"
     "appends, none clears",
     [](RunSpec& s, std::string_view v, std::string*) {
       return append_steps(v, &s.bandwidth_steps);
     },
     [](const RunSpec& s) { return steps_or_none(s.bandwidth_steps); }},
    {"standby-replicas", "", "N", "an integer >= 0",
     "hot standbys per protected stateful stage,\n"
     "in distinct failure domains (DESIGN.md §12)",
     [](RunSpec& s, std::string_view v, std::string*) {
       return parse_number(v, &s.standby_replicas) && s.standby_replicas >= 0;
     },
     [](const RunSpec& s) { return std::to_string(s.standby_replicas); }},
    {"fail", "", "T:D|none", "T:D with T, D >= 0, or none",
     "revoke all compute at T for D seconds",
     [](RunSpec& s, std::string_view v, std::string*) {
       if (v == "none") {
         s.fail.reset();
         return true;
       }
       s.fail.emplace();
       return parse_pair(v, &*s.fail) && s.fail->first >= 0.0 &&
              s.fail->second >= 0.0;
     },
     [](const RunSpec& s) {
       return s.fail ? format_number(s.fail->first) + ":" +
                           format_number(s.fail->second)
                     : std::string("none");
     }},
    {"fault-schedule", "fault", "FILE|none", "",
     "replay a chaos schedule: crash, restore,\n"
     "partition, heal, flap, straggler, stall and\n"
     "domain_down lines (DESIGN.md §8)",
     [](RunSpec& s, std::string_view v, std::string*) {
       s.fault_schedule = v == "none" ? "" : v;
       return true;
     },
     [](const RunSpec& s) { return or_none(s.fault_schedule); }},
};

const Key* find_key(std::string_view name) {
  for (const Key& key : kKeys) {
    if (key.name == name || (!key.axis.empty() && key.axis == name)) {
      return &key;
    }
  }
  return nullptr;
}

}  // namespace

const char* to_string(QueryKind query) {
  for (const auto& [name, q] : kQueryNames) {
    if (q == query) return name.data();
  }
  return "?";
}

bool RunSpec::set(std::string_view key, std::string_view value,
                  std::string* error) {
  const Key* entry = find_key(key);
  if (entry == nullptr) {
    return reject(error, "unknown key '" + std::string(key) + "'");
  }
  // Setters write to a copy, so a rejected value changes nothing; a value
  // never holds whitespace, so to_string() stays parseable.
  RunSpec next = *this;
  std::string why = "contains whitespace";
  if (value.find_first_of(" \t\r\n") == std::string_view::npos) {
    why.clear();
    if (entry->set(next, value, &why)) {
      *this = std::move(next);
      return true;
    }
    if (why.empty()) why = "want " + std::string(entry->want);
  }
  return reject(error, "bad " + std::string(entry->name) + " '" +
                           std::string(value) + "' (" + why + ")");
}

bool RunSpec::set_arg(std::string_view arg, std::string* error) {
  if (arg == "--live-bandwidth") return set("trace", "live", error);
  if (arg == "--live-workload") return set("workload-trace", "live", error);
  const auto eq = arg.find('=');
  if (!arg.starts_with("--") || eq == std::string_view::npos) {
    return reject(error, "unknown argument: " + std::string(arg));
  }
  return set(arg.substr(2, eq - 2), arg.substr(eq + 1), error);
}

std::optional<RunSpec> RunSpec::parse(std::string_view text,
                                      std::string* error) {
  RunSpec spec;
  std::istringstream in{std::string(text)};
  for (std::string pair; in >> pair;) {
    if (!spec.set_arg("--" + pair, error)) return std::nullopt;
  }
  return spec;
}

std::string RunSpec::to_string() const {
  std::string out;
  for (const Key& key : kKeys) {
    if (!out.empty()) out += ' ';
    out += std::string(key.name) + "=" + key.print(*this);
  }
  return out;
}

std::optional<std::string_view> RunSpec::axis_name(std::string_view name) {
  const Key* key = find_key(name);
  if (key == nullptr) return std::nullopt;
  return key->axis.empty() ? key->name : key->axis;
}

std::string RunSpec::help(const RunSpec& defaults) {
  constexpr std::size_t kColumn = 35;
  std::string out;
  for (const Key& key : kKeys) {
    std::string line = "  --" + std::string(key.name) + "=" +
                       std::string(key.metavar);
    line += line.size() + 1 < kColumn ? std::string(kColumn - line.size(), ' ')
                                      : "\n" + std::string(kColumn, ' ');
    for (char c : key.help) {
      line += c;
      if (c == '\n') line += std::string(kColumn, ' ');
    }
    std::string suffix = "(default " + key.print(defaults);
    if (!key.axis.empty()) suffix += "; alias " + std::string(key.axis);
    suffix += ")";
    const std::size_t last = line.size() - (line.rfind('\n') + 1);
    line += last + 1 + suffix.size() <= 80 ? std::string(" ")
                                           : "\n" + std::string(kColumn, ' ');
    out += line + suffix + "\n";
  }
  return out;
}

bool parse_count(std::string_view flag, std::string_view value, int* out,
                 std::string* error) {
  int count = 0;
  if (!parse_number(value, &count) || count < 1) {
    return reject(error, std::string(flag) + " needs an integer >= 1, got '" +
                             std::string(value) + "'");
  }
  *out = count;
  return true;
}

bool RunSettings::parse_flag(std::string_view arg, std::string* error) {
  const auto eq = arg.find('=');
  const std::string_view flag = arg.substr(0, eq);
  const std::string_view value =
      eq == std::string_view::npos ? "" : arg.substr(eq + 1);
  if (arg == "--profile") {
    profile = true;
  } else if (flag == "--threads" && eq != std::string_view::npos) {
    parse_count(flag, value, &threads, error);
  } else if (flag == "--profile-every" && eq != std::string_view::npos) {
    if (parse_count(flag, value, &profile_every, error)) profile = true;
  } else {
    return false;
  }
  return true;
}

std::string RunSettings::help() {
  return R"(
  --threads=N                      intra-run worker threads sharing each run's
                                   tick; keep jobs x threads within the
                                   machine's cores (default 1)
  --profile                        phase profiler (DESIGN.md §13): periodic
                                   `profile` events in the trace for
                                   `wasp_trace profile`
  --profile-every=N                profile-event cadence in ticks; implies
                                   --profile (default 60))";
}

SiteRoles site_roles(const net::Topology& topology) {
  const auto& sites = topology.sites();
  const bool hub = std::none_of(sites.begin(), sites.end(), [](const auto& s) {
    return s.type == net::SiteType::kEdge;
  });
  SiteRoles roles;
  for (const auto& site : sites) {
    const bool edge = site.type == net::SiteType::kEdge;
    if (hub || !edge) {
      roles.dcs.push_back(site.id);
      if (!roles.sink.valid()) roles.sink = site.id;
    }
    if (hub ? site.id != roles.sink : edge) {
      (roles.east.size() <= roles.west.size() ? roles.east : roles.west)
          .push_back(site.id);
      roles.edges.push_back(site.id);
    }
  }
  return roles;
}

std::optional<workload::QuerySpec> make_query(QueryKind query,
                                              const SiteRoles& roles,
                                              std::string* error) {
  auto too_few = [&](const std::string& need, std::size_t have) {
    reject(error, "query " + std::string(to_string(query)) + " needs " + need +
                    ", the topology has " + std::to_string(have));
    return std::nullopt;
  };
  switch (query) {
    case QueryKind::kYsb:
      if (roles.edges.empty()) return too_few("1 source site", 0);
      return workload::make_ysb_campaign(roles.edges, roles.sink);
    case QueryKind::kEventsOfInterest:
      if (roles.edges.size() < 2) {
        return too_few("2 source sites", roles.edges.size());
      }
      return workload::make_events_of_interest(roles.edges, roles.sink);
    case QueryKind::kJoin:
      if (roles.dcs.size() < 4) {
        return too_few("4 data centers", roles.dcs.size());
      }
      return workload::make_four_source_join(roles.dcs, roles.sink, true);
    case QueryKind::kTopk:
      break;
  }
  if (roles.east.empty() || roles.west.empty()) {
    return too_few("2 source sites (an east and a west one)",
                   roles.edges.size());
  }
  return workload::make_topk_topics(roles.east, roles.west, roles.sink);
}

bool Run::tick_fits(double until) const {
  return system_->now() + system_->tick_sec() <= until + 1e-9;
}

void Run::step() {
  if (fail_.has_value()) {
    // Each edge of the window lands on the first tick boundary at which a
    // whole tick no longer fits before it.
    const auto [at, length] = *fail_;
    if (!failed_ && !tick_fits(at)) {
      system_->fail_all_sites();
      failed_ = true;
    }
    if (failed_ && !restored_ && !tick_fits(at + length)) {
      system_->restore_all_sites();
      restored_ = true;
    }
  }
  if (injector_ != nullptr) injector_->tick(system_->now());
  system_->step();
}

void Run::run_until(double t, const volatile std::sig_atomic_t* stop) {
  while ((stop == nullptr || *stop == 0) && tick_fits(t)) step();
}

SystemConfig system_config(const RunSpec& spec, const RunSettings& settings) {
  SystemConfig config;
  config.mode = spec.mode;
  config.slo_sec = spec.slo_sec;
  config.slo = spec.slo_watchdog;
  config.scheduler.alpha = spec.alpha;
  config.seed = spec.seed;
  config.standby_replicas = spec.standby_replicas;
  // Planet-scale runs re-plan a localized failure per failure domain
  // (DESIGN.md §14) instead of re-solving the whole placement.
  config.policy.region_decomposition =
      spec.topology.kind == net::TopologySpec::Kind::kEdgeHierarchy;
  config.threads = std::max(1, settings.threads);
  config.profile = settings.profile;
  config.profile_every = std::max(1, settings.profile_every);
  config.trace_sink = settings.trace_sink;
  return config;
}

std::unique_ptr<Run> build_run(const RunSpec& spec, const RunSettings& settings,
                               BuildError* error) {
  auto failed = [&](std::string message, bool file) {
    if (error != nullptr) *error = BuildError{std::move(message), file};
    return nullptr;
  };
  if (!spec.workload_steps.empty() && !spec.workload_trace.empty()) {
    return failed("workload-step scales the constant workload only; it "
                  "cannot apply to workload-trace=" + spec.workload_trace,
                  false);
  }
  std::unique_ptr<Run> run(new Run(spec.fail));

  Rng rng(spec.seed);
  net::Topology topology = spec.topology.build(rng);

  std::string why;
  std::optional<faults::FaultSchedule> schedule;
  if (!spec.fault_schedule.empty()) {
    if (!faults::FaultSchedule::parse_file(spec.fault_schedule,
                                           &schedule.emplace(), &why)) {
      return failed(why, true);
    }
    if (!schedule->validate(topology, &why)) return failed(why, false);
  }

  std::shared_ptr<const net::BandwidthModel> bandwidth =
      std::make_shared<net::ConstantBandwidth>();
  if (spec.bandwidth_trace == "live") {
    Rng bw_rng(spec.seed + 1);
    net::RandomWalkBandwidth::Config cfg;
    cfg.horizon_sec = spec.duration_sec;
    cfg.min_factor = 0.51;
    cfg.max_factor = 2.36;
    bandwidth = std::make_shared<net::RandomWalkBandwidth>(
        topology.num_sites(), cfg, bw_rng);
  } else if (!spec.bandwidth_trace.empty()) {
    std::ifstream in(spec.bandwidth_trace);
    if (!in) {
      return failed("cannot open trace file '" + spec.bandwidth_trace + "'",
                    true);
    }
    auto trace = std::make_shared<net::TraceBandwidth>(
        net::load_bandwidth_trace(in, &why));
    if (!why.empty()) return failed(why, true);
    bandwidth = std::move(trace);
  }
  if (!spec.bandwidth_steps.empty()) {
    bandwidth = std::make_shared<net::ComposedBandwidth>(
        bandwidth,
        std::make_shared<net::SteppedBandwidth>(spec.bandwidth_steps));
  }

  std::optional<workload::QuerySpec> query =
      make_query(spec.query, site_roles(topology), &why);
  if (!query.has_value()) return failed(why, false);

  if (spec.workload_trace == "live") {
    Rng wl_rng(spec.seed + 2);
    workload::RandomWalkWorkload::Config cfg;
    cfg.horizon_sec = spec.duration_sec;
    auto live = std::make_unique<workload::RandomWalkWorkload>(cfg, wl_rng);
    workload::set_base_rates(*live, *query, spec.rate_eps);
    run->pattern_ = std::move(live);
  } else if (!spec.workload_trace.empty()) {
    std::ifstream in(spec.workload_trace);
    if (!in) {
      return failed("cannot open workload trace '" + spec.workload_trace + "'",
                    true);
    }
    auto trace = std::make_unique<workload::TraceWorkload>(
        workload::load_workload_trace(in, &why));
    if (!why.empty()) return failed(why, true);
    for (OperatorId src : query->sources) {
      trace->bind_source(src, query->plan.op(src).name);
    }
    run->pattern_ = std::move(trace);
  } else {
    auto stepped = std::make_unique<workload::SteppedWorkload>();
    workload::set_base_rates(*stepped, *query, spec.rate_eps);
    for (const auto& [t, factor] : spec.workload_steps) {
      stepped->add_step(t, factor);
    }
    run->pattern_ = std::move(stepped);
  }

  run->network_ =
      std::make_unique<net::Network>(std::move(topology), bandwidth);
  run->system_ = std::make_unique<WaspSystem>(*run->network_, std::move(*query),
                                              *run->pattern_,
                                              system_config(spec, settings));
  if (schedule.has_value()) {
    // Link faults go to the Network directly; site, straggler and stall
    // faults through the system, whose control plane learns of them only via
    // heartbeats.
    run->injector_ = std::make_unique<faults::FaultInjector>(
        *run->network_, std::move(*schedule), Rng(spec.seed ^ 0xFA17));
    WaspSystem& system = *run->system_;
    faults::FaultInjector::Hooks hooks;
    hooks.crash_site = [&system](SiteId s) { system.fail_sites({s}); };
    hooks.restore_site = [&system](SiteId s) { system.restore_sites({s}); };
    hooks.set_straggler = [&system](SiteId s, double f) {
      system.mutable_engine().set_straggler(s, f);
    };
    hooks.stall_control = [&system](double sec) {
      system.stall_control_for(sec);
    };
    run->injector_->set_hooks(std::move(hooks));
    run->injector_->set_trace(&system.trace());
  }
  return run;
}

}  // namespace wasp::runtime
