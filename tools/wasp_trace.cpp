// wasp_trace: offline analysis of WASP JSONL traces (DESIGN.md §6).
//
//   wasp_trace validate FILE                 schema + span-balance checks
//   wasp_trace summary FILE                  per-type counts, span percentiles
//   wasp_trace spans [--id=N] [--op=N] FILE  span forest with critical path
//   wasp_trace diff A B [--ignore=k1,k2] [--include-wall]
//                                            field-level comparison
//   wasp_trace profile FILE [--diff=B] [--chrome [-o OUT]]
//                                            phase-profiler breakdown
//   wasp_trace export --chrome FILE [-o OUT] Chrome trace-event JSON
//
// All heavy lifting lives in src/obs/trace_analysis.{h,cc} so tests cover
// the same logic CI runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace_analysis.h"

namespace {

using wasp::obs::DiffOptions;
using wasp::obs::SpanIndex;
using wasp::obs::SpanNode;
using wasp::obs::TraceEvent;
using wasp::obs::TraceFile;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> [options] <trace.jsonl>\n"
               "\n"
               "commands:\n"
               "  validate FILE            check schema versions, seq ordering"
               " and span balance\n"
               "  summary FILE             per-type event counts and"
               " span-duration percentiles\n"
               "  spans [--id=N] [--op=N] FILE\n"
               "                           print the reconstructed span forest"
               " (critical path marked *)\n"
               "  diff A B [--ignore=k1,k2] [--include-wall]\n"
               "                           field-level trace comparison"
               " (wall_* ignored by default)\n"
               "  profile FILE [--diff=B] [--chrome [-o OUT]]\n"
               "                           phase-profiler breakdown from"
               " `profile` events (--profile runs):\n"
               "                           top phases by self time, per-tick"
               " means, thread-pool stats;\n"
               "                           --diff=B compares two runs,"
               " --chrome exports counter tracks\n"
               "  export --chrome FILE [-o OUT]\n"
               "                           Chrome trace-event JSON for"
               " Perfetto / chrome://tracing\n",
               argv0);
  return 2;
}

std::optional<TraceFile> load_or_complain(const std::string& path) {
  std::string error;
  TraceFile file = wasp::obs::load_trace_file(path, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return std::nullopt;
  }
  return file;
}

double percentile(std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size());
  auto index = static_cast<std::size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

int cmd_validate(const std::string& path) {
  auto file = load_or_complain(path);
  if (!file) return 2;
  const wasp::obs::ValidationReport report = wasp::obs::validate_trace(*file);
  for (const std::string& err : report.errors) {
    std::fprintf(stderr, "INVALID: %s\n", err.c_str());
  }
  std::printf(
      "%s: %zu events, %zu segment(s), %zu spans, %zu unclosed, "
      "%zu orphan span_end, %zu error(s)\n",
      path.c_str(), report.events, report.segments, report.spans,
      report.unclosed, report.orphan_ends, report.errors.size());
  return report.ok() ? 0 : 1;
}

int cmd_summary(const std::string& path) {
  auto file = load_or_complain(path);
  if (!file) return 2;

  std::map<std::string, std::size_t> by_type;
  for (const TraceEvent& event : file->events) ++by_type[event.type];
  std::printf("events: %zu\n", file->events.size());
  for (const auto& [type, count] : by_type) {
    std::printf("  %-18s %zu\n", type.c_str(), count);
  }

  const SpanIndex spans = SpanIndex::build(file->events);
  struct Phase {
    std::vector<double> durations;  // sim seconds
    std::vector<double> walls;      // microseconds
  };
  std::map<std::string, Phase> phases;
  for (const SpanNode& node : spans.nodes) {
    if (!node.closed) continue;
    Phase& phase = phases[node.name];
    phase.durations.push_back(node.duration());
    const double wall = file->events[node.end_event].num("wall_us", -1.0);
    if (wall >= 0.0) phase.walls.push_back(wall);
  }
  std::printf("spans: %zu in %zu segment(s) (%zu unclosed, %zu orphan "
              "span_end)\n",
              spans.nodes.size(), spans.segments, spans.unclosed,
              spans.orphan_ends);
  if (!phases.empty()) {
    std::printf("  %-16s %6s %10s %10s %10s %10s %7s %13s %12s\n", "phase",
                "count", "p50(s)", "p90(s)", "p99(s)", "max(s)", "wall n",
                "mean wall(us)", "p99 wall(us)");
    for (auto& [name, phase] : phases) {
      std::sort(phase.durations.begin(), phase.durations.end());
      std::sort(phase.walls.begin(), phase.walls.end());
      std::printf("  %-16s %6zu %10.3f %10.3f %10.3f %10.3f",
                  name.c_str(), phase.durations.size(),
                  percentile(phase.durations, 50.0),
                  percentile(phase.durations, 90.0),
                  percentile(phase.durations, 99.0),
                  phase.durations.back());
      if (!phase.walls.empty()) {
        double wall_sum = 0.0;
        for (double w : phase.walls) wall_sum += w;
        std::printf(" %7zu %13.1f %12.1f", phase.walls.size(),
                    wall_sum / static_cast<double>(phase.walls.size()),
                    percentile(phase.walls, 99.0));
      }
      std::printf("\n");
    }
  }
  return 0;
}

void print_span(const TraceFile& file, const SpanIndex& spans,
                std::size_t node_index, int depth,
                const std::vector<bool>& critical) {
  const SpanNode& node = spans.nodes[node_index];
  std::string fields;
  auto add_fields = [&fields](const TraceEvent& event) {
    for (const auto& [key, value] : event.strs) {
      if (key == "name") continue;
      fields += " " + key + "=" + value;
    }
    for (const auto& [key, value] : event.nums) {
      if (key == "span_id" || key == "parent_id") continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.6g", key.c_str(), value);
      fields += buf;
    }
  };
  add_fields(file.events[node.begin_event]);
  if (node.closed) add_fields(file.events[node.end_event]);
  std::printf("%c %*s%s [id=%llu] t=%.1f..%s%s\n",
              critical[node_index] ? '*' : ' ', depth * 2, "",
              node.name.c_str(), static_cast<unsigned long long>(node.id),
              node.begin_t,
              node.closed
                  ? (std::to_string(node.end_t) + " dur=" +
                     std::to_string(node.duration()) + "s")
                        .c_str()
                  : "(unclosed)",
              fields.c_str());
  for (std::size_t child : node.children) {
    print_span(file, spans, child, depth + 1, critical);
  }
}

bool span_tree_mentions_op(const TraceFile& file, const SpanIndex& spans,
                           std::size_t node_index, double op) {
  const SpanNode& node = spans.nodes[node_index];
  if (file.events[node.begin_event].num("op", -1.0) == op) return true;
  if (node.closed && file.events[node.end_event].num("op", -1.0) == op) {
    return true;
  }
  for (std::size_t child : node.children) {
    if (span_tree_mentions_op(file, spans, child, op)) return true;
  }
  return false;
}

int cmd_spans(const std::vector<std::string>& args) {
  std::optional<std::uint64_t> want_id;
  std::optional<double> want_op;
  std::string path;
  for (const std::string& arg : args) {
    if (arg.rfind("--id=", 0) == 0) {
      want_id = std::strtoull(arg.c_str() + 5, nullptr, 10);
    } else if (arg.rfind("--op=", 0) == 0) {
      want_op = std::strtod(arg.c_str() + 5, nullptr);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "spans: missing trace file\n");
    return 2;
  }
  auto file = load_or_complain(path);
  if (!file) return 2;
  const SpanIndex spans = SpanIndex::build(file->events);

  // Mark every node on the critical path of every selected root.
  std::vector<bool> critical(spans.nodes.size(), false);
  std::vector<std::size_t> selected;
  for (std::size_t root : spans.roots) {
    if (want_id && spans.nodes[root].id != *want_id) continue;
    if (want_op && !span_tree_mentions_op(*file, spans, root, *want_op)) {
      continue;
    }
    selected.push_back(root);
    for (std::size_t n : spans.critical_path(root)) critical[n] = true;
  }
  if (selected.empty()) {
    std::printf("no matching spans (of %zu total)\n", spans.nodes.size());
    return want_id || want_op ? 1 : 0;
  }
  for (std::size_t root : selected) {
    print_span(*file, spans, root, 0, critical);
  }
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  DiffOptions options;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg.rfind("--ignore=", 0) == 0) {
      std::string keys = arg.substr(9);
      std::size_t pos = 0;
      while (pos <= keys.size()) {
        const std::size_t comma = keys.find(',', pos);
        const std::string key =
            keys.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!key.empty()) options.ignore_keys.push_back(key);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--include-wall") {
      options.ignore_wall_keys = false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "diff: need exactly two trace files\n");
    return 2;
  }
  auto a = load_or_complain(paths[0]);
  auto b = load_or_complain(paths[1]);
  if (!a || !b) return 2;
  const wasp::obs::TraceDiff diff =
      wasp::obs::diff_traces(a->events, b->events, options);
  if (diff.identical()) {
    std::printf("identical: %zu events\n", a->events.size());
    return 0;
  }
  for (const std::string& report : diff.reports) {
    std::fprintf(stderr, "DIFF: %s\n", report.c_str());
  }
  std::printf("%zu differing event(s) between %s and %s\n",
              diff.differing_events, paths[0].c_str(), paths[1].c_str());
  return 1;
}

int cmd_profile(const std::vector<std::string>& args) {
  bool chrome = false;
  std::string path, diff_path, out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--chrome") {
      chrome = true;
    } else if (args[i].rfind("--diff=", 0) == 0) {
      diff_path = args[i].substr(7);
    } else if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", args[i].c_str());
      return 2;
    } else {
      path = args[i];
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "profile: missing trace file\n");
    return 2;
  }
  auto file = load_or_complain(path);
  if (!file) return 2;
  const wasp::obs::ProfileSummary profile = wasp::obs::aggregate_profile(*file);
  if (profile.empty()) {
    std::fprintf(stderr,
                 "%s: no profile events (run with --profile to record them)\n",
                 path.c_str());
    return 1;
  }

  if (chrome) {
    if (out_path.empty()) {
      wasp::obs::export_chrome_profile_counters(*file, std::cout);
      return 0;
    }
    std::ofstream out(out_path);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   out_path.c_str());
      return 2;
    }
    wasp::obs::export_chrome_profile_counters(*file, out);
    return 0;
  }

  if (!diff_path.empty()) {
    auto other = load_or_complain(diff_path);
    if (!other) return 2;
    const wasp::obs::ProfileSummary b = wasp::obs::aggregate_profile(*other);
    if (b.empty()) {
      std::fprintf(stderr, "%s: no profile events\n", diff_path.c_str());
      return 1;
    }
    // Per-tick self time side by side; delta% is B relative to A.
    std::printf("%-26s %14s %14s %9s\n", "phase", "A self us/tick",
                "B self us/tick", "delta");
    auto per_tick = [](const wasp::obs::ProfilePhase* p) {
      return p != nullptr && p->ticks > 0
                 ? p->self_us / static_cast<double>(p->ticks)
                 : 0.0;
    };
    std::vector<std::string> names;
    for (const auto& p : profile.phases) names.push_back(p.name);
    for (const auto& p : b.phases) {
      if (profile.find(p.name) == nullptr) names.push_back(p.name);
    }
    for (const std::string& name : names) {
      const double va = per_tick(profile.find(name));
      const double vb = per_tick(b.find(name));
      if (va <= 0.0 && vb <= 0.0) continue;
      std::printf("%-26s %14.2f %14.2f ", name.c_str(), va, vb);
      if (va > 0.0) {
        std::printf("%+8.1f%%\n", 100.0 * (vb - va) / va);
      } else {
        std::printf("%9s\n", "new");
      }
    }
    return 0;
  }

  const wasp::obs::ProfilePhase* step = profile.find("step");
  const double denom_us =
      step != nullptr && step->total_us > 0.0 ? step->total_us : 0.0;
  std::printf("%s: %zu profile event(s), %llu tick(s)\n", path.c_str(),
              profile.profile_events,
              static_cast<unsigned long long>(profile.ticks));
  if (denom_us > 0.0) {
    std::printf("coverage: %.1f%% of tick wall time attributed to phases\n",
                100.0 * (1.0 - step->self_us / step->total_us));
  }
  // Top phases by self time.
  std::vector<const wasp::obs::ProfilePhase*> by_self;
  for (const auto& p : profile.phases) by_self.push_back(&p);
  std::sort(by_self.begin(), by_self.end(),
            [](const auto* a, const auto* b) {
              return a->self_us != b->self_us ? a->self_us > b->self_us
                                              : a->name < b->name;
            });
  std::printf("%-26s %9s %12s %11s %11s %7s\n", "phase", "calls",
              "us/tick", "total ms", "self ms", "self %");
  for (const auto* p : by_self) {
    std::printf("%-26s %9llu %12.2f %11.2f %11.2f",
                p->name.c_str(), static_cast<unsigned long long>(p->calls),
                p->ticks > 0 ? p->total_us / static_cast<double>(p->ticks)
                             : 0.0,
                p->total_us / 1e3, p->self_us / 1e3);
    if (denom_us > 0.0) {
      std::printf(" %6.1f%%", 100.0 * p->self_us / denom_us);
    }
    std::printf("\n");
  }
  if (profile.pool.present) {
    const auto& pool = profile.pool;
    std::printf(
        "pool: threads=%.0f tasks=%.0f chunks=%.0f regions=%.0f "
        "busy_ms=%.2f busy_min_ms=%.2f busy_max_ms=%.2f queue_peak=%.0f\n",
        pool.threads, pool.tasks, pool.chunks, pool.regions,
        pool.busy_us / 1e3, pool.busy_min_us / 1e3, pool.busy_max_us / 1e3,
        pool.queue_peak);
    // Worker utilization: busy time across workers over (workers x measured
    // tick time). A low figure is pool overhead, the cost perfbench reports
    // as exec.t4_over_t1 < 1.
    if (denom_us > 0.0 && pool.threads > 1.0) {
      std::printf("pool: worker utilization %.1f%% of %d worker(s) over "
                  "measured ticks\n",
                  100.0 * pool.busy_us / ((pool.threads - 1.0) * denom_us),
                  static_cast<int>(pool.threads - 1.0));
    }
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& args) {
  bool chrome = false;
  std::string path, out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--chrome") {
      chrome = true;
    } else if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (!args[i].empty() && args[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", args[i].c_str());
      return 2;
    } else {
      path = args[i];
    }
  }
  if (!chrome) {
    std::fprintf(stderr, "export: only --chrome is supported\n");
    return 2;
  }
  if (path.empty()) {
    std::fprintf(stderr, "export: missing trace file\n");
    return 2;
  }
  auto file = load_or_complain(path);
  if (!file) return 2;
  if (out_path.empty()) {
    wasp::obs::export_chrome_trace(file->events, std::cout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 out_path.c_str());
    return 2;
  }
  wasp::obs::export_chrome_trace(file->events, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "validate" && args.size() == 1) return cmd_validate(args[0]);
  if (command == "summary" && args.size() == 1) return cmd_summary(args[0]);
  if (command == "spans") return cmd_spans(args);
  if (command == "diff") return cmd_diff(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "export") return cmd_export(args);
  return usage(argv[0]);
}
