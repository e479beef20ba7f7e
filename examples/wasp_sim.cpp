// wasp_sim: command-line scenario runner.
//
// Drives any of the benchmark queries under configurable dynamics and
// adaptation modes, printing either a human-readable summary or a CSV
// time series -- the general-purpose front door to the simulator. Every run
// key of runtime::RunSpec is a --key=value flag; the flags parsed here only
// say how the run executes and where its results go.
//
// Examples:
//   wasp_sim                                      # Top-K, full WASP, defaults
//   wasp_sim --query=ysb --mode=degrade --slo=5
//   wasp_sim --workload-step=300:2 --bandwidth-step=900:0.5 --duration=1500
//   wasp_sim --live-bandwidth --live-workload --fail=540:60 --csv
//   wasp_sim --trace=bandwidth.csv                # replay a measured trace
//
// Run `wasp_sim --help` for the full flag list.
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/log.h"
#include "common/table.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/run_spec.h"

namespace {

using namespace wasp;

// SIGINT/SIGTERM land here; the run loop stops at the next tick boundary and
// fall through the normal finish path (flush the FileSink, final profile
// event, metrics dump, report), so an interrupted run still produces a
// `wasp_trace validate`-clean trace.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_stop_signal(int /*signum*/) { g_interrupted = 1; }

// The command line: the run spec (every --key=value that is not one of
// wasp_sim's own flags), how the run executes, and where its results go.
struct Flags {
  runtime::RunSpec spec;
  runtime::RunSettings settings;
  std::string trace_out;
  std::string metrics_out;
  bool csv = false;
  bool verbose = false;
};

void print_usage() {
  std::cout << "wasp_sim -- wide-area adaptive stream processing scenario "
               "runner\n\nRun keys:\n"
            << runtime::RunSpec::help(runtime::RunSpec{}) <<
      R"(
Execution and output (results and traces are identical for any value):)"
            << runtime::RunSettings::help() << R"(
  --trace-out=FILE                 write the observability trace (JSONL)
  --metrics=FILE                   write the final metrics snapshot (JSON)
  --csv                            print t,delay_s,ratio,parallelism_x as CSV
  --verbose                        narrate adaptation decisions
  --help                           this text

With --profile, wasp_sim also prints the phase table at exit.
)";
}

bool parse_args(int argc, char** argv, Flags* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    std::string error;
    if (arg == "--help" || arg == "-h") {
      print_usage();
      std::exit(0);
    } else if (auto v = value_of("--trace-out")) {
      opts->trace_out = *v;
    } else if (auto v = value_of("--metrics")) {
      opts->metrics_out = *v;
    } else if (opts->settings.parse_flag(arg, &error)) {
      if (!error.empty()) {
        std::cerr << error << "\n";
        return false;
      }
    } else if (arg == "--csv") {
      opts->csv = true;
    } else if (arg == "--verbose") {
      opts->verbose = true;
    } else if (!opts->spec.set_arg(arg, &error)) {
      std::cerr << error << " (see --help)\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags opts;
  if (!parse_args(argc, argv, &opts)) return 2;
  if (opts.verbose) set_log_level(LogLevel::kInfo);
  const runtime::RunSpec& spec = opts.spec;

  std::shared_ptr<obs::FileSink> trace_sink;
  if (!opts.trace_out.empty()) {
    trace_sink = std::make_shared<obs::FileSink>(opts.trace_out);
    if (!trace_sink->ok()) {
      std::cerr << "cannot open trace output '" << opts.trace_out << "'\n";
      return 1;
    }
    opts.settings.trace_sink = trace_sink;
  }
  runtime::BuildError build_error;
  const auto run = runtime::build_run(spec, opts.settings, &build_error);
  if (run == nullptr) {
    std::cerr << build_error.message << "\n";
    return build_error.file ? 1 : 2;
  }
  runtime::WaspSystem& system = run->system();

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  // Tick at a time so SIGINT/SIGTERM stop at a tick boundary and still reach
  // the normal finish path below.
  run->run_until(spec.duration_sec, &g_interrupted);
  if (trace_sink != nullptr) {
    trace_sink->flush();
    if (!trace_sink->ok()) {
      std::cerr << "cannot write trace output '" << opts.trace_out << "'\n";
      return 1;
    }
  }

  // Profiler gauges enter the registry only here, after the run: the
  // registry contents stay bit-identical with profiling on or off for the
  // whole simulation (the pure-observer contract, DESIGN.md §13).
  if (opts.settings.profile) system.export_profiler_metrics();

  if (!opts.metrics_out.empty()) {
    std::ofstream metrics(opts.metrics_out);
    if (!metrics) {
      std::cerr << "cannot open metrics output '" << opts.metrics_out << "'\n";
      return 1;
    }
    std::string text = "{\n  ";
    obs::append_json_members(text, system.metrics().snapshot(), ",\n  ");
    text += "\n}\n";
    metrics << text;
    metrics.close();
    if (!metrics) {
      std::cerr << "cannot write metrics output '" << opts.metrics_out
                << "'\n";
      return 1;
    }
  }

  // --- report ---------------------------------------------------------------------
  const auto& rec = system.recorder();
  if (opts.csv) {
    std::cout << "t,delay_s,ratio,parallelism_x\n";
    for (std::size_t i = 0; i < rec.delay().points().size(); ++i) {
      const auto& [t, delay] = rec.delay().points()[i];
      std::cout << t << ',' << delay << ',' << rec.ratio().points()[i].second
                << ',' << rec.parallelism().points()[i].second << '\n';
    }
    return 0;
  }

  std::cout << "query=" << runtime::to_string(spec.query)
            << " mode=" << runtime::to_string(spec.mode)
            << " duration=" << spec.duration_sec << "s rate=" << spec.rate_eps
            << " ev/s/site seed=" << spec.seed << "\n\n";
  TextTable table({"metric", "value"});
  table.add_row({"avg delay (s)",
                 TextTable::fmt(rec.delay().mean_over(0.0, spec.duration_sec),
                                3)});
  table.add_row(
      {"p95 delay (s)", TextTable::fmt(rec.delay_histogram().percentile(95), 3)});
  table.add_row(
      {"p99 delay (s)", TextTable::fmt(rec.delay_histogram().percentile(99), 3)});
  table.add_row({"processed (%)",
                 TextTable::fmt(100.0 * rec.processed_fraction(), 2)});
  table.add_row({"dropped events", TextTable::fmt(rec.total_dropped(), 0)});
  table.add_row({"adaptations", std::to_string(rec.events().size())});
  table.print(std::cout);
  if (const auto* watchdog = system.slo_watchdog()) {
    // One parseable line (mirrors the chaos: line) for scripts and CI.
    std::cout << "\nslo: spec=" << watchdog->spec().to_string()
              << " violations=" << watchdog->violations()
              << " violation_seconds=" << watchdog->violation_seconds()
              << " in_violation=" << (watchdog->in_violation() ? 1 : 0)
              << "\n";
  }
  if (g_interrupted != 0) {
    std::cout << "\n[interrupted at t=" << system.now()
              << "s; trace, metrics and report cover the completed ticks]\n";
  }
  if (opts.settings.profile) {
    const auto& accums = system.profiler().accums();
    const auto& step =
        accums[static_cast<std::size_t>(obs::Phase::kStep)];
    std::cout << "\nprofile (" << step.calls << " ticks, "
              << TextTable::fmt(static_cast<double>(step.total_ns) / 1e6, 1)
              << " ms measured):\n";
    TextTable profile_table({"phase", "calls", "total ms", "self ms", "self %"});
    for (std::size_t p = 0; p < accums.size(); ++p) {
      const auto& a = accums[p];
      if (a.calls == 0) continue;
      const double self_pct =
          step.total_ns > 0
              ? 100.0 * static_cast<double>(a.self_ns) /
                    static_cast<double>(step.total_ns)
              : 0.0;
      profile_table.add_row(
          {obs::phase_name(static_cast<obs::Phase>(p)),
           std::to_string(a.calls),
           TextTable::fmt(static_cast<double>(a.total_ns) / 1e6, 2),
           TextTable::fmt(static_cast<double>(a.self_ns) / 1e6, 2),
           TextTable::fmt(self_pct, 1)});
    }
    profile_table.print(std::cout);
  }
  if (!rec.events().empty()) {
    std::cout << "\nadaptations:\n";
    for (const auto& e : rec.events()) {
      std::cout << "  t=" << e.decided_at << "s " << e.kind << " ("
                << e.reason << "), ";
      if (e.aborted()) {
        std::cout << "ABORTED at t=" << e.aborted_at << " (" << e.abort_reason
                  << "), attempt " << e.attempt << "\n";
      } else {
        std::cout << "transition " << e.transition_sec() << "s, migrated "
                  << e.migrated_mb << " MB\n";
      }
    }
  }
  if (const auto* injector = run->injector()) {
    std::size_t aborted = 0, abandoned = 0, promotions = 0;
    for (const auto& e : rec.events()) {
      if (e.aborted()) ++aborted;
    }
    for (const auto& e : rec.recovery_events()) {
      if (e.kind == "abandon") ++abandoned;
      if (e.kind == "failover") ++promotions;
    }
    // One parseable line the chaos-smoke CI job asserts on.
    std::cout << "\nchaos: recovery_events=" << rec.recovery_events().size()
              << " orphaned_bulk_flows=" << run->network().num_bulk_flows()
              << " aborted_transitions=" << aborted
              << " abandoned=" << abandoned
              << " faults_injected=" << injector->applied()
              << " standby_promotions=" << promotions << "\n";
    if (!rec.recovery_events().empty()) {
      std::cout << "recovery log:\n";
      for (const auto& e : rec.recovery_events()) {
        std::cout << "  t=" << e.t << "s " << e.kind;
        if (e.site >= 0) std::cout << " site=" << e.site;
        if (e.op >= 0) std::cout << " op=" << e.op;
        if (e.attempt > 0) std::cout << " attempt=" << e.attempt;
        if (e.backoff_sec > 0.0) std::cout << " backoff=" << e.backoff_sec;
        if (!e.detail.empty()) std::cout << " (" << e.detail << ")";
        std::cout << "\n";
      }
    }
  }
  return 0;
}
