// wasp_sweep: deterministic parallel sweep runner.
//
// Expands a declarative grid over seeds / policies / queries / traces /
// fault schedules into independent WaspSystem runs, executes them across N
// worker threads (shared-nothing: every run owns its whole world), and
// merges the per-cell summaries into one ordered JSONL stream plus a
// human-readable table. The merged output is byte-identical for --jobs 1
// and --jobs N (DESIGN.md §9); wall-clock numbers go to stderr only.
//
// Examples:
//   wasp_sweep --grid seeds=1..32 policy=wasp,static --jobs=8 --out=sweep.jsonl
//   wasp_sweep --grid fault=examples/*.fsched seeds=1..4 --duration=300
//   wasp_sweep --sweep-file=grids/fig09.sweep --jobs=4
//
// Run `wasp_sweep --help` for the full flag list.
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/table.h"
#include "exec/sweep.h"
#include "exec/thread_pool.h"

namespace {

using namespace wasp;

struct Options {
  exec::GridSpec grid;
  runtime::RunSpec base;  // every cell's spec before its axis values
  int jobs = exec::ThreadPool::hardware_workers();
  runtime::RunSettings settings;  // every cell's threads and profiler
  std::string out = "sweep.jsonl";
  std::string trace_dir;
  bool quiet = false;
};

void print_usage(const runtime::RunSpec& base) {
  std::cout <<
      R"(wasp_sweep -- deterministic parallel sweep over WaspSystem runs

  --grid AXIS [AXIS...]     grid axes; every following non-flag argument is
                            one axis key=value[,value...] over a run key
                            below (seeds, policy and fault spell seed, mode
                            and fault-schedule): seeds=1..32 takes ranges,
                            trace= and fault= take globs,
                            topology=paper,edge:sites=64;regions=4 uses ';'
                            inside a spec. Cells = cartesian product, last
                            axis fastest
  --sweep-file=FILE         read axes from FILE (one per line, # comments)
  --jobs=N                  worker threads (default: hardware cores; results
                            are byte-identical for any N); --threads is
                            clamped with a warning when jobs*threads exceeds
                            the machine's cores
  --out=FILE                merged JSONL (default sweep.jsonl; "-" = stdout,
                            and the summary table goes to stderr)
  --trace-dir=DIR           per-run observability traces DIR/run_<cell>.jsonl
  --quiet                   suppress the summary table and progress lines
  --help                    this text

Execution (the merged stream is byte-identical for any value):)"
            << runtime::RunSettings::help() << R"(

Run keys: --key=value sets the base spec of every cell; an axis overrides it.
Without a seeds axis each cell's seed is forked from --seed by cell index.
)" << runtime::RunSpec::help(base)
            << R"(
The merged stream is one "sweep_grid" header line (the grid and the base spec
as "defaults") plus one "sweep_cell" line per cell (its axis labels, the
canonical spec as "run", and the summary; obs trace-event encoding, seq = cell
index + 1); `wasp_trace validate|diff` accept it. Wall-clock timings never
enter the merged stream.
)";
}

bool parse_args(int argc, char** argv, Options* opts) {
  bool in_grid = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    std::string error;
    if (arg.rfind("--", 0) == 0) in_grid = false;
    if (arg == "--help" || arg == "-h") {
      print_usage(opts->base);
      std::exit(0);
    } else if (arg == "--grid") {
      in_grid = true;
    } else if (in_grid) {
      if (!opts->grid.parse_arg(arg, &error)) {
        std::cerr << error << "\n";
        return false;
      }
    } else if (auto v = value_of("--sweep-file")) {
      if (!opts->grid.parse_file(*v, &error)) {
        std::cerr << error << "\n";
        return false;
      }
    } else if (auto v = value_of("--jobs")) {
      if (!runtime::parse_count("--jobs", *v, &opts->jobs, &error)) {
        std::cerr << error << "\n";
        return false;
      }
    } else if (opts->settings.parse_flag(arg, &error)) {
      if (!error.empty()) {
        std::cerr << error << "\n";
        return false;
      }
    } else if (auto v = value_of("--out")) {
      opts->out = *v;
    } else if (auto v = value_of("--trace-dir")) {
      opts->trace_dir = *v;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else if (!opts->base.set_arg(arg, &error)) {
      std::cerr << error << " (see --help)\n";
      return false;
    }
  }
  return true;
}

std::string labels_of(const exec::SweepCell& cell) {
  std::string out;
  for (const auto& [axis, value] : cell.labels) {
    if (!out.empty()) out += ' ';
    out += axis + "=" + value;
  }
  if (out.empty()) return std::string("-");
  return out;
}

void print_summary(const std::vector<exec::RunResult>& results,
                   std::ostream& out) {
  TextTable table({"cell", "config", "seed", "p50(s)", "p95(s)", "p99(s)",
                   "ratio", "proc%", "adapt", "recov(s)"});
  for (const exec::RunResult& r : results) {
    if (!r.ok) {
      table.add_row({std::to_string(r.cell.index), labels_of(r.cell),
                     std::to_string(r.cell.run.seed), "ERROR: " + r.error});
      continue;
    }
    table.add_row({std::to_string(r.cell.index), labels_of(r.cell),
                   std::to_string(r.cell.run.seed),
                   TextTable::fmt(r.delay_p50_sec, 3),
                   TextTable::fmt(r.delay_p95_sec, 3),
                   TextTable::fmt(r.delay_p99_sec, 3),
                   TextTable::fmt(r.ratio_mean, 3),
                   TextTable::fmt(r.processed_pct, 2),
                   std::to_string(r.adaptations),
                   TextTable::fmt(r.recovery_sec, 1)});
  }
  table.print(out);
}

// Runs the whole grid once; wall time out-param.
std::vector<exec::RunResult> run_grid(const std::vector<exec::SweepCell>& cells,
                                      const Options& opts, double* wall_ms) {
  exec::SweepOptions sweep_opts;
  sweep_opts.jobs = opts.jobs;
  sweep_opts.settings = opts.settings;
  sweep_opts.trace_dir = opts.trace_dir;
  if (!opts.quiet) {
    std::size_t done = 0;
    const std::size_t total = cells.size();
    sweep_opts.on_cell_done = [&done, total](const exec::RunResult& r) {
      ++done;
      std::cerr << "sweep: " << done << "/" << total << " cell "
                << r.cell.index << " (" << labels_of(r.cell) << ") "
                << (r.ok ? "" : "FAILED ") << static_cast<long>(r.wall_ms)
                << " ms\n";
    };
  }
  const auto start = std::chrono::steady_clock::now();
  auto results = exec::run_sweep(cells, sweep_opts);
  *wall_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.base.seed = 42;  // forked per cell when the grid has no seeds axis
  if (!parse_args(argc, argv, &opts)) return 2;

  std::string error;
  const auto cells = exec::expand_grid(opts.grid, opts.base, &error);
  if (!cells.has_value()) {
    std::cerr << error << "\n";
    return 2;
  }
  if (cells->empty()) {
    std::cerr << "empty grid (see --help)\n";
    return 2;
  }

  // Oversubscription guard: jobs * threads above the core count just makes
  // every run slower (the intra-run regions spin-wait). Results do not
  // depend on either knob, so clamping threads is always safe.
  const int cores = exec::ThreadPool::hardware_workers();
  int& threads = opts.settings.threads;
  if (threads > 1 && opts.jobs * threads > cores) {
    const int clamped = std::max(1, cores / opts.jobs);
    std::cerr << "wasp_sweep: --jobs=" << opts.jobs << " x --threads="
              << threads << " oversubscribes " << cores
              << (cores == 1 ? " core" : " cores") << "; clamping --threads to "
              << clamped << " (results are identical either way)\n";
    threads = clamped;
  }

  double wall_ms = 0.0;
  const auto results = run_grid(*cells, opts, &wall_ms);
  const std::string merged =
      exec::merged_jsonl(opts.grid, opts.base, results);

  if (opts.out == "-") {
    std::cout << merged << std::flush;
    if (!std::cout) {
      std::cerr << "cannot write output '-'\n";
      return 1;
    }
  } else {
    std::ofstream out(opts.out);
    if (!out) {
      std::cerr << "cannot open output '" << opts.out << "'\n";
      return 1;
    }
    out << merged;
    out.close();
    if (!out) {
      std::cerr << "cannot write output '" << opts.out << "'\n";
      return 1;
    }
  }

  // With --out=- stdout carries the merged JSONL alone.
  if (!opts.quiet) {
    print_summary(results, opts.out == "-" ? std::cerr : std::cout);
  }
  std::cerr << "sweep: " << cells->size() << " cells, jobs=" << opts.jobs
            << ", wall " << static_cast<long>(wall_ms)
            << " ms (timings are not part of the merged output)\n";

  for (const exec::RunResult& r : results) {
    if (!r.ok) return 1;
  }
  return 0;
}
