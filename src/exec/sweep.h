// Declarative simulation sweeps: grid expansion, shared-nothing execution,
// ordered merge.
//
// A sweep is a cartesian grid of independent WaspSystem runs -- the unit of
// work behind `tools/wasp_sweep` and the parallel bench drivers. The paper's
// evaluation (Fig. 8-14, Tables 2-3) is a set of such grids: seeds x
// adaptation policies x bandwidth traces x fault schedules, every cell a
// self-contained simulation. This header turns a grid description into an
// ordered list of cells -- each a runtime::RunSpec -- executes them across N
// workers, and merges the per-cell summaries into one deterministic JSONL
// stream.
//
// Determinism contract (DESIGN.md §9):
//   1. Cells are expanded in row-major axis order (last axis fastest) and
//      numbered 0..n-1; the cell index is part of the cell.
//   2. A cell's seed comes from its `seeds` axis value if the grid has one,
//      otherwise it is forked from the grid's base seed by *cell index*
//      (exec::fork_seed) -- never from scheduling order.
//   3. Every run is shared-nothing: runtime::build_run gives it its own Rng,
//      Topology, Network, workload pattern, WaspSystem (hence its own
//      Recorder, MetricsRegistry, TraceEmitter) and, when tracing, its own
//      private FileSink. Nothing in a run reads wall-clock time into its
//      results.
//   4. The merge walks results by cell index, so the merged JSONL (and the
//      summary table derived from it) is byte-identical for --jobs 1 and
//      --jobs N. Wall-clock timings are reported separately (bench JSON /
//      stderr), never in the merged stream.
//
// Merged output reuses the obs trace event encoding: line 0 is a
// "sweep_grid" header event, followed by one "sweep_cell" event per cell
// with `seq` = cell index. `wasp_trace validate/diff` therefore work on
// sweep output unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "runtime/run_spec.h"

namespace wasp::exec {

// One grid axis: an ordered list of string values for one run key
// (runtime::RunSpec, DESIGN.md §9). The axis is named by its sweep spelling:
// seeds, policy and fault for the keys seed, mode and fault-schedule (either
// spelling is accepted), the key itself otherwise. Values are any the key
// accepts; seeds also takes "a..b" integer ranges, and the trace and fault
// axes expand shell-style globs at parse time. A topology value uses ';'
// between its params, since ',' separates values.
struct GridAxis {
  std::string name;                 // sweep spelling (aliases resolved)
  std::vector<std::string> values;  // in declaration order
};

struct GridSpec {
  std::vector<GridAxis> axes;

  // Parses one "name=values" argument (values: comma list, "a..b" integer
  // range, or a glob for file axes) and appends the axis. Repeating a name
  // replaces the earlier axis. Returns false with *error set on bad input.
  bool parse_arg(const std::string& arg, std::string* error);

  // Parses a sweep file: one "name=values" per line, blank lines and
  // '#' comments ignored.
  bool parse_file(const std::string& path, std::string* error);

  [[nodiscard]] std::size_t num_cells() const;

  // "seeds=1..4 policy=wasp,static" -- canonical one-line form for headers.
  [[nodiscard]] std::string to_string() const;
};

// One fully-resolved cell: the base spec with the cell's axis values set.
struct SweepCell {
  std::size_t index = 0;
  bool seed_forked = false;  // true when seed came from fork_seed, not an axis
  // The (axis, value) pairs that produced this cell, in axis order -- echoed
  // into the result line so every cell is self-describing.
  std::vector<std::pair<std::string, std::string>> labels;
  runtime::RunSpec run;
};

// Expands the grid against the base spec into cells ordered row-major (last
// axis fastest). Returns nullopt with *error set when an axis value is one
// its key rejects.
std::optional<std::vector<SweepCell>> expand_grid(const GridSpec& grid,
                                                  const runtime::RunSpec& base,
                                                  std::string* error);

// Per-cell summary: the figures' headline metrics, computed from the run's
// private Recorder. Wall time is carried for operator feedback but excluded
// from the deterministic serialization.
struct RunResult {
  SweepCell cell;
  bool ok = false;
  std::string error;  // non-empty when !ok (e.g. unreadable trace file)
  double delay_mean_sec = 0.0;
  double delay_p50_sec = 0.0;
  double delay_p95_sec = 0.0;
  double delay_p99_sec = 0.0;
  double ratio_mean = 0.0;
  double processed_pct = 0.0;
  double dropped_events = 0.0;
  std::size_t adaptations = 0;
  std::size_t aborted_transitions = 0;
  std::size_t recovery_events = 0;
  // First "confirm_failure" to last "stabilized" in the recovery log; 0 when
  // the run had no detector-confirmed failure.
  double recovery_sec = 0.0;
  double wall_ms = 0.0;  // NOT serialized into the merged JSONL

  // The deterministic "sweep_cell" event (seq = cell index + 1): labels,
  // the canonical spec as "run", and the summary.
  [[nodiscard]] obs::TraceEvent to_trace_event() const;
};

struct SweepOptions {
  int jobs = 1;
  // Every cell's execution settings (threads, profiler); results are
  // bit-identical for any value. Keep jobs * threads within the machine's
  // cores.
  runtime::RunSettings settings;
  // When non-empty, each run writes its private observability trace to
  // "<trace_dir>/run_<index>.jsonl" (the directory must exist).
  std::string trace_dir;
  // Optional progress hook, invoked from worker threads under an internal
  // mutex as each cell finishes (completion order, i.e. nondeterministic --
  // for stderr progress only, never for results).
  std::function<void(const RunResult&)> on_cell_done;
};

// Builds, runs and summarizes one cell in a fresh, self-contained context
// (runtime::build_run); a build error becomes an ok=false result. The cell
// traces to `trace_path` (a private JSONL file; none when empty) in place of
// settings.trace_sink.
RunResult run_one(const SweepCell& cell, runtime::RunSettings settings = {},
                  const std::string& trace_path = {});

// Executes all cells across opts.jobs workers and returns results ordered by
// cell index regardless of completion order.
std::vector<RunResult> run_sweep(const std::vector<SweepCell>& cells,
                                 const SweepOptions& opts);

// Deterministic merged stream: the "sweep_grid" header event (the grid and
// the base spec as "defaults") followed by one "sweep_cell" line per result,
// in index order. Identical for any --jobs.
std::string merged_jsonl(const GridSpec& grid, const runtime::RunSpec& base,
                         const std::vector<RunResult>& results);

}  // namespace wasp::exec
