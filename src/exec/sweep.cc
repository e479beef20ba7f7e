#include "exec/sweep.h"

#include <fnmatch.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/number.h"
#include "exec/thread_pool.h"

namespace wasp::exec {
namespace {

bool has_glob_chars(const std::string& value) {
  return value.find_first_of("*?[") != std::string::npos;
}

// Shell-style glob over one directory level, sorted by path so the axis
// order (hence cell numbering) is stable across filesystems.
bool expand_glob(const std::string& pattern, std::vector<std::string>* out,
                 std::string* error) {
  namespace fs = std::filesystem;
  const auto slash = pattern.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : pattern.substr(0, slash);
  const std::string name_pattern =
      slash == std::string::npos ? pattern : pattern.substr(slash + 1);
  std::vector<std::string> matches;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (fnmatch(name_pattern.c_str(), name.c_str(), 0) == 0) {
      matches.push_back(slash == std::string::npos ? name : dir + "/" + name);
    }
  }
  if (ec) {
    *error = "glob '" + pattern + "': cannot read directory '" + dir + "'";
    return false;
  }
  if (matches.empty()) {
    *error = "glob '" + pattern + "' matched no files";
    return false;
  }
  std::sort(matches.begin(), matches.end());
  out->insert(out->end(), matches.begin(), matches.end());
  return true;
}

// Splits an axis value string into its ordered values: a comma list whose
// items may be "a..b" integer ranges (seeds only) or globs (file axes only).
bool expand_values(const std::string& axis, const std::string& text,
                   std::vector<std::string>* out, std::string* error) {
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto dots = item.find("..");
    if (axis == "seeds" && dots != std::string::npos) {
      std::uint64_t lo = 0, hi = 0;
      if (!parse_number(item.substr(0, dots), &lo) ||
          !parse_number(item.substr(dots + 2), &hi) || lo > hi) {
        *error = "bad seed range '" + item + "' (want a..b with a <= b)";
        return false;
      }
      for (std::uint64_t s = lo; s <= hi; ++s) out->push_back(std::to_string(s));
    } else if ((axis == "trace" || axis == "fault") && has_glob_chars(item)) {
      if (!expand_glob(item, out, error)) return false;
    } else {
      out->push_back(item);
    }
  }
  if (out->empty()) {
    *error = "axis '" + axis + "' has no values";
    return false;
  }
  return true;
}

}  // namespace

bool GridSpec::parse_arg(const std::string& arg, std::string* error) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    *error = "bad grid axis '" + arg + "' (want name=value[,value...])";
    return false;
  }
  const auto name = runtime::RunSpec::axis_name(arg.substr(0, eq));
  if (!name.has_value()) {
    *error = "unknown grid axis '" + arg.substr(0, eq) + "'";
    return false;
  }
  GridAxis axis;
  axis.name = std::string(*name);
  if (!expand_values(axis.name, arg.substr(eq + 1), &axis.values, error)) {
    return false;
  }
  for (GridAxis& existing : axes) {
    if (existing.name == axis.name) {
      existing.values = std::move(axis.values);
      return true;
    }
  }
  axes.push_back(std::move(axis));
  return true;
}

bool GridSpec::parse_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open sweep file '" + path + "'";
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto end = line.find_last_not_of(" \t\r");
    if (!parse_arg(line.substr(start, end - start + 1), error)) {
      *error = path + ":" + std::to_string(lineno) + ": " + *error;
      return false;
    }
  }
  return true;
}

std::size_t GridSpec::num_cells() const {
  std::size_t n = 1;
  for (const GridAxis& axis : axes) n *= axis.values.size();
  return n;
}

std::string GridSpec::to_string() const {
  std::string out;
  for (const GridAxis& axis : axes) {
    if (!out.empty()) out += ' ';
    out += axis.name + "=";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) out += ',';
      out += axis.values[i];
    }
  }
  return out;
}

std::optional<std::vector<SweepCell>> expand_grid(const GridSpec& grid,
                                                  const runtime::RunSpec& base,
                                                  std::string* error) {
  const std::size_t n = grid.num_cells();
  std::vector<SweepCell> cells;
  cells.reserve(n);
  for (std::size_t index = 0; index < n; ++index) {
    SweepCell cell;
    cell.index = index;
    cell.seed_forked = true;
    cell.run = base;
    // Row-major decode: the last axis varies fastest.
    std::size_t remainder = index;
    std::size_t stride = n;
    for (const GridAxis& axis : grid.axes) {
      stride /= axis.values.size();
      const std::size_t pick = remainder / stride;
      remainder %= stride;
      const std::string& value = axis.values[pick];
      if (!cell.run.set(axis.name, value, error)) {
        *error = "cell " + std::to_string(index) + ": " + *error;
        return std::nullopt;
      }
      if (axis.name == "seeds") cell.seed_forked = false;
      cell.labels.emplace_back(axis.name, value);
    }
    // Seed forking by cell index (never by scheduling order) when the grid
    // does not pin seeds explicitly.
    if (cell.seed_forked) cell.run.seed = fork_seed(base.seed, index);
    cells.push_back(std::move(cell));
  }
  return cells;
}

RunResult run_one(const SweepCell& cell, runtime::RunSettings settings,
                  const std::string& trace_path) {
  RunResult result;
  result.cell = cell;
  const auto wall_start = std::chrono::steady_clock::now();
  const runtime::RunSpec& spec = cell.run;

  std::shared_ptr<obs::FileSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_shared<obs::FileSink>(trace_path);
    if (!trace_sink->ok()) {
      result.error = "cannot open trace output '" + trace_path + "'";
      return result;
    }
  }
  settings.trace_sink = trace_sink;
  runtime::BuildError build_error;
  const auto run = runtime::build_run(spec, settings, &build_error);
  if (run == nullptr) {
    result.error = build_error.message;
    return result;
  }
  run->run_until(spec.duration_sec);
  if (trace_sink != nullptr) {
    trace_sink->flush();
    if (!trace_sink->ok()) {
      result.error = "cannot write trace output '" + trace_path + "'";
      return result;
    }
  }

  // ---- summarize ---------------------------------------------------------
  const auto& rec = run->system().recorder();
  result.ok = true;
  result.delay_mean_sec = rec.delay().mean_over(0.0, spec.duration_sec);
  result.delay_p50_sec = rec.delay_histogram().percentile(50);
  result.delay_p95_sec = rec.delay_histogram().percentile(95);
  result.delay_p99_sec = rec.delay_histogram().percentile(99);
  result.ratio_mean = rec.ratio().mean_over(0.0, spec.duration_sec);
  result.processed_pct = 100.0 * rec.processed_fraction();
  result.dropped_events = rec.total_dropped();
  result.adaptations = rec.events().size();
  for (const auto& event : rec.events()) {
    if (event.aborted()) ++result.aborted_transitions;
  }
  result.recovery_events = rec.recovery_events().size();
  double first_confirm = -1.0, last_stabilized = -1.0;
  for (const auto& event : rec.recovery_events()) {
    if (event.kind == "confirm_failure" && first_confirm < 0.0) {
      first_confirm = event.t;
    }
    if (event.kind == "stabilized") last_stabilized = event.t;
  }
  if (first_confirm >= 0.0 && last_stabilized >= first_confirm) {
    result.recovery_sec = last_stabilized - first_confirm;
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return result;
}

obs::TraceEvent RunResult::to_trace_event() const {
  obs::TraceEvent event;
  event.seq = cell.index + 1;  // seq 0 is the sweep_grid header
  event.t = 0.0;
  event.type = "sweep_cell";
  for (const auto& [axis, value] : cell.labels) {
    event.strs.emplace_back(axis, value);
  }
  event.strs.emplace_back("run", cell.run.to_string());
  event.strs.emplace_back("seed_forked", cell.seed_forked ? "true" : "false");
  if (!ok) event.strs.emplace_back("error", error);
  event.nums.emplace_back("cell", static_cast<double>(cell.index));
  event.nums.emplace_back("seed", static_cast<double>(cell.run.seed));
  event.nums.emplace_back("ok", ok ? 1.0 : 0.0);
  if (ok) {
    event.nums.emplace_back("delay_mean_sec", delay_mean_sec);
    event.nums.emplace_back("delay_p50_sec", delay_p50_sec);
    event.nums.emplace_back("delay_p95_sec", delay_p95_sec);
    event.nums.emplace_back("delay_p99_sec", delay_p99_sec);
    event.nums.emplace_back("ratio_mean", ratio_mean);
    event.nums.emplace_back("processed_pct", processed_pct);
    event.nums.emplace_back("dropped_events", dropped_events);
    event.nums.emplace_back("adaptations", static_cast<double>(adaptations));
    event.nums.emplace_back("aborted_transitions",
                            static_cast<double>(aborted_transitions));
    event.nums.emplace_back("recovery_events",
                            static_cast<double>(recovery_events));
    event.nums.emplace_back("recovery_sec", recovery_sec);
  }
  return event;
}

std::vector<RunResult> run_sweep(const std::vector<SweepCell>& cells,
                                 const SweepOptions& opts) {
  std::vector<RunResult> results(cells.size());
  std::mutex progress_mu;
  parallel_for(opts.jobs, cells.size(), [&](std::size_t i) {
    std::string trace_path;
    if (!opts.trace_dir.empty()) {
      trace_path =
          opts.trace_dir + "/run_" + std::to_string(cells[i].index) + ".jsonl";
    }
    results[i] = run_one(cells[i], opts.settings, trace_path);
    if (opts.on_cell_done) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.on_cell_done(results[i]);
    }
  });
  return results;
}

std::string merged_jsonl(const GridSpec& grid, const runtime::RunSpec& base,
                         const std::vector<RunResult>& results) {
  obs::TraceEvent header;
  header.seq = 0;
  header.t = 0.0;
  header.type = "sweep_grid";
  header.strs.emplace_back("grid", grid.to_string());
  header.strs.emplace_back("defaults", base.to_string());
  header.nums.emplace_back("cells", static_cast<double>(results.size()));

  std::string out = obs::to_json_line(header);
  out.push_back('\n');
  for (const RunResult& result : results) {
    out += obs::to_json_line(result.to_trace_event());
    out.push_back('\n');
  }
  return out;
}

}  // namespace wasp::exec
