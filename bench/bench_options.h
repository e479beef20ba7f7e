// Shared command-line options for the bench drivers.
//
// Every driver is a zero-argument reproduction of one paper figure. Each run
// it makes copies `base` (the default runtime::RunSpec, on the topology
// --topology=SPEC names), sets the run keys its figure varies, and goes
// through runtime::build_run with `settings` (--threads, --profile,
// --profile-every). The other flags say where the structured trace and the
// metrics snapshots go and how many worker threads fan the driver's
// independent runs out:
//
//   fig11_live_environment --jobs=4 --trace-out=fig11.jsonl --metrics=fig11.metrics.jsonl
//
// Parallel drivers follow the sweep determinism contract (DESIGN.md §9):
// each run is shared-nothing (its own build_run), runs write only to
// per-index result slots, and all printing / metrics writing happens after
// the fan-in, walking the runs in their declaration order -- so the stdout
// tables and the --metrics file are byte-identical for any --jobs.
//
// Tracing composes with --jobs via sink_for(label): at --jobs=1 every traced
// run shares the single --trace-out sink (the historical layout); at
// --jobs>1 each label gets a private file ("fig09.jsonl" ->
// "fig09.<label>.jsonl") so concurrent runs never interleave, mixing
// neither lines nor seq streams.
//
// A traced run builds with traced(label), an untraced one with `settings`;
// drivers collect `system.metrics().snapshot()` into their per-run slot,
// call `opts.write_metrics(label, snapshot)` per run after the fan-in, and
// call `opts.flush()` before exiting.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/run_spec.h"

namespace wasp::bench {

struct BenchOptions {
  runtime::RunSpec base;          // every run's spec before its figure's keys
  runtime::RunSettings settings;  // every run's execution; no trace sink
  std::shared_ptr<obs::FileSink> sink;  // null unless --trace-out was given
  std::string trace_out;
  std::string metrics_out;  // empty unless --metrics was given
  int jobs = 1;             // worker threads for the driver's independent runs

  // The per-label files sink_for() opened at --jobs>1, which flush() checks.
  // sink_for runs on the fan-out's worker threads; shared so the options
  // stay copyable.
  struct LabelSinks {
    std::mutex mu;
    std::vector<std::pair<std::string, std::shared_ptr<obs::FileSink>>> opened;
  };
  std::shared_ptr<LabelSinks> label_sinks = std::make_shared<LabelSinks>();

  // Parses argv; exits 2 on an unknown flag or a bad value, 1 on an
  // unopenable file.
  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string trace_prefix = "--trace-out=";
      const std::string metrics_prefix = "--metrics=";
      const std::string jobs_prefix = "--jobs=";
      const std::string topology_prefix = "--topology=";
      std::string error;
      if (arg == "--help" || arg == "-h") {
        std::cout << argv[0] << R"( [--jobs=N] [--threads=N] [--profile]
    [--profile-every=N] [--trace-out=FILE] [--metrics=FILE] [--topology=SPEC]
  --jobs=N                         fan independent runs across N worker
                                   threads (results identical for any N))"
                  << runtime::RunSettings::help() << R"(
  --trace-out=FILE                 write the observability trace (JSONL);
                                   with --jobs>1 each traced run gets FILE
                                   with its label inserted before the
                                   extension
  --metrics=FILE                   write per-run metrics snapshots (JSONL)
  --topology=SPEC                  run on a generated topology instead of the
                                   16-site paper testbed: paper | uniform:...
                                   | edge:... (DESIGN.md §14). Without edge
                                   sites, site 0 hosts the sink and the other
                                   sites feed the sources. The paper's claims
                                   are checked on the paper testbed only
)";
        std::exit(0);
      } else if (arg.rfind(trace_prefix, 0) == 0) {
        opts.trace_out = arg.substr(trace_prefix.size());
      } else if (arg.rfind(metrics_prefix, 0) == 0) {
        opts.metrics_out = arg.substr(metrics_prefix.size());
      } else if (arg.rfind(jobs_prefix, 0) == 0) {
        if (!runtime::parse_count("--jobs", arg.substr(jobs_prefix.size()),
                                  &opts.jobs, &error)) {
          std::cerr << error << "\n";
          std::exit(2);
        }
      } else if (opts.settings.parse_flag(arg, &error)) {
        if (!error.empty()) {
          std::cerr << error << "\n";
          std::exit(2);
        }
      } else if (arg.rfind(topology_prefix, 0) == 0) {
        if (!opts.base.set("topology", arg.substr(topology_prefix.size()),
                           &error)) {
          std::cerr << error << "\n";
          std::exit(2);
        }
      } else {
        std::cerr << "unknown argument: " << arg
                  << " (supported: --jobs=N --threads=N --profile "
                     "--profile-every=N --trace-out=FILE --metrics=FILE "
                     "--topology=SPEC)\n";
        std::exit(2);
      }
    }
    // The shared sink exists only in the single-file --jobs=1 layout; at
    // --jobs>1 every traced run opens its own per-label file in sink_for()
    // (which also reports unopenable paths), so opening FILE here would
    // just leave an empty stray file.
    if (!opts.trace_out.empty() && opts.jobs <= 1) {
      opts.sink = std::make_shared<obs::FileSink>(opts.trace_out);
      if (!opts.sink->ok()) {
        std::cerr << "cannot open trace output '" << opts.trace_out << "'\n";
        std::exit(1);
      }
    }
    if (!opts.metrics_out.empty()) {
      // Truncate up front so write_metrics can append one line per run.
      std::ofstream out(opts.metrics_out, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot open metrics output '" << opts.metrics_out
                  << "'\n";
        std::exit(1);
      }
    }
    return opts;
  }

  // The trace sink a run labelled `label` should use: null when tracing is
  // off; the shared --trace-out sink at --jobs=1 (historical single-file
  // layout); a private per-label file at --jobs>1 so concurrently running
  // emitters never share a sink. Call once per run, before the run starts.
  [[nodiscard]] std::shared_ptr<obs::FileSink> sink_for(
      std::string_view label) const {
    if (trace_out.empty()) return nullptr;
    if (jobs <= 1) return sink;
    std::string tag;
    for (char c : label) {
      tag.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '-');
    }
    const auto dot = trace_out.rfind('.');
    const std::string path =
        dot == std::string::npos
            ? trace_out + "." + tag
            : trace_out.substr(0, dot) + "." + tag + trace_out.substr(dot);
    auto private_sink = std::make_shared<obs::FileSink>(path);
    if (!private_sink->ok()) {
      std::cerr << "cannot open trace output '" << path << "'\n";
      std::exit(1);
    }
    const std::lock_guard<std::mutex> lock(label_sinks->mu);
    label_sinks->opened.emplace_back(path, private_sink);
    return private_sink;
  }

  // `settings` with sink_for(label) as the trace sink, for a traced run.
  [[nodiscard]] runtime::RunSettings traced(std::string_view label) const {
    runtime::RunSettings out = settings;
    out.trace_sink = sink_for(label);
    return out;
  }

  // Appends one flat JSON object {"run":"<label>", "<metric>":value, ...}
  // to the --metrics file; a no-op when the flag is absent. Parallel drivers
  // collect snapshots during the fan-out and call this after the fan-in, in
  // run-declaration order, so the file is identical for any --jobs. Exits 1
  // when the line could not be written.
  void write_metrics(
      std::string_view label,
      const std::vector<std::pair<std::string, double>>& snapshot) const {
    if (metrics_out.empty()) return;
    std::ofstream out(metrics_out, std::ios::app);
    out << "{\"run\":\"" << label << '"';
    for (const auto& [name, value] : snapshot) {
      out << ",\"" << name << "\":" << value;
    }
    out << "}\n";
    out.close();
    if (!out) {
      std::cerr << "cannot write metrics output '" << metrics_out << "'\n";
      std::exit(1);
    }
  }

  void write_metrics(std::string_view label,
                     const obs::MetricsRegistry& registry) const {
    write_metrics(label, registry.snapshot());
  }

  // Flushes the shared --trace-out sink, or at --jobs>1 every per-label
  // file; exits 1 when a trace could not be written.
  void flush() const {
    std::vector<std::pair<std::string, std::shared_ptr<obs::FileSink>>> sinks;
    if (sink != nullptr) sinks.emplace_back(trace_out, sink);
    {
      const std::lock_guard<std::mutex> lock(label_sinks->mu);
      sinks.insert(sinks.end(), label_sinks->opened.begin(),
                   label_sinks->opened.end());
    }
    for (const auto& [path, s] : sinks) {
      s->flush();
      if (!s->ok()) {
        std::cerr << "cannot write trace output '" << path << "'\n";
        std::exit(1);
      }
    }
  }
};

}  // namespace wasp::bench
