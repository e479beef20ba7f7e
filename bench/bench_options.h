// Shared command-line options for the bench drivers.
//
// Every driver is a zero-argument reproduction of one paper figure; the
// runtime knobs they share are where (whether) to write the structured
// observability trace and the final metrics snapshot, plus how many worker
// threads to fan the driver's independent simulation runs across:
//
//   fig11_live_environment --jobs=4 --trace-out=fig11.jsonl --metrics=fig11.metrics.jsonl
//
// Parallel drivers follow the sweep determinism contract (DESIGN.md §9):
// each run is shared-nothing (its own Testbed/WaspSystem), runs write only
// to per-index result slots, and all printing / metrics writing happens
// after the fan-in, walking the runs in their declaration order -- so the
// stdout tables and the --metrics file are byte-identical for any --jobs.
//
// Tracing composes with --jobs via sink_for(label): at --jobs=1 every traced
// run shares the single --trace-out sink (the historical layout); at
// --jobs>1 each label gets a private file ("fig09.jsonl" ->
// "fig09.<label>.jsonl") so concurrent runs never interleave, mixing
// neither lines nor seq streams.
//
// Drivers pass the sink into runtime::SystemConfig::trace_sink (null when
// the flag is absent, which disables tracing entirely), collect
// `system.metrics().snapshot()` into their per-run slot, call
// `opts.write_metrics(label, snapshot)` per run after the fan-in, and call
// `opts.flush()` before exiting.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/number.h"
#include "net/topology_spec.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/wasp_system.h"

namespace wasp::bench {

// Process-wide topology for the bench Testbed: the paper's 16-site testbed
// unless BenchOptions::parse saw `--topology=SPEC` (DESIGN.md §14). A
// process-wide default -- rather than threading a spec through every
// driver's Testbed constructions -- keeps the figure drivers' bodies
// untouched while still letting each one re-run at planet scale.
inline net::TopologySpec& default_topology_spec() {
  static net::TopologySpec spec;  // Kind::kPaper
  return spec;
}

struct BenchOptions {
  std::shared_ptr<obs::FileSink> sink;  // null unless --trace-out was given
  std::string trace_out;
  std::string metrics_out;  // empty unless --metrics was given
  int jobs = 1;             // worker threads for the driver's independent runs
  int threads = 1;          // intra-run worker threads per simulation
  bool profile = false;     // always-on phase profiler (DESIGN.md §13)
  int profile_every = 60;   // profile-event cadence in ticks

  // A run config carrying the execution settings (threads, profiler);
  // drivers start every run's config from it so the flags cover all runs.
  [[nodiscard]] runtime::SystemConfig system_config() const {
    runtime::SystemConfig config;
    config.threads = threads;
    config.profile = profile;
    config.profile_every = profile_every;
    return config;
  }

  // `value` as a whole-string integer >= 1; exits 2 on anything else.
  static int count_or_exit(const std::string& flag, const std::string& value) {
    int count = 0;
    if (!parse_number(value, &count) || count < 1) {
      std::cerr << flag << " needs an integer >= 1, got '" << value << "'\n";
      std::exit(2);
    }
    return count;
  }

  // Parses argv; exits 2 on an unknown flag or a bad value, 1 on an
  // unopenable file.
  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string trace_prefix = "--trace-out=";
      const std::string metrics_prefix = "--metrics=";
      const std::string jobs_prefix = "--jobs=";
      const std::string threads_prefix = "--threads=";
      const std::string profile_every_prefix = "--profile-every=";
      const std::string topology_prefix = "--topology=";
      if (arg == "--help" || arg == "-h") {
        std::cout << argv[0] << R"( [--jobs=N] [--threads=N] [--profile]
    [--trace-out=FILE] [--metrics=FILE] [--topology=SPEC]
  --jobs=N          fan independent runs across N worker threads
                    (results identical for any N)
  --threads=N       intra-run worker threads sharing each run's tick
                    (results identical for any N; keep jobs*threads
                    within the machine's cores)
  --trace-out=FILE  write the observability trace (JSONL) to FILE;
                    with --jobs>1 each traced run gets FILE with its
                    label inserted before the extension
  --metrics=FILE    write per-run metrics snapshots (JSONL) to FILE
  --profile         always-on phase profiler: emit periodic `profile`
                    events into the trace (pure observer; results
                    stay bit-identical)
  --profile-every=N profile-event cadence in ticks (default 60;
                    implies --profile)
  --topology=SPEC   run on a generated topology instead of the 16-site
                    paper testbed: paper | uniform:sites=,slots=,bw=,lat=
                    | edge:sites=,regions=,core=,... (DESIGN.md §14).
                    Without edge sites, site 0 hosts the sink and the
                    other sites feed the sources
)";
        std::exit(0);
      } else if (arg.rfind(trace_prefix, 0) == 0) {
        opts.trace_out = arg.substr(trace_prefix.size());
      } else if (arg.rfind(metrics_prefix, 0) == 0) {
        opts.metrics_out = arg.substr(metrics_prefix.size());
      } else if (arg.rfind(jobs_prefix, 0) == 0) {
        opts.jobs = count_or_exit("--jobs", arg.substr(jobs_prefix.size()));
      } else if (arg.rfind(threads_prefix, 0) == 0) {
        opts.threads =
            count_or_exit("--threads", arg.substr(threads_prefix.size()));
      } else if (arg.rfind(profile_every_prefix, 0) == 0) {
        opts.profile_every = count_or_exit(
            "--profile-every", arg.substr(profile_every_prefix.size()));
        opts.profile = true;
      } else if (arg == "--profile") {
        opts.profile = true;
      } else if (arg.rfind(topology_prefix, 0) == 0) {
        std::string error;
        const auto spec =
            net::TopologySpec::parse(arg.substr(topology_prefix.size()), &error);
        if (!spec.has_value()) {
          std::cerr << "bad --topology spec: " << error << "\n";
          std::exit(2);
        }
        default_topology_spec() = *spec;
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
    return private_sink;
  }

  // Appends one flat JSON object {"run":"<label>", "<metric>":value, ...}
  // to the --metrics file; a no-op when the flag is absent. Parallel drivers
  // collect snapshots during the fan-out and call this after the fan-in, in
  // run-declaration order, so the file is identical for any --jobs.
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
  }

  void write_metrics(std::string_view label,
                     const obs::MetricsRegistry& registry) const {
    write_metrics(label, registry.snapshot());
  }

  void flush() const {
    if (sink != nullptr) sink->flush();
  }
};

}  // namespace wasp::bench
