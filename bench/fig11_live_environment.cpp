// Figure 11: WASP in a live environment (Top-K query).
//
// §8.6 protocol: trace-driven bandwidth variation (factors 0.51-2.36, per
// the EC2 pair-wise trace), random per-source workload variation (factors
// 0.8-2.4), and a full failure at t=540 -- all compute revoked for 60
// seconds. Compared: No Adapt, Degrade, and full WASP (any of re-assign /
// scale / re-plan per its policy). Reported: (a) the variation factors,
// (b) average delay over time, (c) parallelism changes.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "exec/thread_pool.h"

namespace {

struct LiveRun {
  wasp::TimeSeries delay;
  wasp::TimeSeries parallelism;
  std::size_t adaptations = 0;
  std::vector<std::pair<std::string, double>> metrics;
};

LiveRun run_mode(wasp::runtime::AdaptationMode mode,
                 wasp::TimeSeries* variation_out,
                 std::shared_ptr<wasp::obs::TraceSink> trace_sink,
                 const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  // Bandwidth: the paper's live trace range, re-drawn every 5 minutes.
  Rng bw_rng(kSeed + 1);
  net::RandomWalkBandwidth::Config bw_cfg;
  bw_cfg.horizon_sec = 1800.0;
  bw_cfg.period_sec = 300.0;
  bw_cfg.min_factor = 0.51;
  bw_cfg.max_factor = 2.36;
  auto bw_model = std::make_shared<net::RandomWalkBandwidth>(16, bw_cfg,
                                                             bw_rng);
  Testbed bed(bw_model);

  auto spec = make_query(bed, Query::kTopk);

  // Workload: random per-site factors in [0.8, 2.4].
  Rng wl_rng(kSeed + 2);
  workload::RandomWalkWorkload::Config wl_cfg;
  wl_cfg.horizon_sec = 1800.0;
  workload::RandomWalkWorkload pattern(wl_cfg, wl_rng);
  workload::set_base_rates(pattern, spec, 10'000.0);

  if (variation_out != nullptr) {
    // Sample one link's bandwidth factor and one site's workload factor.
    TimeSeries bw("bandwidth_factor"), wl("workload_factor");
    for (double t = 0.0; t <= 1800.0; t += 60.0) {
      bw.add(t, bw_model->factor(SiteId(0), SiteId(1), t));
      wl.add(t, pattern.factor(bed.roles.edges[0], t));
    }
    variation_out[0] = bw;
    variation_out[1] = wl;
  }

  runtime::SystemConfig config = opts.system_config();
  config.mode = mode;
  config.slo_sec = 10.0;
  config.trace_sink = std::move(trace_sink);
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  // Failure at t=540: all compute revoked; restored 60 s later (§8.6).
  system.run_until(540.0);
  system.fail_all_sites();
  system.run_until(600.0);
  system.restore_all_sites();
  system.run_until(1800.0);

  LiveRun out;
  out.metrics = system.metrics().snapshot();
  out.delay = bucketed(system.recorder().delay(), 60.0,
                       to_string(mode));
  out.parallelism = bucketed(system.recorder().parallelism(), 60.0,
                             to_string(mode));
  out.adaptations = system.recorder().events().size();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  // --trace-out=FILE captures the full WASP run (the interesting one) as a
  // structured JSONL trace; the baselines run untraced. --jobs=N fans the
  // three independent mode runs across N workers; each fills only its own
  // slot and all output happens after the fan-in, so the result is
  // identical to the serial run.
  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const runtime::AdaptationMode kModes[] = {runtime::AdaptationMode::kNoAdapt,
                                            runtime::AdaptationMode::kDegrade,
                                            runtime::AdaptationMode::kWasp};
  TimeSeries variations[2];
  std::vector<LiveRun> runs(3);
  exec::parallel_for(opts.jobs, runs.size(), [&](std::size_t i) {
    const auto mode = kModes[i];
    runs[i] = run_mode(
        mode, mode == runtime::AdaptationMode::kNoAdapt ? variations : nullptr,
        mode == runtime::AdaptationMode::kWasp ? opts.sink_for("wasp")
                                               : nullptr,
        opts);
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    opts.write_metrics(to_string(kModes[i]), runs[i].metrics);
  }
  const LiveRun& noadapt = runs[0];
  const LiveRun& degrade = runs[1];
  const LiveRun& wasp_run = runs[2];
  opts.flush();

  print_section(std::cout,
                "Figure 11(a): bandwidth and workload variation factors");
  print_series(std::cout, "t(s)", {variations[0], variations[1]}, 2);

  print_section(std::cout, "Figure 11(b): average delay (s) over time");
  print_series(std::cout, "t(s)",
               {noadapt.delay, degrade.delay, wasp_run.delay}, 2);

  print_section(std::cout,
                "Figure 11(c): parallelism changes over time (x initial)");
  print_series(
      std::cout, "t(s)",
      {noadapt.parallelism, degrade.parallelism, wasp_run.parallelism}, 2);

  std::cout << "\nWASP took " << wasp_run.adaptations
            << " adaptation actions over the run\n";
  expected_shape(
      "WASP's delay stays near the unconstrained baseline for most of the "
      "run, with bumps while it scales out under workload/bandwidth swings "
      "and right after the t=540 failure, where it scales out to drain the "
      "accumulated events and then scales back down. NoAdapt's delay "
      "explodes after the failure (queued events never drain). Degrade "
      "keeps delay near the SLO by sacrificing events; its parallelism "
      "stays flat at 1.0x");
  return 0;
}
