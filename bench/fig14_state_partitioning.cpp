// Figure 14: mitigating adaptation overhead through operator scaling and
// state partitioning (§8.7.2).
//
// Protocol: the Top-K window operator's state is pinned to
// {0, 32, 64, 128, 256, 512} MB and the stage is force-migrated at t=180.
// Default never partitions (whole state to one new site). Partitioned
// checks the estimated transition time against t_max = 30 s and, when it
// exceeds it, scales the operator out so the state splits across multiple
// sites and links. Reported: (a) the 95th-percentile delay per state size,
// (b) the overhead breakdown (transition + stabilization).
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "bench_options.h"
#include "common/units.h"
#include "state/migration.h"

namespace {

constexpr double kTmaxSec = 30.0;

struct Run {
  double p95_delay = 0.0;
  double transition_sec = 0.0;
  double stabilize_sec = 0.0;
  int partitions = 1;
};

Run run_case(double state_mb, bool partitioned,
             const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  Testbed bed;
  auto spec = make_query(bed, Query::kTopk);
  OperatorId window_op;
  for (const auto& op : spec.plan.operators()) {
    if (op.kind == query::OperatorKind::kWindowAggregate) window_op = op.id;
  }
  auto pattern = uniform_rates(spec, 10'000.0);

  runtime::SystemConfig config = opts.system_config();
  config.mode = runtime::AdaptationMode::kNoAdapt;
  config.migration = state::MigrationStrategy::kNetworkAware;
  config.trace_sink = opts.sink;  // forced migrations still emit spans
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.mutable_engine().set_state_override_mb(window_op, state_mb);
  system.run_until(180.0);

  // Candidate destination sites: data centers without window tasks.
  const auto current = system.engine().placement(window_op);
  std::vector<SiteId> candidates;
  for (SiteId dc : bed.roles.dcs) {
    if (current.at(dc) == 0 && dc != bed.roles.sink) candidates.push_back(dc);
  }

  // Default: the whole stage (and state) to one site. Partitioned: estimate
  // the single-destination transition; if above t_max, scale out so each
  // partition's share fits, up to the available candidates.
  int partitions = 1;
  if (partitioned && state_mb > 0.0 && !candidates.empty()) {
    // t_adapt estimate over the link the default (unpartitioned) migration
    // would actually use (§6.2: t_adapt = max |state| / B); partition when
    // it exceeds t_max so each share fits within the threshold.
    const double est_sec = transfer_seconds(
        state_mb,
        bed.network.capacity(current.sites().at(0), candidates[0], 180.0));
    if (est_sec > kTmaxSec) {
      partitions = std::clamp<int>(
          static_cast<int>(std::ceil(est_sec / kTmaxSec)), 1,
          static_cast<int>(candidates.size()));
    }
  }

  physical::StagePlacement target;
  target.per_site.assign(bed.topology.num_sites(), 0);
  for (int k = 0; k < partitions; ++k) {
    target.per_site[static_cast<std::size_t>(candidates[k].value())] = 1;
  }
  system.force_reassign(window_op, target);
  system.run_until(600.0);
  opts.write_metrics(TextTable::fmt(state_mb, 0) + "MB/" +
                         (partitioned ? "partitioned" : "default"),
                     system.metrics());

  Run out;
  out.p95_delay = system.recorder().delay_histogram().percentile(95);
  const auto& event = system.recorder().events().at(0);
  out.transition_sec = event.transition_sec();
  out.stabilize_sec = event.stabilize_sec();
  out.partitions = partitions;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const double kStateSizes[] = {0.0, 32.0, 64.0, 128.0, 256.0, 512.0};

  print_section(std::cout,
                "Figure 14: state partitioning (t_max = 30 s, migration at "
                "t=180)");
  TextTable table({"state(MB)", "default p95(s)", "part p95(s)",
                   "default trans(s)", "part trans(s)", "default stab(s)",
                   "part stab(s)", "partitions"});
  for (double mb : kStateSizes) {
    const Run def = run_case(mb, /*partitioned=*/false, opts);
    const Run part = run_case(mb, /*partitioned=*/true, opts);
    table.add_row({TextTable::fmt(mb, 0), TextTable::fmt(def.p95_delay, 1),
                   TextTable::fmt(part.p95_delay, 1),
                   TextTable::fmt(def.transition_sec, 1),
                   TextTable::fmt(part.transition_sec, 1),
                   TextTable::fmt(def.stabilize_sec, 1),
                   TextTable::fmt(part.stabilize_sec, 1),
                   std::to_string(part.partitions)});
  }
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "Default's overhead and 95th-percentile delay grow with the state "
      "size (a single link carries everything). Partitioned matches Default "
      "for small states (no partitioning triggered) and flattens the growth "
      "for large states (256-512 MB) by scaling out and splitting the state "
      "across multiple links -- the paper reports >120 s overhead savings "
      "at 512 MB");
  return 0;
}
