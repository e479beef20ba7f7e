// Table 3: location-based query details.
//
// Prints the three benchmark queries as deployed in this reproduction:
// their operator mix, state footprint at the baseline workload (measured
// from a short run), and the dataset stand-in (synthetic YSB events /
// synthetic geo-tagged tweet trace).
#include <iostream>
#include <memory>
#include <set>

#include "bench_common.h"
#include "bench_options.h"

namespace {

struct QueryInfo {
  std::string operators;
  double state_mb = 0.0;
  int num_operators = 0;
};

QueryInfo inspect(wasp::bench::Query q,
                  const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  Testbed bed;
  auto spec = make_query(bed, q);
  auto pattern = uniform_rates(spec, 10'000.0);
  runtime::SystemConfig config = opts.system_config();
  config.mode = runtime::AdaptationMode::kNoAdapt;
  config.trace_sink = opts.sink;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  // Sample late in an open window (both 10 s and 30 s windows are ~90%
  // full at t=118) so the reported state reflects the working footprint,
  // not the instant after a tumbling reset.
  system.run_until(118.0);
  opts.write_metrics(query_name(q), system.metrics());

  QueryInfo info;
  std::set<std::string> kinds;
  double max_state = 0.0;
  for (const auto& op : system.engine().logical().operators()) {
    ++info.num_operators;
    if (!op.is_source() && !op.is_sink()) {
      kinds.insert(query::to_string(op.kind));
    }
    max_state = std::max(max_state,
                         system.engine().total_state_mb(op.id));
  }
  // Peak total state across the run's final window.
  double total_state = 0.0;
  for (const auto& op : system.engine().logical().operators()) {
    total_state += system.engine().total_state_mb(op.id);
  }
  info.state_mb = total_state;
  for (const auto& k : kinds) {
    if (!info.operators.empty()) info.operators += ", ";
    info.operators += k;
  }
  return info;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  print_section(std::cout, "Table 3: location-based query details");
  TextTable table({"application", "state (MB)", "operators", "dataset"});
  const QueryInfo ysb = inspect(Query::kYsb, opts);
  const QueryInfo topk = inspect(Query::kTopk, opts);
  const QueryInfo interest = inspect(Query::kEventsOfInterest, opts);
  table.add_row({"Advertising Campaign", TextTable::fmt(ysb.state_mb, 1),
                 ysb.operators, "YSB (synthetic)"});
  table.add_row({"Top-K Topics", TextTable::fmt(topk.state_mb, 1),
                 topk.operators, "Twitter trace (synthetic, geo-tagged)"});
  table.add_row({"Events of Interest", TextTable::fmt(interest.state_mb, 1),
                 interest.operators, "Twitter trace (synthetic, geo-tagged)"});
  table.print(std::cout);
  opts.flush();

  expected_shape(
      "Advertising Campaign holds < 10 MB of windowed state (filter, map, "
      "window); Top-K holds on the order of 100 MB (filter, map, union, "
      "window, top-k reduce); Events of Interest is stateless (filter, "
      "union, project)");
  return 0;
}
