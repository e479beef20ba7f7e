// Figure 13: network-aware state migration (§8.7.1).
//
// Protocol: the stateful Top-K query runs steadily; at t=180 the windowed
// aggregation (state pinned to 60 MB) is re-assigned to a different site.
// Compared migration strategies: No Migrate (state ignored -- lossy),
// WASP (network-aware min-max mapping), Random (bandwidth-agnostic), and
// Distant (adversarial: slowest links first). Reported: (a) execution delay
// over time around the adaptation, (b) the overhead breakdown into
// transition time (execution suspended, state in flight) and stabilization
// time (queued events drained).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_options.h"
#include "common/rng.h"
#include "common/units.h"
#include "state/migration.h"

namespace {

struct MigrationRun {
  wasp::TimeSeries delay;
  double transition_sec = 0.0;
  double stabilize_sec = 0.0;
  double migrated_mb = 0.0;
  std::string op;  // the migrated operator of the deployed plan
};

MigrationRun run_strategy(wasp::state::MigrationStrategy strategy,
                          const char* label,
                          const wasp::bench::BenchOptions& opts) {
  using namespace wasp;
  using namespace wasp::bench;

  runtime::RunSpec spec = opts.base;
  spec.mode = runtime::AdaptationMode::kNoAdapt;  // controlled experiment
  spec.duration_sec = 500.0;
  // Forced migrations still emit spans.
  auto run = build(spec, opts.traced(label));
  runtime::WaspSystem& system = run->system();
  const net::Network& network = run->network();
  const runtime::SiteRoles roles = runtime::site_roles(network.topology());
  const OperatorId window_op = window_aggregate(system.engine());
  system.mutable_engine().set_state_override_mb(window_op, 60.0);
  run->run_until(180.0);

  // Candidate destinations: data-center sites with a free slot whose
  // inbound links can carry the operator's stream (§8.7.1: "the system
  // ensured that the destination site had sufficient bandwidth ... the
  // execution would eventually stabilize"). Among the valid candidates the
  // strategy picks by the *state-transfer* link: WASP the fastest, Distant
  // the slowest, Random any.
  const auto& eng = system.engine();
  const auto current = eng.placement(window_op);
  const SiteId from = current.sites().at(0);
  struct Endpoint {
    SiteId site;
    double mbps;
  };
  std::vector<Endpoint> inbound;
  for (OperatorId u : eng.logical().upstream(window_op)) {
    const auto m = eng.op_metrics(u);
    const int p = m.placement.parallelism();
    for (SiteId s : m.placement.sites()) {
      inbound.push_back(
          {s, stream_mbps(m.emitted_eps * m.placement.at(s) / p,
                          eng.logical().op(u).output_event_bytes)});
    }
  }
  const auto used = eng.slots_in_use();
  std::vector<SiteId> valid;
  for (SiteId dc : roles.dcs) {
    if (current.at(dc) != 0 || dc == roles.sink) continue;
    if (used[static_cast<std::size_t>(dc.value())] >=
        network.topology().site(dc).slots) {
      continue;
    }
    bool ok = true;
    for (const auto& e : inbound) {
      if (e.site == dc) continue;
      if (0.8 * network.capacity(e.site, dc, 180.0) < e.mbps) {
        ok = false;
        break;
      }
    }
    if (ok) valid.push_back(dc);
  }
  // Fall back to any non-current DC if validation left nothing.
  if (valid.empty()) {
    for (SiteId dc : roles.dcs) {
      if (current.at(dc) == 0 && dc != roles.sink) valid.push_back(dc);
    }
  }
  Rng pick_rng(spec.seed + 3);
  SiteId destination = valid.front();
  double best_bw = network.capacity(from, destination, 180.0);
  for (SiteId c : valid) {
    const double bw = network.capacity(from, c, 180.0);
    const bool better =
        strategy == state::MigrationStrategy::kDistant ? bw < best_bw
                                                       : bw > best_bw;
    if (better) {
      best_bw = bw;
      destination = c;
    }
  }
  if (strategy == state::MigrationStrategy::kRandom) {
    destination = valid[static_cast<std::size_t>(
        pick_rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
  }

  physical::StagePlacement target;
  target.per_site.assign(network.topology().num_sites(), 0);
  target.per_site[static_cast<std::size_t>(destination.value())] =
      current.parallelism();
  system.force_reassign(window_op, target, strategy);
  run->run_until(spec.duration_sec);
  opts.write_metrics(label, system.metrics());

  MigrationRun out;
  out.delay = bucketed(system.recorder().delay(), 20.0, label);
  const auto& event = system.recorder().events().at(0);
  out.transition_sec = event.transition_sec();
  out.stabilize_sec = event.stabilize_sec();
  out.migrated_mb = event.migrated_mb;
  out.op = eng.logical().op(window_op).name;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wasp;
  using namespace wasp::bench;

  const BenchOptions opts = BenchOptions::parse(argc, argv);

  const MigrationRun none =
      run_strategy(state::MigrationStrategy::kNone, "NoMigrate", opts);
  const MigrationRun aware =
      run_strategy(state::MigrationStrategy::kNetworkAware, "WASP", opts);
  const MigrationRun random =
      run_strategy(state::MigrationStrategy::kRandom, "Random", opts);
  const MigrationRun distant =
      run_strategy(state::MigrationStrategy::kDistant, "Distant", opts);
  opts.flush();

  std::cout << "migrated operator: " << aware.op << "\n";
  print_section(std::cout,
                "Figure 13(a): execution delay (s) over time "
                "(adaptation at t=180, 60 MB state)");
  print_series(std::cout, "t(s)",
               {none.delay, aware.delay, random.delay, distant.delay}, 2);

  print_section(std::cout, "Figure 13(b): adaptation overhead (s)");
  {
    TextTable table(
        {"strategy", "transition(s)", "stabilize(s)", "total(s)",
         "migrated(MB)"});
    for (const auto& [label, run] :
         {std::pair<const char*, const MigrationRun*>{"NoMigrate", &none},
          {"WASP", &aware},
          {"Random", &random},
          {"Distant", &distant}}) {
      table.add_row({label, TextTable::fmt(run->transition_sec, 1),
                     TextTable::fmt(run->stabilize_sec, 1),
                     TextTable::fmt(run->transition_sec + run->stabilize_sec,
                                    1),
                     TextTable::fmt(run->migrated_mb, 1)});
    }
    table.print(std::cout);
  }

  expected_shape(
      "NoMigrate has near-zero transition (it only redirects streams, "
      "losing the state -> accuracy loss not visible in delay). Among the "
      "state-preserving strategies, WASP's network-aware mapping yields the "
      "lowest transition + stabilization overhead and the smallest delay "
      "bump; Random and Distant push 60 MB over slower links and suffer "
      "correspondingly longer suspensions (paper: 41-56% higher overhead)");
  const auto total = [](const MigrationRun& r) {
    return r.transition_sec + r.stabilize_sec;
  };
  const double below_random = 1.0 - total(aware) / total(random);
  const double below_distant = 1.0 - total(aware) / total(distant);
  const auto pct = [](double v) { return TextTable::fmt(100.0 * v, 0) + "%"; };
  return check_claims(
      opts,
      {{"WASP's overhead is >= 41% below Random's and Distant's (paper: "
        "41-56%)",
        below_random >= 0.41 && below_distant >= 0.41,
        "wasp " + TextTable::fmt(total(aware), 1) + " s: " +
            pct(below_random) + " below random, " + pct(below_distant) +
            " below distant"},
       {"NoMigrate's transition is the redeploy pause only (<= 2 s) and "
        "moves no state",
        none.transition_sec <= 2.0 && none.migrated_mb == 0.0,
        TextTable::fmt(none.transition_sec, 1) + " s, " +
            TextTable::fmt(none.migrated_mb, 1) + " MB"}});
}
