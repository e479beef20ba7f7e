#include "driver/inputs.h"

#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "driver/spans.h"
#include "faults/fault_schedule.h"
#include "net/bandwidth_model.h"
#include "net/topology.h"
#include "net/topology_spec.h"
#include "obs/trace.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using namespace wasp;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

WorkloadDef paper16(std::string name, bool traced, int ticks) {
  WorkloadDef w;
  w.name = std::move(name);
  w.topology = "paper";
  w.traced = traced;
  w.chaos = true;
  w.standby_replicas = 1;
  w.ticks = ticks;
  // Ten simulated minutes per instance. The walks re-draw once, at 300 s,
  // and then hold; one fault cycle runs from 60 s to at most 420 s. A full
  // episode stops at 590 s, between two adaptation decisions (every 40 s),
  // so it ends settled rather than mid-transition.
  w.input_horizon = 600;
  return w;
}

std::vector<WorkloadDef> make_workloads() {
  WorkloadDef chaos = paper16("paper16_chaos", false, 590);
  chaos.instances = 256;
  // Trace volume differs by scenario; one probe would follow the seed.
  chaos.probe_ticks = 100;
  chaos.probe_instances = 32;
  WorkloadDef steady;
  steady.name = "uniform128_steady";
  steady.topology = "uniform:sites=128";
  steady.ticks = 100;
  steady.input_horizon = 100;
  // 1000 ticks a round: the fewest whose p99 has 10 ticks beyond it.
  steady.instances = 10;
  steady.rate_spread = 0.05;
  // A traced tick at 128 sites writes about 1.2 MB.
  steady.probe_ticks = 3;
  steady.probe_instances = 1;
  // A prefix of paper16_chaos: same instance seeds, same input horizon.
  WorkloadDef traced = paper16("paper16_traced", true, 100);
  traced.instances = 32;
  traced.reference = chaos.name;
  return {chaos, steady, traced};
}

void timed(std::int64_t* into, const char* span, SpanRecorder* spans,
           std::uint32_t parent, std::int64_t start) {
  const std::int64_t end = now_ns();
  *into = end - start;
  if (spans != nullptr) spans->record(spans->new_id(), span, parent, start, end);
}

}  // namespace

std::string WorkloadDef::spec() const {
  std::ostringstream out;
  out << name << ": topology=" << topology << " query=topk mode=wasp"
      << " threads=1 trace=" << (traced ? "full" : "off")
      << " standby=" << standby_replicas << " rate=" << kSourceRateEps
      << "ev/s/site";
  if (chaos) {
    out << " bandwidth=randomwalk(0.51-2.36) workload=randomwalk(0.8-2.4)"
        << " faults=cycle(crash,partition,straggler,stall)";
  } else {
    out << " bandwidth=constant workload=steady(+-" << rate_spread * 100.0
        << "%/site) faults=none";
  }
  out << " ticks=" << ticks << " input_horizon=" << input_horizon
      << " instances=" << instances;
  return out.str();
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> all = make_workloads();
  return all;
}

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t instance_seed(std::uint64_t run_seed, int instance) {
  return splitmix64(splitmix64(run_seed) + static_cast<std::uint64_t>(instance));
}

std::string generate_fault_schedule(std::uint64_t seed, double horizon_sec,
                                    int coordinator,
                                    const std::vector<int>& dc_sites,
                                    const std::vector<int>& other_sites) {
  Rng rng(seed ^ 0xC4A05F417ULL);
  auto pick = [&rng](const std::vector<int>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  auto secs = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<double>(rng.uniform_int(lo, hi));
  };
  std::ostringstream out;
  int index = 0;
  for (double start = kCycleFirstSec;
       start + kCycleSpanSec <= horizon_sec - kCycleCalmTailSec;
       start += kCyclePeriodSec, ++index) {
    out << "# cycle " << index << "\n";
    const int crashed = pick(dc_sites);
    const double crash_at = start + secs(0, 29);
    out << crash_at << " crash site=" << crashed << "\n"
        << crash_at + secs(60, 120) << " restore site=" << crashed << "\n";
    const int slow = pick(other_sites);
    const double slow_at = start + 160.0 + secs(0, 19);
    out << slow_at << " straggler site=" << slow
        << " factor=" << secs(20, 50) / 100.0 << "\n"
        << slow_at + secs(40, 80) << " straggler site=" << slow
        << " factor=1\n";
    // Longer than the suspect timeout (6 s): the coordinator wakes to stale
    // heartbeats, suspects, and re-trusts.
    out << start + 270.0 + secs(0, 19) << " stall duration=" << secs(10, 25)
        << "\n";
    // Shorter than the suspect timeout: the link (and any stream on it)
    // stalls and heals without a false suspicion.
    out << start + 320.0 + secs(0, 19) << " partition from=" << pick(dc_sites)
        << " to=" << coordinator << " duration=" << secs(3, 5) << "\n";
  }
  return out.str();
}

Deployment deploy(const WorkloadDef& w, std::uint64_t run_seed, int instance,
                  const EpisodeOptions& options, SetupTimes* times,
                  SpanRecorder* spans, std::uint32_t parent_span) {
  const std::uint64_t seed = instance_seed(run_seed, instance);
  Deployment d;

  std::int64_t start = now_ns();
  std::string error;
  const auto topo_spec = net::TopologySpec::parse(w.topology, &error);
  if (!topo_spec.has_value()) throw std::runtime_error(error);
  Rng topo_rng(seed);
  net::Topology topo = topo_spec->build(topo_rng);
  timed(&times->topology_ns, "setup.topology", spans, parent_span, start);

  // Site roles follow wasp_sim: on the paper testbed edge sites feed the
  // sources and the first data center hosts the sink; on a uniform clique
  // site 0 is the sink hub and every other site feeds a source.
  start = now_ns();
  std::vector<SiteId> east, west;
  std::vector<int> dcs, others;
  SiteId sink;
  const bool uniform = topo_spec->kind == net::TopologySpec::Kind::kUniform;
  for (const auto& site : topo.sites()) {
    if (uniform) {
      if (!sink.valid()) {
        sink = site.id;
        continue;
      }
      (site.id.value() % 2 != 0 ? east : west).push_back(site.id);
    } else if (site.type == net::SiteType::kEdge) {
      (east.size() <= west.size() ? east : west).push_back(site.id);
    } else if (!sink.valid()) {
      sink = site.id;
    } else {
      dcs.push_back(static_cast<int>(site.id.value()));
    }
    if (site.id != sink) others.push_back(static_cast<int>(site.id.value()));
  }
  workload::QuerySpec query = workload::make_topk_topics(east, west, sink);

  std::shared_ptr<const net::BandwidthModel> bandwidth =
      std::make_shared<net::ConstantBandwidth>();
  std::string fault_text;
  if (w.chaos) {
    Rng bw_rng(seed + 1);
    net::RandomWalkBandwidth::Config bw;
    bw.horizon_sec = w.input_horizon / 2.0;
    bw.min_factor = 0.51;
    bw.max_factor = 2.36;
    bandwidth =
        std::make_shared<net::RandomWalkBandwidth>(topo.num_sites(), bw, bw_rng);
    Rng wl_rng(seed + 2);
    workload::RandomWalkWorkload::Config wl;
    wl.horizon_sec = w.input_horizon / 2.0;
    auto live = std::make_unique<workload::RandomWalkWorkload>(wl, wl_rng);
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        live->set_base_rate(src, s, kSourceRateEps);
      }
    }
    d.pattern = std::move(live);
    // The sink hub is the first data center, which is also the heartbeat
    // coordinator (most slots, lowest id).
    fault_text = generate_fault_schedule(
        seed, w.input_horizon, static_cast<int>(sink.value()), dcs, others);
  } else {
    Rng rate_rng(seed + 2);
    auto steady = std::make_unique<workload::SteppedWorkload>();
    for (OperatorId src : query.sources) {
      for (SiteId s : query.plan.op(src).pinned_sites) {
        steady->set_base_rate(
            src, s,
            kSourceRateEps *
                rate_rng.uniform(1.0 - w.rate_spread, 1.0 + w.rate_spread));
      }
    }
    d.pattern = std::move(steady);
  }
  faults::FaultSchedule schedule;
  if (!fault_text.empty()) {
    std::istringstream in(fault_text);
    if (!faults::FaultSchedule::parse(in, &schedule, &error)) {
      throw std::runtime_error(error);
    }
  }
  timed(&times->inputs_ns, "setup.inputs", spans, parent_span, start);

  start = now_ns();
  d.network = std::make_unique<net::Network>(std::move(topo), bandwidth);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.seed = seed;
  config.threads = options.threads;
  config.standby_replicas = w.standby_replicas;
  config.profile = options.profile;
  if (!options.trace_path.empty()) {
    auto sink_file = std::make_shared<obs::FileSink>(options.trace_path);
    if (!sink_file->ok()) {
      throw std::runtime_error("cannot open trace file " + options.trace_path);
    }
    config.trace_sink = std::move(sink_file);
  }
  d.system = std::make_unique<runtime::WaspSystem>(*d.network, std::move(query),
                                                   *d.pattern, config);
  if (!fault_text.empty() && d.system->detector().coordinator() != sink) {
    throw std::runtime_error("fault cycle assumes the sink hub coordinates");
  }
  if (!schedule.empty()) {
    d.injector = std::make_unique<faults::FaultInjector>(
        *d.network, std::move(schedule), Rng(seed ^ 0xFA17));
    runtime::WaspSystem& system = *d.system;
    faults::FaultInjector::Hooks hooks;
    hooks.crash_site = [&system](SiteId s) { system.fail_sites({s}); };
    hooks.restore_site = [&system](SiteId s) { system.restore_sites({s}); };
    hooks.set_straggler = [&system](SiteId s, double f) {
      system.mutable_engine().set_straggler(s, f);
    };
    hooks.stall_control = [&system](double sec) {
      system.stall_control_for(sec);
    };
    d.injector->set_hooks(std::move(hooks));
    d.injector->set_trace(&system.trace());
  }
  timed(&times->deploy_ns, "setup.deploy", spans, parent_span, start);
  return d;
}

}  // namespace perfbench
