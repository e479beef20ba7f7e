// Textual topology specifications: the `--topology=SPEC` flag shared by
// wasp_sim, the bench drivers, and the wasp_sweep `topology` axis.
//
// Grammar (keys accept ',' or ';' as separators -- ';' matters inside sweep
// axis values, which split cells on commas):
//
//   paper                                   the 16-site §8.2 testbed (default)
//   uniform:sites=16,slots=4,bw=500,lat=20  symmetric clique
//   edge:sites=200,regions=8,core=4,regional=1,core-slots=16,
//        regional-slots=8,edge-slots=2-4,domains-per-region=1
//                                           planet-scale hierarchy
//                                           (Topology::make_edge_hierarchy)
//
// Unknown keys and malformed values are hard errors (parse returns nullopt
// and fills *error) so a typo'd sweep axis fails fast instead of silently
// running the default topology.
#pragma once

#include <optional>
#include <string>

#include "common/rng.h"
#include "net/topology.h"

namespace wasp::net {

struct TopologySpec {
  enum class Kind { kPaper, kUniform, kEdgeHierarchy };

  Kind kind = Kind::kPaper;

  // kUniform parameters.
  int uniform_sites = 16;
  int uniform_slots = 4;
  double uniform_bw_mbps = 500.0;
  double uniform_latency_ms = 20.0;

  // kEdgeHierarchy parameters.
  EdgeHierarchyParams edge;

  // Parses a spec string. On failure returns nullopt and, when `error` is
  // non-null, stores a one-line diagnostic.
  static std::optional<TopologySpec> parse(const std::string& text,
                                           std::string* error = nullptr);

  // Builds the topology. Deterministic given `rng` and the spec.
  [[nodiscard]] Topology build(Rng& rng) const;

  // Canonical round-trippable form (parse(to_string()) == *this): doubles
  // print in shortest round-trip form.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] int expected_sites() const;

  bool operator==(const TopologySpec&) const = default;
};

}  // namespace wasp::net
