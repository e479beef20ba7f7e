#include "net/topology_spec.h"

#include <sstream>
#include <vector>

#include "common/number.h"

namespace wasp::net {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Splits "k1=v1,k2=v2;k3=v3" into key/value pairs. Both ',' and ';' separate
// pairs so specs survive being embedded in comma-split sweep axis values.
bool split_pairs(const std::string& text,
                 std::vector<std::pair<std::string, std::string>>* pairs,
                 std::string* error) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find_first_of(",;", start);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(start, end - start);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail(error, "topology: expected key=value, got '" + item + "'");
      }
      pairs->emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
    start = end + 1;
  }
  return true;
}

bool parse_uniform(const std::string& body, TopologySpec* spec,
                   std::string* error) {
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!split_pairs(body, &pairs, error)) return false;
  for (const auto& [key, value] : pairs) {
    bool ok = true;
    if (key == "sites") {
      ok = parse_number(value, &spec->uniform_sites) &&
           spec->uniform_sites >= 1;
    } else if (key == "slots") {
      ok = parse_number(value, &spec->uniform_slots) &&
           spec->uniform_slots >= 1;
    } else if (key == "bw") {
      ok = parse_number(value, &spec->uniform_bw_mbps) &&
           spec->uniform_bw_mbps > 0;
    } else if (key == "lat") {
      ok = parse_number(value, &spec->uniform_latency_ms) &&
           spec->uniform_latency_ms >= 0;
    } else {
      return fail(error, "topology: unknown uniform key '" + key + "'");
    }
    if (!ok) {
      return fail(error,
                  "topology: bad value '" + value + "' for key '" + key + "'");
    }
  }
  return true;
}

bool parse_edge(const std::string& body, TopologySpec* spec,
                std::string* error) {
  std::vector<std::pair<std::string, std::string>> pairs;
  if (!split_pairs(body, &pairs, error)) return false;
  EdgeHierarchyParams& p = spec->edge;
  for (const auto& [key, value] : pairs) {
    bool ok = true;
    if (key == "sites") {
      ok = parse_number(value, &p.edge_sites) && p.edge_sites >= 1;
    } else if (key == "regions") {
      ok = parse_number(value, &p.regions) && p.regions >= 1;
    } else if (key == "core") {
      ok = parse_number(value, &p.core_dcs) && p.core_dcs >= 1;
    } else if (key == "regional") {
      ok = parse_number(value, &p.regional_dcs_per_region) &&
           p.regional_dcs_per_region >= 0;
    } else if (key == "core-slots") {
      ok = parse_number(value, &p.core_slots) && p.core_slots >= 1;
    } else if (key == "regional-slots") {
      ok = parse_number(value, &p.regional_slots) && p.regional_slots >= 1;
    } else if (key == "edge-slots") {
      // "MIN-MAX" range, or a single value for a fixed slot count.
      const std::size_t dash = value.find('-');
      if (dash == std::string::npos) {
        ok = parse_number(value, &p.edge_slots_min);
        p.edge_slots_max = p.edge_slots_min;
      } else {
        ok = parse_number(value.substr(0, dash), &p.edge_slots_min) &&
             parse_number(value.substr(dash + 1), &p.edge_slots_max);
      }
      ok = ok && p.edge_slots_min >= 1 && p.edge_slots_max >= p.edge_slots_min;
    } else if (key == "domains-per-region") {
      ok = parse_number(value, &p.domains_per_region) &&
           p.domains_per_region >= 1;
    } else {
      return fail(error, "topology: unknown edge key '" + key + "'");
    }
    if (!ok) {
      return fail(error,
                  "topology: bad value '" + value + "' for key '" + key + "'");
    }
  }
  return true;
}

}  // namespace

std::optional<TopologySpec> TopologySpec::parse(const std::string& text,
                                                std::string* error) {
  TopologySpec spec;
  const std::size_t colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string body =
      colon == std::string::npos ? std::string() : text.substr(colon + 1);
  if (head == "paper") {
    spec.kind = Kind::kPaper;
    if (!body.empty()) {
      fail(error, "topology: 'paper' takes no parameters");
      return std::nullopt;
    }
  } else if (head == "uniform") {
    spec.kind = Kind::kUniform;
    if (!parse_uniform(body, &spec, error)) return std::nullopt;
  } else if (head == "edge") {
    spec.kind = Kind::kEdgeHierarchy;
    if (!parse_edge(body, &spec, error)) return std::nullopt;
  } else {
    fail(error, "topology: unknown kind '" + head +
                    "' (expected paper | uniform:... | edge:...)");
    return std::nullopt;
  }
  return spec;
}

Topology TopologySpec::build(Rng& rng) const {
  switch (kind) {
    case Kind::kUniform:
      return Topology::make_uniform(uniform_sites, uniform_slots,
                                    uniform_bw_mbps, uniform_latency_ms);
    case Kind::kEdgeHierarchy:
      return Topology::make_edge_hierarchy(edge, rng);
    case Kind::kPaper:
      break;
  }
  return Topology::make_paper_testbed(rng);
}

std::string TopologySpec::to_string() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kPaper:
      out << "paper";
      break;
    case Kind::kUniform:
      out << "uniform:sites=" << uniform_sites << ",slots=" << uniform_slots
          << ",bw=" << format_number(uniform_bw_mbps)
          << ",lat=" << format_number(uniform_latency_ms);
      break;
    case Kind::kEdgeHierarchy:
      out << "edge:sites=" << edge.edge_sites << ",regions=" << edge.regions
          << ",core=" << edge.core_dcs << ",regional="
          << edge.regional_dcs_per_region << ",core-slots=" << edge.core_slots
          << ",regional-slots=" << edge.regional_slots << ",edge-slots="
          << edge.edge_slots_min << "-" << edge.edge_slots_max
          << ",domains-per-region=" << edge.domains_per_region;
      break;
  }
  return out.str();
}

int TopologySpec::expected_sites() const {
  switch (kind) {
    case Kind::kPaper:
      return 16;
    case Kind::kUniform:
      return uniform_sites;
    case Kind::kEdgeHierarchy:
      return edge.total_sites();
  }
  return 0;
}

}  // namespace wasp::net
