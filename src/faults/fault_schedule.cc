#include "faults/fault_schedule.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/number.h"
#include "net/topology.h"

namespace wasp::faults {
namespace {

// key=value tokens collected per line.
struct KeyValues {
  std::vector<std::pair<std::string, std::string>> kv;

  [[nodiscard]] const std::string* find(const std::string& key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

bool parse_site(const KeyValues& kvs, const std::string& key, SiteId* out,
                std::string* error) {
  const std::string* raw = kvs.find(key);
  if (raw == nullptr) {
    *error = "missing " + key + "=";
    return false;
  }
  double v = 0.0;
  if (!parse_number(*raw, &v) || v < 0.0 || v != static_cast<int>(v)) {
    *error = "bad site id in " + key + "=" + *raw;
    return false;
  }
  *out = SiteId(static_cast<std::int64_t>(v));
  return true;
}

bool parse_num(const KeyValues& kvs, const std::string& key, bool required,
               double* out, std::string* error) {
  const std::string* raw = kvs.find(key);
  if (raw == nullptr) {
    if (required) *error = "missing " + key + "=";
    return !required;
  }
  if (!parse_number(*raw, out)) {
    *error = "bad number in " + key + "=" + *raw;
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSiteCrash:
      return "crash";
    case FaultKind::kSiteRestore:
      return "restore";
    case FaultKind::kLinkPartition:
      return "partition";
    case FaultKind::kLinkHeal:
      return "heal";
    case FaultKind::kLinkFlap:
      return "flap";
    case FaultKind::kStraggler:
      return "straggler";
    case FaultKind::kControlStall:
      return "stall";
    case FaultKind::kDomainDown:
      return "domain_down";
    case FaultKind::kDomainRestore:
      return "domain_restore";
  }
  return "?";
}

bool FaultSchedule::parse(std::istream& in, FaultSchedule* out,
                          std::string* error) {
  FaultSchedule result;
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "fault schedule line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string time_tok;
    if (!(tokens >> time_tok)) continue;  // blank / comment-only line

    FaultEvent event;
    if (!parse_number(time_tok, &event.t) || event.t < 0.0) {
      return fail("bad time '" + time_tok + "'");
    }
    std::string kind_tok;
    if (!(tokens >> kind_tok)) return fail("missing event kind");

    KeyValues kvs;
    std::string tok;
    while (tokens >> tok) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos || eq == 0) {
        return fail("expected key=value, got '" + tok + "'");
      }
      kvs.kv.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }

    std::string why;
    if (kind_tok == "crash" || kind_tok == "restore") {
      event.kind = kind_tok == "crash" ? FaultKind::kSiteCrash
                                       : FaultKind::kSiteRestore;
      if (!parse_site(kvs, "site", &event.site, &why)) return fail(why);
    } else if (kind_tok == "partition" || kind_tok == "heal") {
      event.kind = kind_tok == "partition" ? FaultKind::kLinkPartition
                                           : FaultKind::kLinkHeal;
      if (!parse_site(kvs, "from", &event.from, &why)) return fail(why);
      if (!parse_site(kvs, "to", &event.to, &why)) return fail(why);
      if (event.kind == FaultKind::kLinkPartition &&
          !parse_num(kvs, "duration", false, &event.duration_sec, &why)) {
        return fail(why);
      }
    } else if (kind_tok == "flap") {
      event.kind = FaultKind::kLinkFlap;
      if (!parse_site(kvs, "from", &event.from, &why)) return fail(why);
      if (!parse_site(kvs, "to", &event.to, &why)) return fail(why);
      if (!parse_num(kvs, "period", true, &event.period_sec, &why)) {
        return fail(why);
      }
      if (!parse_num(kvs, "duration", true, &event.duration_sec, &why)) {
        return fail(why);
      }
      if (event.period_sec <= 0.0 || event.duration_sec <= 0.0) {
        return fail("flap needs period > 0 and duration > 0");
      }
    } else if (kind_tok == "straggler") {
      event.kind = FaultKind::kStraggler;
      if (!parse_site(kvs, "site", &event.site, &why)) return fail(why);
      if (!parse_num(kvs, "factor", true, &event.factor, &why)) {
        return fail(why);
      }
      if (event.factor <= 0.0) return fail("straggler factor must be > 0");
    } else if (kind_tok == "domain_down" || kind_tok == "domain_restore") {
      event.kind = kind_tok == "domain_down" ? FaultKind::kDomainDown
                                             : FaultKind::kDomainRestore;
      double v = 0.0;
      if (!parse_num(kvs, "domain", true, &v, &why)) return fail(why);
      if (v < 0.0 || v != static_cast<int>(v)) {
        return fail("bad domain id in domain=");
      }
      event.domain = static_cast<int>(v);
    } else if (kind_tok == "stall") {
      event.kind = FaultKind::kControlStall;
      if (!parse_num(kvs, "duration", true, &event.duration_sec, &why)) {
        return fail(why);
      }
      if (event.duration_sec <= 0.0) return fail("stall duration must be > 0");
    } else {
      return fail("unknown event kind '" + kind_tok + "'");
    }
    result.add(event);
  }
  *out = std::move(result);
  return true;
}

bool FaultSchedule::parse_file(const std::string& path, FaultSchedule* out,
                               std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open fault schedule: " + path;
    return false;
  }
  return parse(in, out, error);
}

bool FaultSchedule::validate(const net::Topology& topology,
                             std::string* error) const {
  const auto n = static_cast<std::int64_t>(topology.num_sites());
  for (const FaultEvent& e : events_) {
    std::string why;
    for (const auto& [key, id] : {std::pair{"site", e.site},
                                  std::pair{"from", e.from},
                                  std::pair{"to", e.to}}) {
      if (why.empty() && id.value() >= n) {
        why = std::string(key) + "=" + std::to_string(id.value()) +
              " is not a site of the " + std::to_string(n) + "-site topology";
      }
    }
    const bool domain_fault = e.kind == FaultKind::kDomainDown ||
                              e.kind == FaultKind::kDomainRestore;
    if (domain_fault && topology.sites_in_domain(e.domain).empty()) {
      why = "domain=" + std::to_string(e.domain) + " has no site";
    }
    if (!why.empty()) {
      if (error != nullptr) {
        *error = "fault schedule: " + std::string(to_string(e.kind)) +
                 " at t=" + format_number(e.t) + ": " + why;
      }
      return false;
    }
  }
  return true;
}

void FaultSchedule::add(FaultEvent event) {
  events_.push_back(event);
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.t < b.t; });
}

}  // namespace wasp::faults
