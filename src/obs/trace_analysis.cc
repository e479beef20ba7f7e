#include "obs/trace_analysis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "obs/profiler.h"

namespace wasp::obs {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  [[nodiscard]] bool eof() const { return i >= s.size(); }
  [[nodiscard]] char peek() const { return s[i]; }
  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r')) ++i;
  }
};

void encode_utf8(std::string& out, std::uint32_t cp) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) cp = 0xFFFD;
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

bool parse_hex4(Cursor& c, std::uint32_t* out) {
  if (c.i + 4 > c.s.size()) return false;
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    const char ch = c.s[c.i + static_cast<std::size_t>(k)];
    v <<= 4;
    if (ch >= '0' && ch <= '9') {
      v |= static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      v |= static_cast<std::uint32_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      v |= static_cast<std::uint32_t>(ch - 'A' + 10);
    } else {
      return false;
    }
  }
  c.i += 4;
  *out = v;
  return true;
}

bool parse_json_string(Cursor& c, std::string* out, std::string* error) {
  if (c.eof() || c.peek() != '"') {
    *error = "expected string";
    return false;
  }
  ++c.i;
  out->clear();
  while (true) {
    if (c.eof()) {
      *error = "unterminated string";
      return false;
    }
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c.eof()) {
      *error = "unterminated escape";
      return false;
    }
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = 0;
        if (!parse_hex4(c, &cp)) {
          *error = "bad \\u escape";
          return false;
        }
        if (cp >= 0xD800 && cp <= 0xDBFF && c.i + 1 < c.s.size() &&
            c.s[c.i] == '\\' && c.s[c.i + 1] == 'u') {
          // Surrogate pair.
          Cursor save = c;
          c.i += 2;
          std::uint32_t lo = 0;
          if (parse_hex4(c, &lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            c = save;  // lone high surrogate -> U+FFFD below
          }
        }
        encode_utf8(*out, cp);
        break;
      }
      default:
        *error = "bad escape character";
        return false;
    }
  }
}

bool parse_json_number(Cursor& c, double* out, std::string* error) {
  const std::size_t start = c.i;
  while (!c.eof()) {
    const char ch = c.peek();
    if ((ch >= '0' && ch <= '9') || ch == '+' || ch == '-' || ch == '.' ||
        ch == 'e' || ch == 'E') {
      ++c.i;
    } else {
      break;
    }
  }
  if (c.i == start) {
    *error = "expected number";
    return false;
  }
  char buf[64];
  const std::size_t len = std::min(c.i - start, sizeof(buf) - 1);
  std::memcpy(buf, c.s.data() + start, len);
  buf[len] = '\0';
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  if (end == buf) {
    *error = "malformed number";
    return false;
  }
  return true;
}

bool expect(Cursor& c, char ch, std::string* error) {
  c.skip_ws();
  if (c.eof() || c.peek() != ch) {
    *error = std::string("expected '") + ch + "'";
    return false;
  }
  ++c.i;
  return true;
}

}  // namespace

bool parse_trace_line(std::string_view line, TraceEvent* out, int* schema,
                      std::string* error) {
  *out = TraceEvent{};
  if (schema != nullptr) *schema = 0;
  Cursor c{line};
  std::string err;
  if (!expect(c, '{', &err)) {
    *error = err;
    return false;
  }
  c.skip_ws();
  bool first = true;
  std::string key, sval;
  while (true) {
    c.skip_ws();
    if (!c.eof() && c.peek() == '}') {
      ++c.i;
      break;
    }
    if (!first && !expect(c, ',', &err)) {
      *error = err;
      return false;
    }
    first = false;
    c.skip_ws();
    if (!parse_json_string(c, &key, &err)) {
      *error = "key: " + err;
      return false;
    }
    if (!expect(c, ':', &err)) {
      *error = err;
      return false;
    }
    c.skip_ws();
    if (c.eof()) {
      *error = "truncated value";
      return false;
    }
    const char ch = c.peek();
    if (ch == '"') {
      if (!parse_json_string(c, &sval, &err)) {
        *error = "value of '" + key + "': " + err;
        return false;
      }
      if (key == "type") {
        out->type = sval;
      } else {
        out->strs.emplace_back(key, sval);
      }
    } else if (ch == 't' || ch == 'f') {
      const std::string_view lit = ch == 't' ? "true" : "false";
      if (c.s.substr(c.i, lit.size()) != lit) {
        *error = "bad literal for '" + key + "'";
        return false;
      }
      c.i += lit.size();
      out->strs.emplace_back(key, std::string(lit));
    } else if (ch == 'n') {
      if (c.s.substr(c.i, 4) != "null") {
        *error = "bad literal for '" + key + "'";
        return false;
      }
      c.i += 4;
      out->nums.emplace_back(key, kNan);
    } else {
      double v = 0.0;
      if (!parse_json_number(c, &v, &err)) {
        *error = "value of '" + key + "': " + err;
        return false;
      }
      if (key == "schema") {
        if (schema != nullptr) *schema = static_cast<int>(v);
      } else if (key == "seq") {
        out->seq = static_cast<std::uint64_t>(v);
      } else if (key == "t") {
        out->t = v;
      } else {
        out->nums.emplace_back(key, v);
      }
    }
  }
  c.skip_ws();
  if (!c.eof()) {
    *error = "trailing characters after object";
    return false;
  }
  if (out->type.empty()) {
    *error = "missing \"type\" field";
    return false;
  }
  return true;
}

TraceFile load_trace(std::istream& in) {
  TraceFile file;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = line;
    while (!sv.empty() && (sv.back() == '\r' || sv.back() == ' ')) {
      sv.remove_suffix(1);
    }
    if (sv.empty()) continue;
    ++file.lines;
    TraceEvent event;
    int schema = 0;
    std::string error;
    if (parse_trace_line(sv, &event, &schema, &error)) {
      file.events.push_back(std::move(event));
      file.schemas.push_back(schema);
    } else {
      file.errors.push_back("line " + std::to_string(line_no) + ": " + error);
    }
  }
  return file;
}

TraceFile load_trace_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in.good()) {
    if (error != nullptr) *error = "cannot open " + path;
    return {};
  }
  if (error != nullptr) error->clear();
  return load_trace(in);
}

// ---- Span reconstruction ----------------------------------------------

SpanIndex SpanIndex::build(const std::vector<TraceEvent>& events) {
  SpanIndex index;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  bool have_seq = false;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const TraceEvent& event = events[e];
    // Each emitter numbers seq (and span ids) from 0, so a restart marks the
    // next run appended to the same file: its ids live in a fresh namespace.
    if (have_seq && event.seq == 0) {
      ++index.segments;
      by_id.clear();
    }
    have_seq = true;
    if (event.type == "span_begin") {
      const auto id = static_cast<std::uint64_t>(event.num("span_id"));
      const auto parent = static_cast<std::uint64_t>(event.num("parent_id"));
      if (id == 0) {
        index.errors.push_back("seq " + std::to_string(event.seq) +
                               ": span_begin without span_id");
        continue;
      }
      if (by_id.count(id) != 0) {
        index.errors.push_back("seq " + std::to_string(event.seq) +
                               ": duplicate span_id " + std::to_string(id));
        continue;
      }
      SpanNode node;
      node.id = id;
      node.parent = parent;
      node.name = std::string(event.str("name"));
      node.begin_t = event.t;
      node.begin_event = e;
      const std::size_t node_index = index.nodes.size();
      by_id.emplace(id, node_index);
      if (parent == 0) {
        index.roots.push_back(node_index);
      } else {
        auto it = by_id.find(parent);
        if (it == by_id.end()) {
          index.errors.push_back("seq " + std::to_string(event.seq) +
                                 ": span " + std::to_string(id) +
                                 " references unknown parent " +
                                 std::to_string(parent));
          index.roots.push_back(node_index);
        } else if (index.nodes[it->second].closed) {
          index.errors.push_back("seq " + std::to_string(event.seq) +
                                 ": span " + std::to_string(id) +
                                 " begins under already-closed parent " +
                                 std::to_string(parent));
          index.nodes[it->second].children.push_back(node_index);
        } else {
          index.nodes[it->second].children.push_back(node_index);
        }
      }
      index.nodes.push_back(std::move(node));
    } else if (event.type == "span_end") {
      const auto id = static_cast<std::uint64_t>(event.num("span_id"));
      auto it = by_id.find(id);
      if (it == by_id.end()) {
        ++index.orphan_ends;
        index.errors.push_back("seq " + std::to_string(event.seq) +
                               ": span_end for unknown span " +
                               std::to_string(id));
        continue;
      }
      SpanNode& node = index.nodes[it->second];
      if (node.closed) {
        ++index.orphan_ends;
        index.errors.push_back("seq " + std::to_string(event.seq) +
                               ": duplicate span_end for span " +
                               std::to_string(id));
        continue;
      }
      node.closed = true;
      node.end_t = event.t;
      node.end_event = e;
    }
  }
  for (const SpanNode& node : index.nodes) {
    if (!node.closed) {
      ++index.unclosed;
      index.errors.push_back("span " + std::to_string(node.id) + " ('" +
                             node.name + "', begun at t=" +
                             std::to_string(node.begin_t) + ") never closed");
    }
  }
  return index;
}

const SpanNode* SpanIndex::find(std::uint64_t id) const {
  for (const SpanNode& node : nodes) {
    if (node.id == id) return &node;
  }
  return nullptr;
}

std::vector<std::size_t> SpanIndex::critical_path(
    std::size_t node_index) const {
  std::vector<std::size_t> path;
  if (node_index >= nodes.size()) return path;
  std::size_t cur = node_index;
  path.push_back(cur);
  while (true) {
    const SpanNode& node = nodes[cur];
    std::size_t best = nodes.size();
    for (std::size_t child : node.children) {
      const SpanNode& c = nodes[child];
      if (!c.closed) continue;
      if (best == nodes.size() || c.end_t > nodes[best].end_t ||
          (c.end_t == nodes[best].end_t && c.begin_t > nodes[best].begin_t)) {
        best = child;
      }
    }
    if (best == nodes.size()) break;
    path.push_back(best);
    cur = best;
  }
  return path;
}

// ---- Validation --------------------------------------------------------

ValidationReport validate_trace(const TraceFile& file) {
  ValidationReport report;
  report.events = file.events.size();
  report.errors = file.errors;
  bool have_prev_seq = false;
  std::uint64_t prev_seq = 0;
  double last_profile_ticks = -1.0;  // per segment; profile ticks are cumulative
  for (std::size_t i = 0; i < file.events.size(); ++i) {
    const TraceEvent& event = file.events[i];
    const int schema = file.schemas[i];
    if (have_prev_seq && event.seq == 0) last_profile_ticks = -1.0;
    if (schema != 1 && schema != 2) {
      report.errors.push_back("seq " + std::to_string(event.seq) +
                              ": unsupported schema version " +
                              std::to_string(schema));
    }
    const bool is_span =
        event.type == "span_begin" || event.type == "span_end";
    if (is_span && schema < 2) {
      report.errors.push_back("seq " + std::to_string(event.seq) + ": " +
                              event.type + " event on schema " +
                              std::to_string(schema) +
                              " (spans require schema 2)");
    }
    if (have_prev_seq && event.seq <= prev_seq && event.seq != 0) {
      // A restart at 0 is the boundary between concatenated emitter
      // streams (multi-run bench traces), not a violation.
      report.errors.push_back("seq " + std::to_string(event.seq) +
                              " not strictly increasing (previous " +
                              std::to_string(prev_seq) + ")");
    }
    if (event.type == "profile") {
      // Profiler snapshots (DESIGN.md §13): each needs a phase tag and a
      // cumulative tick counter that never moves backwards in a segment.
      if (event.str("phase").empty()) {
        report.errors.push_back("seq " + std::to_string(event.seq) +
                                ": profile event without a phase field");
      }
      const double ticks = event.num("ticks", -1.0);
      if (ticks < 0.0) {
        report.errors.push_back("seq " + std::to_string(event.seq) +
                                ": profile event without a ticks field");
      } else if (ticks < last_profile_ticks) {
        report.errors.push_back(
            "seq " + std::to_string(event.seq) + ": profile ticks " +
            std::to_string(ticks) + " below previous " +
            std::to_string(last_profile_ticks) + " (non-monotonic)");
      } else {
        last_profile_ticks = ticks;
      }
    }
    prev_seq = event.seq;
    have_prev_seq = true;
  }
  const SpanIndex spans = SpanIndex::build(file.events);
  report.spans = spans.nodes.size();
  report.unclosed = spans.unclosed;
  report.orphan_ends = spans.orphan_ends;
  report.segments = spans.segments;
  report.errors.insert(report.errors.end(), spans.errors.begin(),
                       spans.errors.end());
  return report;
}

// ---- Field-level diff --------------------------------------------------

namespace {

bool key_ignored(std::string_view key, const DiffOptions& options) {
  if (options.ignore_wall_keys && key.rfind("wall_", 0) == 0) return true;
  for (const std::string& k : options.ignore_keys) {
    if (k == key) return true;
  }
  return false;
}

bool nums_equal(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return a == b;
}

template <typename V>
const V* find_field(const std::vector<std::pair<std::string, V>>& fields,
                    std::string_view key) {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

// One non-ignored field on which two paired events differ. `numeric` marks
// a number held by both sides (values in a and b); otherwise the field is a
// string that differs, or is absent on one side (in_a / in_b).
struct FieldDelta {
  std::string_view key;
  bool numeric = false;
  bool in_a = true, in_b = true;
  double a = 0.0, b = 0.0;
  std::string_view a_str, b_str;
};

// Calls fn(FieldDelta) for every non-ignored field on which a and b differ:
// strings, then numbers, each in A's field order and then B's extras.
template <typename Fn>
void for_each_delta(const TraceEvent& a, const TraceEvent& b,
                    const DiffOptions& options, Fn&& fn) {
  for (const auto& [key, value] : a.strs) {
    if (key_ignored(key, options)) continue;
    const std::string* other = find_field(b.strs, key);
    if (other == nullptr) {
      fn(FieldDelta{key, false, true, false, 0.0, 0.0, value, {}});
    } else if (*other != value) {
      fn(FieldDelta{key, false, true, true, 0.0, 0.0, value, *other});
    }
  }
  for (const auto& [key, value] : b.strs) {
    if (key_ignored(key, options) || find_field(a.strs, key) != nullptr) {
      continue;
    }
    fn(FieldDelta{key, false, false, true, 0.0, 0.0, {}, value});
  }
  for (const auto& [key, value] : a.nums) {
    if (key_ignored(key, options)) continue;
    const double* other = find_field(b.nums, key);
    if (other == nullptr) {
      fn(FieldDelta{key, false, true, false, value, 0.0, {}, {}});
    } else if (!nums_equal(value, *other)) {
      fn(FieldDelta{key, true, true, true, value, *other, {}, {}});
    }
  }
  for (const auto& [key, value] : b.nums) {
    if (key_ignored(key, options) || find_field(a.nums, key) != nullptr) {
      continue;
    }
    fn(FieldDelta{key, false, false, true, 0.0, value, {}, {}});
  }
}

std::string describe(const TraceEvent& event, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "event %zu (t=%.6g, type=%s)", index,
                event.t, event.type.c_str());
  return buf;
}

std::string describe_delta(const FieldDelta& d) {
  const std::string key(d.key);
  if (!d.in_b) return "field '" + key + "' only in A";
  if (!d.in_a) return "field '" + key + "' only in B";
  if (!d.numeric) {
    return "field '" + key + "': '" + std::string(d.a_str) + "' vs '" +
           std::string(d.b_str) + "'";
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "field '%s': %.12g vs %.12g", key.c_str(),
                d.a, d.b);
  return buf;
}

// Mismatch of a candidate pair in [0, 1]: its differing fields over its
// fields. Below the cost of leaving both events unpaired (2), so the
// alignment pairs as many events as the order allows and picks the most
// alike ones.
double pair_cost(const TraceEvent& a, const TraceEvent& b,
                 const DiffOptions& options) {
  std::size_t deltas = 0;
  for_each_delta(a, b, options, [&deltas](const FieldDelta&) { ++deltas; });
  const std::size_t fields = std::max<std::size_t>(
      {a.nums.size() + a.strs.size(), b.nums.size() + b.strs.size(), 1});
  return std::min(1.0, static_cast<double>(deltas) /
                           static_cast<double>(fields));
}

// Past this many candidate pairs a run's events of one type pair by
// position instead of by alignment (the alignment table is quadratic).
constexpr std::size_t kMaxAlignCells = std::size_t{1} << 20;

// Aligns two same-type event lists in order: equal leading and trailing
// events pair directly, the rest by an edit-distance table whose
// substitution cost is pair_cost. Returns (a index, b index) pairs in
// stream order, npos marking an event on one side only.
std::vector<std::pair<std::size_t, std::size_t>> align_events(
    const std::vector<TraceEvent>& a, const std::vector<std::size_t>& ia,
    const std::vector<TraceEvent>& b, const std::vector<std::size_t>& ib,
    const DiffOptions& options) {
  constexpr std::size_t npos = std::string::npos;
  const auto cost_of = [&](std::size_t i, std::size_t j) {
    return pair_cost(a[ia[i]], b[ib[j]], options);
  };
  std::size_t lo = 0, hi_a = ia.size(), hi_b = ib.size();
  while (lo < hi_a && lo < hi_b && cost_of(lo, lo) == 0.0) ++lo;
  while (hi_a > lo && hi_b > lo && cost_of(hi_a - 1, hi_b - 1) == 0.0) {
    --hi_a;
    --hi_b;
  }
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t k = 0; k < lo; ++k) out.emplace_back(ia[k], ib[k]);
  const std::size_t n = hi_a - lo, m = hi_b - lo;
  if (n * m > kMaxAlignCells) {
    for (std::size_t k = 0; k < std::max(n, m); ++k) {
      out.emplace_back(k < n ? ia[lo + k] : npos, k < m ? ib[lo + k] : npos);
    }
  } else {
    // cost[i * w + j]: aligning the middle's first i A and first j B events.
    const std::size_t w = m + 1;
    std::vector<double> cost((n + 1) * w, 0.0);
    for (std::size_t i = 0; i <= n; ++i) cost[i * w] = static_cast<double>(i);
    for (std::size_t j = 0; j <= m; ++j) cost[j] = static_cast<double>(j);
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 1; j <= m; ++j) {
        cost[i * w + j] = std::min(
            {cost[(i - 1) * w + j - 1] + cost_of(lo + i - 1, lo + j - 1),
             cost[(i - 1) * w + j] + 1.0, cost[i * w + j - 1] + 1.0});
      }
    }
    // Walk back from the corner, preferring a pair, then an A-only event.
    std::vector<std::pair<std::size_t, std::size_t>> middle;
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
      if (i > 0 && j > 0 &&
          cost[i * w + j] == cost[(i - 1) * w + j - 1] +
                                 cost_of(lo + i - 1, lo + j - 1)) {
        --i;
        --j;
        middle.emplace_back(ia[lo + i], ib[lo + j]);
      } else if (i > 0 && cost[i * w + j] == cost[(i - 1) * w + j] + 1.0) {
        middle.emplace_back(ia[lo + --i], npos);
      } else {
        middle.emplace_back(npos, ib[lo + --j]);
      }
    }
    out.insert(out.end(), middle.rbegin(), middle.rend());
  }
  for (std::size_t k = 0; k < ia.size() - hi_a; ++k) {
    out.emplace_back(ia[hi_a + k], ib[hi_b + k]);
  }
  return out;
}

// A stream cut into runs of consecutive events with the same t, each keyed
// by (t's bits, how many earlier runs had that t).
struct TimeRun {
  std::uint64_t t_bits = 0;
  std::size_t occurrence = 0;
  std::size_t begin = 0, end = 0;
};

std::vector<TimeRun> time_runs(const std::vector<TraceEvent>& events) {
  std::vector<TimeRun> runs;
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto bits = std::bit_cast<std::uint64_t>(events[i].t);
    if (runs.empty() || runs.back().t_bits != bits) {
      runs.push_back(TimeRun{bits, seen[bits]++, i, i});
    }
    runs.back().end = i + 1;
  }
  return runs;
}

}  // namespace

TraceDiff diff_traces(const std::vector<TraceEvent>& a,
                      const std::vector<TraceEvent>& b,
                      const DiffOptions& options) {
  constexpr std::size_t npos = std::string::npos;
  TraceDiff diff;
  const auto summary_of = [&diff](const std::string& type) -> TypeDiffSummary& {
    for (TypeDiffSummary& s : diff.types) {
      if (s.type == type) return s;
    }
    diff.types.emplace_back().type = type;
    return diff.types.back();
  };
  const auto report = [&](std::string line) {
    ++diff.differing_events;
    if (diff.reports.size() < options.max_reports) {
      diff.reports.push_back(std::move(line));
    }
  };
  const auto compare_pair = [&](std::size_t i, std::size_t j) {
    TypeDiffSummary& s = summary_of(a[i].type);
    std::string line;
    for_each_delta(a[i], b[j], options, [&](const FieldDelta& d) {
      line += (line.empty() ? "" : "; ") + describe_delta(d);
      FieldChangeSummary* field = nullptr;
      for (FieldChangeSummary& f : s.fields) {
        if (f.key == d.key) field = &f;
      }
      if (field == nullptr) {
        field = &s.fields.emplace_back();
        field->key = d.key;
      }
      ++field->events;
      if (!d.numeric) {
        ++field->non_numeric;
        return;
      }
      const double scale = std::max(std::abs(d.a), std::abs(d.b));
      const double rel = std::isnan(d.a) || std::isnan(d.b)
                             ? std::numeric_limits<double>::infinity()
                             : std::abs(d.a - d.b) / scale;
      field->max_rel = std::max(field->max_rel, rel);
    });
    if (line.empty()) return;
    ++s.changed;
    report(describe(a[i], i) + ": " + line);
  };
  const auto only_in = [&](const std::vector<TraceEvent>& events,
                           std::size_t i, bool in_a) {
    TypeDiffSummary& s = summary_of(events[i].type);
    ++(in_a ? s.only_a : s.only_b);
    report(describe(events[i], i) + (in_a ? ": only in A" : ": only in B"));
  };

  for (const TraceEvent& e : a) ++summary_of(e.type).in_a;
  for (const TraceEvent& e : b) ++summary_of(e.type).in_b;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (a, b) indices

  // Aligns the events of each type in a pair of runs (either may be null).
  const auto diff_runs = [&](const TimeRun* ra, const TimeRun* rb) {
    const auto of_type = [](const std::vector<TraceEvent>& events,
                            const TimeRun* run, std::string_view type) {
      std::vector<std::size_t> out;
      if (run == nullptr) return out;
      for (std::size_t i = run->begin; i < run->end; ++i) {
        if (events[i].type == type) out.push_back(i);
      }
      return out;
    };
    std::vector<std::string_view> types;  // in order of appearance
    const auto note_types = [&types](const std::vector<TraceEvent>& events,
                                     const TimeRun* run) {
      if (run == nullptr) return;
      for (std::size_t i = run->begin; i < run->end; ++i) {
        if (std::find(types.begin(), types.end(), events[i].type) ==
            types.end()) {
          types.push_back(events[i].type);
        }
      }
    };
    note_types(a, ra);
    note_types(b, rb);
    for (const std::string_view type : types) {
      for (const auto& [i, j] : align_events(a, of_type(a, ra, type), b,
                                             of_type(b, rb, type), options)) {
        if (i == npos) {
          only_in(b, j, false);
        } else if (j == npos) {
          only_in(a, i, true);
        } else {
          compare_pair(i, j);
          pairs.emplace_back(i, j);
        }
      }
    }
  };

  const std::vector<TimeRun> runs_a = time_runs(a);
  const std::vector<TimeRun> runs_b = time_runs(b);
  std::map<std::pair<std::uint64_t, std::size_t>, const TimeRun*> unpaired_b;
  for (const TimeRun& rb : runs_b) unpaired_b[{rb.t_bits, rb.occurrence}] = &rb;
  for (const TimeRun& ra : runs_a) {
    const auto it = unpaired_b.find({ra.t_bits, ra.occurrence});
    diff_runs(&ra, it == unpaired_b.end() ? nullptr : it->second);
    if (it != unpaired_b.end()) unpaired_b.erase(it);
  }
  for (const TimeRun& rb : runs_b) {
    if (unpaired_b.contains({rb.t_bits, rb.occurrence})) {
      diff_runs(nullptr, &rb);
    }
  }
  // Types and runs were aligned one at a time; in A's order the pairs' B
  // indices rise unless B runs some of them in another order.
  std::sort(pairs.begin(), pairs.end());
  for (std::size_t k = 1; k < pairs.size(); ++k) {
    if (pairs[k].second > pairs[k - 1].second) continue;
    ++diff.reordered;
    report(describe(a[pairs[k].first], pairs[k].first) +
           ": order differs (in B it runs before the pair of event " +
           std::to_string(pairs[k - 1].first) + ")");
  }
  return diff;
}

std::string format_type_summary(const TypeDiffSummary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: A %zu, B %zu; only in A %zu, only in B %zu; changed %zu",
                s.type.c_str(), s.in_a, s.in_b, s.only_a, s.only_b, s.changed);
  std::string line = buf;
  for (std::size_t k = 0; k < s.fields.size(); ++k) {
    const FieldChangeSummary& f = s.fields[k];
    line += k == 0 ? ": " : ", ";
    if (f.non_numeric == f.events) {
      std::snprintf(buf, sizeof(buf), "%s (%zu, not numeric)", f.key.c_str(),
                    f.events);
    } else {
      std::snprintf(buf, sizeof(buf), "%s (%zu, max rel %.3g)", f.key.c_str(),
                    f.events, f.max_rel);
    }
    line += buf;
  }
  return line;
}

// ---- Chrome trace-event export ----------------------------------------

void export_chrome_trace(const std::vector<TraceEvent>& events,
                         std::ostream& out) {
  const SpanIndex spans = SpanIndex::build(events);
  // Map begin-event index -> span node for argument merging.
  std::unordered_map<std::size_t, const SpanNode*> begin_of;
  for (const SpanNode& node : spans.nodes) begin_of[node.begin_event] = &node;

  std::string line;
  auto append_args = [&line](const TraceEvent& event) {
    bool first = true;
    for (const auto& [key, value] : event.strs) {
      if (key == "name") continue;
      if (!first) line += ",";
      first = false;
      append_json_string(line, key);
      line += ":";
      append_json_string(line, value);
    }
    for (const auto& [key, value] : event.nums) {
      if (key == "span_id" || key == "parent_id") continue;
      if (!first) line += ",";
      first = false;
      append_json_string(line, key);
      line += ":";
      append_json_number(line, value);
    }
    return !first;
  };

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_record = true;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const TraceEvent& event = events[e];
    if (event.type == "span_end") continue;  // folded into the begin record
    line.clear();
    if (!first_record) line += ",\n";
    first_record = false;
    const double ts_us = event.t * 1e6;
    if (event.type == "span_begin") {
      auto it = begin_of.find(e);
      const SpanNode* node = it == begin_of.end() ? nullptr : it->second;
      const std::string name(event.str("name", "span"));
      if (node != nullptr && node->closed) {
        line += "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":";
        append_json_string(line, name);
        line += ",\"cat\":\"span\",\"ts\":";
        append_json_number(line, ts_us);
        line += ",\"dur\":";
        append_json_number(line, (node->end_t - node->begin_t) * 1e6);
        line += ",\"args\":{";
        bool any = append_args(event);
        if (node->end_event < events.size()) {
          const TraceEvent& end_event = events[node->end_event];
          for (const auto& [key, value] : end_event.strs) {
            if (any) line += ",";
            any = true;
            append_json_string(line, key);
            line += ":";
            append_json_string(line, value);
          }
          for (const auto& [key, value] : end_event.nums) {
            if (key == "span_id") continue;
            if (any) line += ",";
            any = true;
            append_json_string(line, key);
            line += ":";
            append_json_number(line, value);
          }
        }
        line += "}}";
      } else {
        line += "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"s\":\"g\",\"name\":";
        append_json_string(line, name + " (unclosed)");
        line += ",\"cat\":\"span\",\"ts\":";
        append_json_number(line, ts_us);
        line += ",\"args\":{";
        append_args(event);
        line += "}}";
      }
    } else {
      line += "{\"ph\":\"i\",\"pid\":1,\"tid\":2,\"s\":\"t\",\"name\":";
      append_json_string(line, event.type);
      line += ",\"cat\":\"event\",\"ts\":";
      append_json_number(line, ts_us);
      line += ",\"args\":{";
      append_args(event);
      line += "}}";
    }
    out << line;
  }
  out << "]}\n";
}

// ---- Profile aggregation ----------------------------------------------

namespace {

// Registry sort key: known phases in enum (presentation) order, names the
// registry does not know after them.
int phase_sort_key(const std::string& name) {
  Phase phase;
  if (phase_from_name(name.c_str(), &phase)) return static_cast<int>(phase);
  return static_cast<int>(Phase::kCount);
}

}  // namespace

const ProfilePhase* ProfileSummary::find(std::string_view name) const {
  for (const ProfilePhase& phase : phases) {
    if (phase.name == name) return &phase;
  }
  return nullptr;
}

ProfileSummary aggregate_profile(const TraceFile& file) {
  ProfileSummary out;
  // Latest cumulative snapshot per phase within the current segment; folded
  // into the totals at every seq restart (and once at EOF).
  std::vector<ProfilePhase> segment;
  PoolProfile segment_pool;

  auto snapshot_of = [&segment](const std::string& name) -> ProfilePhase& {
    for (ProfilePhase& phase : segment) {
      if (phase.name == name) return phase;
    }
    segment.emplace_back();
    segment.back().name = name;
    return segment.back();
  };

  auto fold_segment = [&out, &segment, &segment_pool] {
    for (const ProfilePhase& snap : segment) {
      ProfilePhase* total = nullptr;
      for (ProfilePhase& phase : out.phases) {
        if (phase.name == snap.name) total = &phase;
      }
      if (total == nullptr) {
        out.phases.emplace_back();
        out.phases.back().name = snap.name;
        total = &out.phases.back();
      }
      total->ticks += snap.ticks;
      total->calls += snap.calls;
      total->total_us += snap.total_us;
      total->self_us += snap.self_us;
    }
    segment.clear();
    if (segment_pool.present) {
      out.pool.present = true;
      out.pool.ticks += segment_pool.ticks;
      out.pool.threads = std::max(out.pool.threads, segment_pool.threads);
      out.pool.chunks += segment_pool.chunks;
      out.pool.regions += segment_pool.regions;
      out.pool.busy_us += segment_pool.busy_us;
      out.pool.busy_min_us += segment_pool.busy_min_us;
      out.pool.busy_max_us += segment_pool.busy_max_us;
      segment_pool = PoolProfile{};
    }
  };

  bool have_seq = false;
  for (const TraceEvent& event : file.events) {
    if (have_seq && event.seq == 0) fold_segment();
    have_seq = true;
    if (event.type != "profile") continue;
    ++out.profile_events;
    const std::string name(event.str("phase"));
    if (name == "pool") {
      segment_pool.present = true;
      segment_pool.ticks = static_cast<std::uint64_t>(event.num("ticks"));
      segment_pool.threads = event.num("threads");
      segment_pool.chunks = event.num("chunks");
      segment_pool.regions = event.num("regions");
      segment_pool.busy_us = event.num("wall_busy_us");
      segment_pool.busy_min_us = event.num("wall_busy_min_us");
      segment_pool.busy_max_us = event.num("wall_busy_max_us");
    } else {
      ProfilePhase& snap = snapshot_of(name);
      snap.ticks = static_cast<std::uint64_t>(event.num("ticks"));
      snap.calls = static_cast<std::uint64_t>(event.num("calls"));
      snap.total_us = event.num("wall_total_us");
      snap.self_us = event.num("wall_self_us");
    }
  }
  fold_segment();

  std::stable_sort(out.phases.begin(), out.phases.end(),
                   [](const ProfilePhase& a, const ProfilePhase& b) {
                     const int ka = phase_sort_key(a.name);
                     const int kb = phase_sort_key(b.name);
                     return ka != kb ? ka < kb : a.name < b.name;
                   });
  for (const ProfilePhase& phase : out.phases) {
    out.ticks = std::max(out.ticks, phase.ticks);
  }
  return out;
}

void export_chrome_profile_counters(const TraceFile& file, std::ostream& out) {
  // Counters are cumulative, so each sample is the per-tick delta against
  // the previous snapshot of the same phase (reset at segment boundaries).
  struct Prev {
    double value = 0.0;
    double ticks = 0.0;
  };
  std::unordered_map<std::string, Prev> prev;
  bool have_seq = false;
  bool first_record = true;
  std::string line;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (const TraceEvent& event : file.events) {
    if (have_seq && event.seq == 0) prev.clear();
    have_seq = true;
    if (event.type != "profile") continue;
    const std::string name(event.str("phase"));
    const bool is_pool = name == "pool";
    const double cumulative =
        is_pool ? event.num("wall_busy_us") : event.num("wall_self_us");
    const double ticks = event.num("ticks");
    Prev& p = prev[name];
    const double d_ticks = ticks - p.ticks;
    const double d_value = cumulative - p.value;
    p.ticks = ticks;
    p.value = cumulative;
    if (d_ticks <= 0.0) continue;
    line.clear();
    if (!first_record) line += ",\n";
    first_record = false;
    line += "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":";
    append_json_string(line,
                   is_pool ? "pool busy us/tick" : name + " self us/tick");
    line += ",\"cat\":\"profile\",\"ts\":";
    append_json_number(line, event.t * 1e6);
    line += ",\"args\":{\"value\":";
    append_json_number(line, d_value / d_ticks);
    line += "}}";
    out << line;
  }
  out << "]}\n";
}

}  // namespace wasp::obs
