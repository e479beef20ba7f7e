// Offline analysis of JSONL traces: parsing, span-tree reconstruction,
// validation and field-level diffing.
//
// This is the library behind the `wasp_trace` CLI (tools/wasp_trace.cpp); it
// lives in wasp_obs so tests can exercise the exact logic CI relies on. It
// reads the schema-v1/v2 lines produced by to_json_line() back into
// TraceEvent records (the parser accepts any flat JSON object with string /
// number / bool / null values) and rebuilds the schema-v2 span forest from
// span_begin/span_end pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace wasp::obs {

// ---- JSONL parsing -----------------------------------------------------

// Parses one trace line into *out. On success returns true and sets *schema
// to the line's "schema" field (0 when absent). On failure returns false and
// describes the problem in *error. Booleans become string fields
// "true"/"false" (matching Event::flag), null numbers become NaN.
[[nodiscard]] bool parse_trace_line(std::string_view line, TraceEvent* out,
                                    int* schema, std::string* error);

struct TraceFile {
  std::vector<TraceEvent> events;  // successfully parsed lines, in file order
  std::vector<int> schemas;        // per-event schema version
  std::vector<std::string> errors;  // "line N: ..." parse failures
  std::size_t lines = 0;            // non-empty lines seen
};

// Reads every non-empty line of `in`; parse failures are collected, not
// fatal, so validation can report all of them.
[[nodiscard]] TraceFile load_trace(std::istream& in);
[[nodiscard]] TraceFile load_trace_file(const std::string& path,
                                        std::string* error);

// ---- Span reconstruction ----------------------------------------------

struct SpanNode {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  double begin_t = 0.0;
  double end_t = 0.0;   // meaningful only when closed
  bool closed = false;
  std::size_t begin_event = 0;  // index into the source event vector
  std::size_t end_event = 0;    // meaningful only when closed
  std::vector<std::size_t> children;  // indices into SpanIndex::nodes

  [[nodiscard]] double duration() const {
    return closed ? end_t - begin_t : 0.0;
  }
};

// The reconstructed span forest plus every structural violation found while
// building it. Spans need not close in LIFO order; the only requirements are
// begin/end balance, unique ids, and parents that are open at begin time.
// Bench drivers append several runs (one emitter each) to a single file;
// each seq restart at 0 starts a new segment with its own span-id namespace.
struct SpanIndex {
  std::vector<SpanNode> nodes;       // in span_begin order
  std::vector<std::size_t> roots;    // nodes with parent 0 (or missing)
  std::vector<std::string> errors;   // structural violations
  std::size_t unclosed = 0;          // span_begin without span_end
  std::size_t orphan_ends = 0;       // span_end without a matching begin
  std::size_t segments = 1;          // emitter streams (seq restarts + 1)

  [[nodiscard]] static SpanIndex build(const std::vector<TraceEvent>& events);

  [[nodiscard]] const SpanNode* find(std::uint64_t id) const;
  [[nodiscard]] bool balanced() const {
    return unclosed == 0 && orphan_ends == 0;
  }

  // The chain from `node` to the leaf that determines its end time: at each
  // level, the closed child with the latest end_t (ties: latest begin).
  // Includes `node` itself; empty for an out-of-range index.
  [[nodiscard]] std::vector<std::size_t> critical_path(
      std::size_t node_index) const;
};

// ---- Validation --------------------------------------------------------

struct ValidationReport {
  std::vector<std::string> errors;
  std::size_t events = 0;
  std::size_t spans = 0;
  std::size_t unclosed = 0;
  std::size_t orphan_ends = 0;
  std::size_t segments = 1;
  [[nodiscard]] bool ok() const { return errors.empty(); }
};

// Checks parse errors, schema versions (1 or 2 only; span events require 2),
// strictly increasing seq, and span-forest structure (balance, unique ids,
// open parents). seq restarting at 0 is not an error: it marks the boundary
// between concatenated emitter streams (multi-run bench traces).
[[nodiscard]] ValidationReport validate_trace(const TraceFile& file);

// ---- Profile aggregation ----------------------------------------------

// One phase's totals folded over every `profile` event in a trace
// (DESIGN.md §13). Profile events carry cumulative counters, so within a
// segment the last event per phase holds that segment's totals; a
// multi-segment file (bench drivers appending runs) sums segment totals.
struct ProfilePhase {
  std::string name;
  std::uint64_t ticks = 0;  // ticks covered by the folded snapshots
  std::uint64_t calls = 0;
  double total_us = 0.0;  // inclusive wall time
  double self_us = 0.0;   // total minus nested phases
};

// Thread-pool counters from the pseudo-phase "pool" profile events.
struct PoolProfile {
  bool present = false;
  std::uint64_t ticks = 0;
  double threads = 0.0;  // max across segments (controller + workers)
  double chunks = 0.0;
  double regions = 0.0;
  double busy_us = 0.0;
  double busy_min_us = 0.0;  // least-loaded slot (last snapshot folded)
  double busy_max_us = 0.0;  // most-loaded slot
};

struct ProfileSummary {
  // Phases in registry (presentation) order; names the registry does not
  // know sort after them alphabetically, so newer traces stay readable.
  std::vector<ProfilePhase> phases;
  PoolProfile pool;
  std::size_t profile_events = 0;
  std::uint64_t ticks = 0;  // max phase ticks (summed across segments)
  [[nodiscard]] bool empty() const { return profile_events == 0; }
  [[nodiscard]] const ProfilePhase* find(std::string_view name) const;
};

[[nodiscard]] ProfileSummary aggregate_profile(const TraceFile& file);

// Chrome counter-track export for profile events: one "C" counter sample
// per phase per profile event carrying the per-tick self wall time since
// the previous snapshot (cumulative counters are differenced per segment).
// Loadable alongside export_chrome_trace output in Perfetto.
void export_chrome_profile_counters(const TraceFile& file, std::ostream& out);

// ---- Field-level diff --------------------------------------------------

struct DiffOptions {
  // Keys compared by name; any key starting with "wall_" is also ignored by
  // default since wall-clock durations are nondeterministic run to run.
  std::vector<std::string> ignore_keys;
  bool ignore_wall_keys = true;
  std::size_t max_reports = 25;  // cap on human-readable difference lines
};

// What moved in one field over the changed pairs of one event type.
struct FieldChangeSummary {
  std::string key;
  std::size_t events = 0;  // changed pairs on which this field differs
  // Largest |a - b| / max(|a|, |b|) over the pairs where both sides hold a
  // number (infinite when one of them is NaN).
  double max_rel = 0.0;
  // Pairs where the field is a string that differs.
  std::size_t non_numeric = 0;
  // Pairs where the field is present on one side only.
  std::size_t only_a = 0, only_b = 0;
};

struct TypeDiffSummary {
  std::string type;
  std::size_t in_a = 0, in_b = 0;          // events of this type per side
  std::size_t only_a = 0, only_b = 0;      // unpaired events
  std::size_t changed = 0;                 // paired events that differ
  std::vector<FieldChangeSummary> fields;  // in order of first change
};

struct TraceDiff {
  // Changed pairs, events on one side only, and order changes.
  std::size_t differing_events = 0;
  // Places where B runs paired events in a different order than A: pairs
  // taken in A's order whose B index steps back.
  std::size_t reordered = 0;
  std::vector<std::string> reports;    // first max_reports differences
  std::vector<TypeDiffSummary> types;  // every type, in order of appearance
  [[nodiscard]] bool identical() const { return differing_events == 0; }
};

// Compares two event streams by pairing their events. Each stream is cut
// into runs of consecutive events with the same t; the k-th run at a given t
// in A pairs with the k-th run at that t in B (a stream may restart its
// clock). Within a run pair, the events of each type are aligned in order,
// choosing the alignment that pairs the most alike events (the fewest
// differing fields), so an event removed from the middle of a run is one
// "only in A" difference and does not shift its successors. A paired event
// differs when any non-ignored field does. seq is not compared, but the
// pairs' order is: events of two types that swap places are one order
// change (two events of one type that swap are two changed pairs, since
// each type aligns in order).
[[nodiscard]] TraceDiff diff_traces(const std::vector<TraceEvent>& a,
                                    const std::vector<TraceEvent>& b,
                                    const DiffOptions& options = {});

// One line per event type: its counts on each side, its unpaired events, and
// each changed field with its largest relative change, the pairs where it is
// a differing string ("not numeric") and the pairs where one side lacks it
// ("only in A|B"); a kind that covers only some of the field's pairs carries
// its count.
[[nodiscard]] std::string format_type_summary(const TypeDiffSummary& summary);

// ---- Chrome trace-event export ----------------------------------------

// Writes a Chrome trace-event JSON array (loadable in Perfetto or
// chrome://tracing): closed spans become "X" complete events, unclosed spans
// and plain events become "i" instants. Sim seconds map to microseconds.
void export_chrome_trace(const std::vector<TraceEvent>& events,
                         std::ostream& out);

}  // namespace wasp::obs
