// Offline trace analysis: JSONL parsing, span-forest reconstruction,
// validation, field-level diffing and the Chrome trace export -- the library
// behind the `wasp_trace` CLI and the CI trace checks.
#include "obs/trace_analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace wasp::obs {
namespace {

// Serializes emitter output the way FileSink would and loads it back.
TraceFile roundtrip(const MemorySink& sink) {
  std::stringstream buf;
  for (const TraceEvent& e : sink.events()) {
    buf << to_json_line(e) << '\n';
  }
  return load_trace(buf);
}

// ---------------------------------------------------------------------------
// parse_trace_line

TEST(ParseTraceLineTest, ReadsNumbersStringsBoolsAndNulls) {
  TraceEvent event;
  int schema = -1;
  std::string error;
  ASSERT_TRUE(parse_trace_line(
      R"({"schema":2,"seq":7,"t":1.5,"type":"x","a":3,"b":"s","c":true,"d":null})",
      &event, &schema, &error))
      << error;
  EXPECT_EQ(schema, 2);
  EXPECT_EQ(event.seq, 7u);
  EXPECT_DOUBLE_EQ(event.t, 1.5);
  EXPECT_EQ(event.type, "x");
  EXPECT_DOUBLE_EQ(event.num("a"), 3.0);
  EXPECT_EQ(event.str("b"), "s");
  EXPECT_EQ(event.str("c"), "true");  // bools -> string fields, like flag()
  EXPECT_TRUE(std::isnan(event.num("d", 0.0)));  // null numbers -> NaN
}

TEST(ParseTraceLineTest, RoundTripsToJsonLineOutput) {
  TraceEvent original;
  original.seq = 41;
  original.t = 2.25;
  original.type = "span_begin";
  original.nums.emplace_back("span_id", 9.0);
  original.strs.emplace_back("name", "with \"quotes\"\nand newline");

  TraceEvent parsed;
  int schema = 0;
  std::string error;
  ASSERT_TRUE(parse_trace_line(to_json_line(original), &parsed, &schema,
                               &error))
      << error;
  EXPECT_EQ(schema, kTraceSchemaVersion);
  EXPECT_EQ(parsed.seq, original.seq);
  EXPECT_DOUBLE_EQ(parsed.t, original.t);
  EXPECT_EQ(parsed.type, original.type);
  EXPECT_DOUBLE_EQ(parsed.num("span_id"), 9.0);
  EXPECT_EQ(parsed.str("name"), "with \"quotes\"\nand newline");
}

TEST(ParseTraceLineTest, RejectsMalformedLines) {
  TraceEvent event;
  int schema = 0;
  std::string error;
  EXPECT_FALSE(parse_trace_line("not json", &event, &schema, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_trace_line(R"({"type":"x")", &event, &schema, &error));
  EXPECT_FALSE(
      parse_trace_line(R"({"type":"x","a":})", &event, &schema, &error));
  EXPECT_FALSE(parse_trace_line(R"([1,2,3])", &event, &schema, &error));
}

TEST(LoadTraceTest, CollectsParseErrorsWithoutDroppingGoodLines) {
  std::stringstream in;
  in << R"({"schema":2,"seq":0,"t":0,"type":"a"})" << '\n'
     << "garbage line\n"
     << '\n'  // blank lines are skipped, not errors
     << R"({"schema":2,"seq":1,"t":1,"type":"b"})" << '\n';
  const TraceFile file = load_trace(in);
  EXPECT_EQ(file.lines, 3u);
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_EQ(file.events[0].type, "a");
  EXPECT_EQ(file.events[1].type, "b");
  ASSERT_EQ(file.errors.size(), 1u);
  EXPECT_NE(file.errors[0].find("line 2"), std::string::npos)
      << file.errors[0];
}

// ---------------------------------------------------------------------------
// SpanIndex

TEST(SpanIndexTest, BuildsForestAndToleratesNonLifoClose) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  std::uint64_t root = 0, first = 0, second = 0;
  emitter.set_now(1.0);
  { auto e = emitter.begin_span_event("adaptation", &root, kNoSpan); }
  {
    TraceEmitter::ParentScope in_root(&emitter, root);
    emitter.set_now(2.0);
    { auto e = emitter.begin_span_event("transfer", &first); }
    { auto e = emitter.begin_span_event("transfer", &second); }
    emitter.set_now(3.0);
    { auto e = emitter.end_span(first); }
  }
  // Root closes before its second child: legal, spans are not a stack.
  emitter.set_now(4.0);
  { auto e = emitter.end_span(root); }
  emitter.set_now(6.0);
  { auto e = emitter.end_span(second); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced());
  EXPECT_TRUE(index.errors.empty());
  ASSERT_EQ(index.nodes.size(), 3u);
  ASSERT_EQ(index.roots.size(), 1u);

  const SpanNode* root_node = index.find(root);
  ASSERT_NE(root_node, nullptr);
  EXPECT_EQ(root_node->name, "adaptation");
  EXPECT_EQ(root_node->parent, kNoSpan);
  EXPECT_EQ(root_node->children.size(), 2u);
  EXPECT_DOUBLE_EQ(root_node->duration(), 3.0);
  const SpanNode* child = index.find(second);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent, root);
  EXPECT_DOUBLE_EQ(child->end_t, 6.0);

  // Critical path from the root follows the child that ends last.
  const auto path = index.critical_path(index.roots[0]);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(index.nodes[path[1]].id, second);
}

TEST(SpanIndexTest, FlagsUnclosedAndOrphanEnds) {
  std::vector<TraceEvent> events;
  TraceEvent begin;
  begin.seq = 0;
  begin.type = "span_begin";
  begin.strs.emplace_back("name", "dangling");
  begin.nums.emplace_back("span_id", 5.0);
  begin.nums.emplace_back("parent_id", 0.0);
  events.push_back(begin);
  TraceEvent end;
  end.seq = 1;
  end.type = "span_end";
  end.nums.emplace_back("span_id", 99.0);  // never begun
  events.push_back(end);

  const SpanIndex index = SpanIndex::build(events);
  EXPECT_FALSE(index.balanced());
  EXPECT_EQ(index.unclosed, 1u);
  EXPECT_EQ(index.orphan_ends, 1u);
  EXPECT_FALSE(index.errors.empty());
}

TEST(SpanIndexTest, RejectsParentClosedBeforeChildBegins) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  const std::uint64_t parent = emitter.begin_span("p", kNoSpan);
  { auto e = emitter.end_span(parent); }
  // Explicit parent id pointing at an already-closed span.
  const std::uint64_t child = emitter.begin_span("c", parent);
  { auto e = emitter.end_span(child); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced());  // begin/end pairs still match up
  EXPECT_FALSE(index.errors.empty());  // but the nesting is flagged
}

// ---------------------------------------------------------------------------
// validate_trace

TEST(ValidateTraceTest, AcceptsEmitterOutput) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  std::uint64_t span = 0;
  { auto e = emitter.begin_span_event("adaptation", &span, kNoSpan); }
  emitter.event("migration_plan").num("moves", 2.0);
  emitter.end_span(span).str("status", "done");

  const TraceFile file = roundtrip(*sink);
  const ValidationReport report = validate_trace(file);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.events, 3u);
  EXPECT_EQ(report.spans, 1u);
  EXPECT_EQ(report.unclosed, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);
}

TEST(ValidateTraceTest, ReportsSeqRegressionsAndBadSchema) {
  std::stringstream in;
  in << R"({"schema":2,"seq":5,"t":0,"type":"a"})" << '\n'
     << R"({"schema":2,"seq":3,"t":1,"type":"b"})" << '\n'  // seq goes back
     << R"({"schema":9,"seq":6,"t":2,"type":"c"})" << '\n';  // unknown schema
  const ValidationReport report = validate_trace(load_trace(in));
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.errors.size(), 2u);
}

TEST(ValidateTraceTest, SeqRestartSplitsConcatenatedRunsIntoSegments) {
  // Bench drivers append several runs (one emitter each) to a single file:
  // seq and span ids restart at 0 at each boundary. That must parse as
  // separate segments, with span ids resolved per segment, not as errors.
  std::stringstream buf;
  for (int run = 0; run < 2; ++run) {
    auto sink = std::make_shared<MemorySink>();
    TraceEmitter emitter(sink);
    std::uint64_t root = 0;
    { auto e = emitter.begin_span_event("adaptation", &root, kNoSpan); }
    std::uint64_t child = 0;
    {
      TraceEmitter::ParentScope in_root(&emitter, root);
      auto e = emitter.begin_span_event("transfer", &child);
    }
    emitter.end_span(child).str("status", "done");
    emitter.end_span(root).str("status", "stabilized");
    for (const TraceEvent& e : sink->events()) {
      buf << to_json_line(e) << '\n';
    }
  }
  const TraceFile file = load_trace(buf);
  const ValidationReport report = validate_trace(file);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.segments, 2u);
  EXPECT_EQ(report.spans, 4u);
  EXPECT_EQ(report.unclosed, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);

  const SpanIndex index = SpanIndex::build(file.events);
  EXPECT_TRUE(index.balanced());
  EXPECT_EQ(index.segments, 2u);
  ASSERT_EQ(index.roots.size(), 2u);
  for (std::size_t root : index.roots) {
    EXPECT_EQ(index.nodes[root].name, "adaptation");
    ASSERT_EQ(index.nodes[root].children.size(), 1u);
    EXPECT_EQ(index.nodes[index.nodes[root].children[0]].name, "transfer");
  }
}

// ---------------------------------------------------------------------------
// diff_traces

std::vector<TraceEvent> simple_stream() {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 3; ++i) {
    TraceEvent e;
    e.seq = static_cast<std::uint64_t>(i);
    e.t = i * 1.0;
    e.type = "tick";
    e.nums.emplace_back("delay_sec", 0.25 * i);
    e.strs.emplace_back("phase", "steady");
    events.push_back(e);
  }
  return events;
}

TEST(DiffTracesTest, IdenticalStreamsAndWallClockExemption) {
  const auto a = simple_stream();
  auto b = simple_stream();
  EXPECT_TRUE(diff_traces(a, b).identical());

  // Wall-clock fields differ run to run; ignored by default.
  b[1].nums.emplace_back("wall_us", 1234.0);
  EXPECT_TRUE(diff_traces(a, b).identical());

  DiffOptions strict;
  strict.ignore_wall_keys = false;
  EXPECT_FALSE(diff_traces(a, b, strict).identical());
}

TEST(DiffTracesTest, ReportsFieldAndLengthDifferences) {
  const auto a = simple_stream();
  auto b = simple_stream();
  b[2].nums[0].second = 99.0;  // delay_sec differs
  TraceEvent extra;
  extra.seq = 3;
  extra.type = "tick";
  b.push_back(extra);

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.differing_events, 2u);
  ASSERT_FALSE(diff.reports.empty());
  EXPECT_NE(diff.reports[0].find("delay_sec"), std::string::npos)
      << diff.reports[0];

  // Ignoring the differing key leaves only the length mismatch.
  DiffOptions ignore;
  ignore.ignore_keys.push_back("delay_sec");
  EXPECT_EQ(diff_traces(a, b, ignore).differing_events, 1u);
}

// Ticks of one tick event and five link_alloc events each, one per link.
std::vector<TraceEvent> link_stream() {
  std::vector<TraceEvent> events;
  for (int t = 0; t < 4; ++t) {
    TraceEvent tick;
    tick.t = t;
    tick.type = "tick";
    tick.nums.emplace_back("delay_sec", 0.5 + t);
    events.push_back(tick);
    for (int link = 0; link < 5; ++link) {
      TraceEvent e;
      e.t = t;
      e.type = "link_alloc";
      e.nums.emplace_back("from_site", 0.0);
      e.nums.emplace_back("to_site", 1.0 + link);
      e.nums.emplace_back("stream_mbps", 10.0 * link + t);
      e.nums.emplace_back("num_flows", 2.0);
      events.push_back(e);
    }
  }
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;
  return events;
}

TEST(DiffTracesTest, RemovingOneEventIsOneDifference) {
  const auto a = link_stream();
  auto b = a;
  // A link_alloc from the middle of t=1: its successors must not shift.
  const auto removed = b.begin() + 9;
  ASSERT_EQ(removed->type, "link_alloc");
  ASSERT_EQ(removed->t, 1.0);
  b.erase(removed);
  for (std::size_t i = 0; i < b.size(); ++i) b[i].seq = i;

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_EQ(diff.differing_events, 1u);
  ASSERT_EQ(diff.reports.size(), 1u);
  EXPECT_NE(diff.reports[0].find("event 9 (t=1, type=link_alloc): only in A"),
            std::string::npos)
      << diff.reports[0];
  ASSERT_EQ(diff.types.size(), 2u);
  EXPECT_EQ(diff.types[0].type, "tick");
  EXPECT_EQ(diff.types[0].changed + diff.types[0].only_a +
                diff.types[0].only_b,
            0u);
  const TypeDiffSummary& links = diff.types[1];
  EXPECT_EQ(links.type, "link_alloc");
  EXPECT_EQ(links.in_a, 20u);
  EXPECT_EQ(links.in_b, 19u);
  EXPECT_EQ(links.only_a, 1u);
  EXPECT_EQ(links.only_b, 0u);
  EXPECT_EQ(links.changed, 0u);
  EXPECT_EQ(format_type_summary(links),
            "link_alloc: A 20, B 19; only in A 1, only in B 0; changed 0");
}

TEST(DiffTracesTest, EventsThatSwapPlacesWithinATickAreAnOrderChange) {
  const auto a = link_stream();
  auto b = a;
  // t=2's tick now runs after its first link_alloc; every event still pairs
  // with an identical one.
  ASSERT_EQ(b[12].type, "tick");
  ASSERT_EQ(b[13].type, "link_alloc");
  std::swap(b[12], b[13]);
  for (std::size_t i = 0; i < b.size(); ++i) b[i].seq = i;

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_FALSE(diff.identical());
  EXPECT_EQ(diff.reordered, 1u);
  EXPECT_EQ(diff.differing_events, 1u);
  ASSERT_EQ(diff.reports.size(), 1u);
  EXPECT_NE(diff.reports[0].find("event 13 (t=2, type=link_alloc): order "
                                 "differs (in B it runs before the pair of "
                                 "event 12)"),
            std::string::npos)
      << diff.reports[0];
  for (const TypeDiffSummary& type : diff.types) {
    EXPECT_EQ(type.changed + type.only_a + type.only_b, 0u) << type.type;
  }
}

TEST(DiffTracesTest, SummarizesEachChangedFieldByItsLargestRelativeChange) {
  const auto a = link_stream();
  auto b = a;
  // Every link_alloc at t=2 loses a flow, and one link loses its event.
  b.erase(std::remove_if(b.begin(), b.end(),
                         [](const TraceEvent& e) {
                           return e.t == 2.0 && e.type == "link_alloc" &&
                                  e.num("to_site") == 3.0;
                         }),
          b.end());
  for (TraceEvent& e : b) {
    if (e.t == 2.0 && e.type == "link_alloc") e.nums[3].second = 1.0;
  }
  b[0].nums[0].second = 0.4;  // tick delay 0.5 -> 0.4 at t=0

  const TraceDiff diff = diff_traces(a, b);
  EXPECT_EQ(diff.differing_events, 6u);  // 4 changed links, 1 gone, 1 tick
  ASSERT_EQ(diff.types.size(), 2u);
  EXPECT_EQ(format_type_summary(diff.types[0]),
            "tick: A 4, B 4; only in A 0, only in B 0; changed 1: "
            "delay_sec (1, max rel 0.2)");
  EXPECT_EQ(format_type_summary(diff.types[1]),
            "link_alloc: A 20, B 19; only in A 1, only in B 0; changed 4: "
            "num_flows (4, max rel 0.5)");

  // --ignore drops the field from the pairing and from the summary.
  DiffOptions ignore;
  ignore.ignore_keys.push_back("num_flows");
  const TraceDiff ignored = diff_traces(a, b, ignore);
  EXPECT_EQ(ignored.differing_events, 2u);
  EXPECT_EQ(ignored.types[1].changed, 0u);
  EXPECT_EQ(ignored.types[1].only_a, 1u);
}

// ---------------------------------------------------------------------------
// export_chrome_trace

TEST(ChromeExportTest, EmitsCompleteEventsForClosedSpans) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  emitter.set_now(1.0);
  std::uint64_t span = 0;
  { auto e = emitter.begin_span_event("adaptation", &span, kNoSpan); }
  emitter.event("migration_plan").num("moves", 1.0);
  emitter.set_now(3.5);
  { auto e = emitter.end_span(span); }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  std::stringstream out;
  export_chrome_trace(events, out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"adaptation\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  // Sim seconds map to trace microseconds: 2.5 s duration -> 2500000 us.
  EXPECT_NE(json.find("2500000"), std::string::npos) << json;
}

TEST(ChromeExportTest, InvalidUtf8BecomesReplacementCharacter) {
  // The export shares to_json_line's string writer, so a stray byte that is
  // not UTF-8 becomes U+FFFD instead of making the file invalid JSON text.
  TraceEvent event;
  event.type = "recovery";
  event.strs.emplace_back("detail", "bad \xff byte");
  std::stringstream out;
  export_chrome_trace({event}, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"detail\":\"bad \xEF\xBF\xBD byte\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find('\xff'), std::string::npos) << json;
}

}  // namespace
}  // namespace wasp::obs
