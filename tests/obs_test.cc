// Observability layer: metrics registry semantics, trace emitter/sink
// behaviour and JSON encoding, and end-to-end checks that the trace
// stream's adaptation and recovery events mirror the experiment recorder
// one-to-one.
#include "obs/metrics_registry.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/trace_analysis.h"
#include "runtime/run_spec.h"
#include "runtime/wasp_system.h"
#include "workload/patterns.h"
#include "workload/queries.h"

namespace wasp::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  Counter& ticks = registry.counter("engine.ticks");
  Gauge& delay = registry.gauge("engine.delay_sec");

  ticks.inc();
  ticks.inc(4.0);
  delay.set(2.5);
  delay.set(0.75);

  EXPECT_DOUBLE_EQ(registry.counter("engine.ticks").value(), 5.0);
  EXPECT_DOUBLE_EQ(registry.gauge("engine.delay_sec").value(), 0.75);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossLaterRegistrations) {
  MetricsRegistry registry;
  Counter& first = registry.counter("a.first");
  // Register enough further metrics that any container reallocation would
  // move non-node-stable storage.
  for (int i = 0; i < 100; ++i) {
    registry.counter("c.metric_" + std::to_string(i)).inc();
  }
  first.inc(7.0);
  EXPECT_DOUBLE_EQ(registry.counter("a.first").value(), 7.0);
  EXPECT_EQ(&first, &registry.counter("a.first"));
}

TEST(MetricsRegistryTest, FindReturnsNullForUnknownNames) {
  MetricsRegistry registry;
  registry.counter("known.counter");
  EXPECT_NE(registry.find_counter("known.counter"), nullptr);
  EXPECT_EQ(registry.find_counter("unknown"), nullptr);
  EXPECT_EQ(registry.find_histogram("known.counter"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndCoversAllKinds) {
  MetricsRegistry registry;
  registry.gauge("z.gauge").set(3.0);
  registry.counter("a.counter").inc(2.0);
  registry.histogram("m.hist").add(1.0, 10.0);

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a.counter");
  EXPECT_DOUBLE_EQ(snap[0].second, 2.0);
  EXPECT_EQ(snap[1].first, "m.hist.count");
  EXPECT_DOUBLE_EQ(snap[1].second, 10.0);  // the weighted sample count
  EXPECT_EQ(snap[2].first, "z.gauge");
  EXPECT_DOUBLE_EQ(snap[2].second, 3.0);
}

// ---------------------------------------------------------------------------
// TraceEmitter + sinks

TEST(TraceEmitterTest, DisabledEmitterIsANoOp) {
  TraceEmitter emitter;  // no sink
  EXPECT_FALSE(emitter.enabled());
  emitter.event("tick").num("x", 1.0).str("s", "v");
  EXPECT_EQ(emitter.emitted(), 0u);
  emitter.flush();  // must not crash
}

TEST(TraceEmitterTest, EventsCarryFieldsTimestampAndMonotoneSeq) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  ASSERT_TRUE(emitter.enabled());

  emitter.set_now(12.5);
  emitter.event("tick").num("delay_sec", 0.25).str("phase", "steady");
  emitter.event_at(99.0, "checkpoint").num("state_mb", 42.0);

  ASSERT_EQ(sink->events().size(), 2u);
  const TraceEvent& first = sink->events()[0];
  EXPECT_EQ(first.type, "tick");
  EXPECT_DOUBLE_EQ(first.t, 12.5);
  EXPECT_DOUBLE_EQ(first.num("delay_sec"), 0.25);
  EXPECT_EQ(first.str("phase"), "steady");
  EXPECT_DOUBLE_EQ(first.num("missing", -1.0), -1.0);
  EXPECT_EQ(first.str("missing", "fallback"), "fallback");

  const TraceEvent& second = sink->events()[1];
  EXPECT_DOUBLE_EQ(second.t, 99.0);
  EXPECT_GT(second.seq, first.seq);
  EXPECT_EQ(emitter.emitted(), 2u);
}

TEST(TraceEmitterTest, MemorySinkDropsOldestWhenFull) {
  auto sink = std::make_shared<MemorySink>(/*capacity=*/3);
  TraceEmitter emitter(sink);
  for (int i = 0; i < 5; ++i) {
    emitter.event("e").num("i", static_cast<double>(i));
  }
  EXPECT_EQ(sink->events().size(), 3u);
  EXPECT_EQ(sink->dropped(), 2u);
  EXPECT_DOUBLE_EQ(sink->events().front().num("i"), 2.0);
  EXPECT_DOUBLE_EQ(sink->events().back().num("i"), 4.0);
  EXPECT_EQ(sink->of_type("e").size(), 3u);
  EXPECT_TRUE(sink->of_type("absent").empty());
}

TEST(TraceEmitterTest, OfTypeResultsSurviveEviction) {
  // Regression: of_type used to return pointers into the evicting deque;
  // filling the ring after the call left them dangling. Copies must stay
  // valid no matter how much is written afterwards.
  auto sink = std::make_shared<MemorySink>(/*capacity=*/4);
  TraceEmitter emitter(sink);
  emitter.event("keep").num("i", 1.0);
  const auto kept = sink->of_type("keep");
  ASSERT_EQ(kept.size(), 1u);
  for (int i = 0; i < 64; ++i) {
    emitter.event("churn").num("i", static_cast<double>(i));
  }
  EXPECT_TRUE(sink->of_type("keep").empty());  // evicted from the ring...
  EXPECT_EQ(kept[0].type, "keep");             // ...but the copy is intact
  EXPECT_DOUBLE_EQ(kept[0].num("i"), 1.0);
}

TEST(TraceEmitterTest, NestedBuildersKeepTheirOwnFieldsAndCommitOrder) {
  auto sink = std::make_shared<MemorySink>();
  TraceEmitter emitter(sink);
  emitter.set_now(2.0);
  {
    auto outer = emitter.event("outer");
    outer.num("a", 1.0).str("who", "outer");
    {
      auto inner = emitter.event_at(3.0, "inner");
      inner.num("b", 2.0).str("who", "inner");
      outer.num("c", 3.0);
    }  // inner commits first
    outer.str("late", "yes");
  }
  // Recycled events come back empty.
  emitter.event("third").num("d", 4.0);
  { auto fourth = emitter.event("fourth"); }

  ASSERT_EQ(sink->events().size(), 4u);
  EXPECT_EQ(to_json_line(sink->events()[0]),
            R"({"schema":2,"seq":0,"t":3,"type":"inner","who":"inner",)"
            R"("b":2})");
  EXPECT_EQ(to_json_line(sink->events()[1]),
            R"({"schema":2,"seq":1,"t":2,"type":"outer","who":"outer",)"
            R"("late":"yes","a":1,"c":3})");
  EXPECT_EQ(to_json_line(sink->events()[2]),
            R"({"schema":2,"seq":2,"t":2,"type":"third","d":4})");
  EXPECT_EQ(to_json_line(sink->events()[3]),
            R"({"schema":2,"seq":3,"t":2,"type":"fourth"})");
}

TEST(TraceJsonTest, LineHasSchemaOrderingAndEscaping) {
  TraceEvent event;
  event.seq = 7;
  event.t = 1.5;
  event.type = "policy_action";
  event.strs.emplace_back("reason", "line1\nquote\"back\\slash");
  event.nums.emplace_back("op", 3.0);

  const std::string line = to_json_line(event);
  EXPECT_EQ(line.rfind("{\"schema\":2,\"seq\":7,\"t\":1.5,"
                       "\"type\":\"policy_action\"",
                       0),
            0u)
      << line;
  EXPECT_NE(line.find("\"reason\":\"line1\\nquote\\\"back\\\\slash\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"op\":3"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);  // JSONL: one line per event
}

TEST(TraceJsonTest, Rfc8259EscapingCoversControlCharsAndBadUtf8) {
  TraceEvent event;
  event.type = "x";
  event.strs.emplace_back("ctl", std::string("a\x01" "b\x1f" "\t"));
  event.strs.emplace_back("utf8", "caf\xC3\xA9 \xE2\x82\xAC");  // café €
  event.strs.emplace_back("bad", "a\xFFz\xC3");      // stray byte + truncated
  event.strs.emplace_back("overlong", "\xC0\xAF");   // overlong '/'
  event.strs.emplace_back("surrogate", "\xED\xA0\x80");  // UTF-16 surrogate

  const std::string line = to_json_line(event);
  EXPECT_NE(line.find("\"ctl\":\"a\\u0001b\\u001f\\t\""), std::string::npos)
      << line;
  // Valid multi-byte sequences pass through verbatim.
  EXPECT_NE(line.find("caf\xC3\xA9 \xE2\x82\xAC"), std::string::npos) << line;
  // Every invalid byte becomes U+FFFD, so the line stays parseable UTF-8.
  EXPECT_NE(line.find("\"bad\":\"a\xEF\xBF\xBDz\xEF\xBF\xBD\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"overlong\":\"\xEF\xBF\xBD\xEF\xBF\xBD\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"surrogate\":\"\xEF\xBF\xBD\xEF\xBF\xBD\xEF\xBF\xBD\""),
            std::string::npos)
      << line;

  // Each byte that needs work, at every offset 0-16 of a 21-byte key (and
  // of the string value beside it): every position in the plain-run scan's
  // first two 8-byte blocks and the first byte of the third.
  struct Special {
    std::string raw;
    std::string escaped;
  };
  const std::vector<Special> specials = {
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\x01", "\\u0001"},
      {"\xC3\xA9", "\xC3\xA9"},  // a UTF-8 lead byte that starts é
      {"\xC3", "\xEF\xBF\xBD"}};  // the same lead byte alone
  for (const Special& special : specials) {
    for (std::size_t offset = 0; offset <= 16; ++offset) {
      const std::string head(offset, 'k');
      const std::string tail(20 - offset, 'v');
      const std::string key = head + special.raw + tail;
      const std::string want = head + special.escaped + tail;
      TraceEvent keyed;
      keyed.type = "x";
      keyed.strs.emplace_back(key, key);
      keyed.nums.emplace_back(key, 1.0);
      EXPECT_EQ(to_json_line(keyed),
                R"({"schema":2,"seq":0,"t":0,"type":"x",")" + want +
                    R"(":")" + want + R"(",")" + want + R"(":1})")
          << "offset " << offset;
    }
  }
}

TEST(TraceJsonTest, NonFiniteNumbersSerializeAsNull) {
  TraceEvent event;
  event.type = "tick";
  event.nums.emplace_back("nan", std::numeric_limits<double>::quiet_NaN());
  event.nums.emplace_back("inf", std::numeric_limits<double>::infinity());
  const std::string line = to_json_line(event);
  EXPECT_NE(line.find("\"nan\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"inf\":null"), std::string::npos) << line;
}

TEST(TraceJsonTest, MetricsMembersKeepTwelveDigitsAndEscapeNames) {
  // The --metrics writers' form of a snapshot: a count past six digits
  // stays whole, a sum prints at 12 significant digits, NaN is null, and a
  // name holding a quote is escaped.
  const std::vector<std::pair<std::string, double>> members = {
      {"runtime.generated_events", 89310612.0},
      {"sum", 0.1 + 0.2},
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"a\"b", 1.0}};
  std::string out;
  append_json_members(out, members, ",");
  EXPECT_EQ(out,
            R"("runtime.generated_events":89310612,"sum":0.3,"nan":null,)"
            R"("a\"b":1)");
}

// printf's %.12g, the bytes the encoder has always written for a number.
std::string printf_g12(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

// Fixed cases around the encoder's two paths and printf's own switch
// points: signed zeros, the integer bound at 1e12, the fixed/exponent
// switches at 1e-4 and 1e12 (and values that round up to them), every power
// of ten from 1e-12 to 1e16 with both neighbours, integers near 2^53 and
// 2^63, subnormals and the extremes.
std::vector<double> number_edge_cases() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cases = {
      0.0, 1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.99999999999999,
      1e12 - 1.0, 1e12 - 0.5, 1e12 + 1.0, 999999999999.4, 999999999999.5,
      999999999999.95, 1e13, 123456789012.4, 0.0001, 0.000099999999999995,
      0.0000999999999999949, 9007199254740992.0, 9007199254740993.0,
      9223372036854775807.0, 18446744073709551616.0, DBL_MAX, DBL_MIN,
      std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
      DBL_EPSILON};
  for (int e = -12; e <= 16; ++e) {
    const std::string text = "1e" + std::to_string(e);
    const double p = std::strtod(text.c_str(), nullptr);  // exact rounding
    cases.insert(cases.end(), {std::nextafter(p, 0.0), p,
                               std::nextafter(p, kInf)});
  }
  const std::size_t n = cases.size();
  for (std::size_t i = 0; i < n; ++i) cases.push_back(-cases[i]);
  return cases;
}

// The cases the exact integer kernel (finite non-integers with 1e-11 <=
// |v| < 1e12) could get wrong, each with its negation:
//   - exact ties at the 12th digit, which printf rounds to even: n + 0.5
//     for 12-digit n, the same values scaled by 2^-k, and j * 2^(x-12)
//     for odd j in decade x (the form every tie below 1e11 takes);
//   - +-3 ulps around a 12-digit rounding boundary at every decimal
//     exponent from -11 to 11;
//   - values that round up into the next decade (9.999999999995e x);
//   - both range edges, 1e-11 and 1e12, with three neighbours each way.
std::vector<double> kernel_hard_cases() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cases;
  const auto with_ulps = [&cases](double v) {
    double below = v, above = v;
    cases.push_back(v);
    for (int k = 0; k < 3; ++k) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
      cases.push_back(below);
      cases.push_back(above);
    }
  };
  const auto decimal = [](const std::string& text) {
    return std::strtod(text.c_str(), nullptr);  // correctly rounded
  };
  std::mt19937_64 rng(0x71E5);
  std::vector<std::uint64_t> twelve_digit = {100'000'000'000,
                                             100'000'000'001,
                                             999'999'999'998,
                                             999'999'999'999};
  for (int i = 0; i < 60; ++i) {
    twelve_digit.push_back(100'000'000'000 + rng() % 900'000'000'000);
  }
  for (std::uint64_t n : twelve_digit) {
    const double tie = static_cast<double>(n) + 0.5;  // exact below 2^52
    for (int k = 0; k <= 80; ++k) cases.push_back(std::ldexp(tie, -k));
  }
  for (int x = -6; x <= 10; ++x) {
    // Odd j with j * 2^(x-12) in [10^x, 10^(x+1)): the first, the last
    // and some between.
    const double lo = std::ceil(std::ldexp(decimal("1e" + std::to_string(x)),
                                           12 - x));
    const double hi = std::floor(
        std::ldexp(decimal("1e" + std::to_string(x + 1)), 12 - x));
    const auto first = static_cast<std::uint64_t>(lo) | 1;
    const auto last = (static_cast<std::uint64_t>(hi) - 1) | 1;
    std::vector<std::uint64_t> odd = {first, last};
    for (int i = 0; i < 20 && last > first; ++i) {
      odd.push_back((first + rng() % (last - first)) | 1);
    }
    for (std::uint64_t j : odd) {
      cases.push_back(std::ldexp(static_cast<double>(j), x - 12));
    }
  }
  for (int x = -11; x <= 11; ++x) {
    for (int i = 0; i < 8; ++i) {
      // Halfway between the 12-digit neighbours n and n + 1 at exponent x.
      const std::uint64_t n =
          i == 0 ? 999'999'999'999 : 100'000'000'000 + rng() % 900'000'000'000;
      with_ulps(decimal(std::to_string(n) + "5e" + std::to_string(x - 12)));
    }
    with_ulps(decimal("9.999999999995e" + std::to_string(x)));
    with_ulps(decimal("9.9999999999999e" + std::to_string(x)));
  }
  with_ulps(1e-11);
  with_ulps(1e12);
  const std::size_t n = cases.size();
  for (std::size_t i = 0; i < n; ++i) cases.push_back(-cases[i]);
  return cases;
}

// Seeded doubles: raw bit patterns over the whole exponent range (NaNs,
// infinities and subnormals included), integers of every magnitude up to
// 2^63 of both signs, short decimals like the trace's rates and seconds,
// and values within a million of the integer bound.
std::vector<double> seeded_doubles(std::size_t count) {
  std::mt19937_64 rng(0x5EED7919);
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t bits = rng();
    const std::uint64_t pick = rng();
    double v = 0.0;
    switch (i % 4) {
      case 0:
        std::memcpy(&v, &bits, sizeof(v));
        break;
      case 1:
        v = static_cast<double>(static_cast<std::int64_t>(bits) >>
                                (pick % 64));
        break;
      case 2: {
        const auto mantissa =
            static_cast<std::int64_t>(bits % 2'000'000'001) - 1'000'000'000;
        v = static_cast<double>(mantissa) /
            std::pow(10.0, static_cast<double>(pick % 16));
        break;
      }
      default:
        v = 1e12 * ((pick & 1) != 0 ? 1.0 : -1.0) +
            static_cast<double>(static_cast<std::int64_t>(bits % 4'000'001) -
                                2'000'000) /
                2.0;
    }
    out.push_back(v);
  }
  return out;
}

TEST(TraceJsonTest, NumbersAreThePrintfPrecision12Bytes) {
  std::vector<double> values = number_edge_cases();
  const std::vector<double> hard = kernel_hard_cases();
  values.insert(values.end(), hard.begin(), hard.end());
  const std::vector<double> seeded = seeded_doubles(1'000'000);
  values.insert(values.end(), seeded.begin(), seeded.end());

  TraceEvent event;
  event.type = "n";
  event.nums.emplace_back("v", 0.0);
  const std::string prefix = R"({"schema":2,"seq":0,"t":0,"type":"n","v":)";
  std::size_t integers = 0, fractions = 0, non_finite = 0, mismatches = 0;
  std::string first_mismatch;
  for (double v : values) {
    event.nums[0].second = v;
    const std::string line = to_json_line(event);
    const std::string want = prefix + printf_g12(v) + "}";
    if (line != want && mismatches++ == 0) {
      char bits[40];
      std::snprintf(bits, sizeof(bits), "%a", v);
      first_mismatch = std::string(bits) + ": " + line + " vs " + want;
    }
    if (!std::isfinite(v)) {
      ++non_finite;
    } else if (v == std::trunc(v)) {
      ++integers;
    } else {
      ++fractions;
    }
  }
  EXPECT_EQ(mismatches, 0u) << first_mismatch;
  // Each path and the null case saw a real share of the inputs.
  EXPECT_GT(integers, 300'000u);
  EXPECT_GT(fractions, 300'000u);
  EXPECT_GT(non_finite, 100u);

  event.nums[0].second = std::numeric_limits<double>::quiet_NaN();
  event.nums.emplace_back("inf", std::numeric_limits<double>::infinity());
  event.nums.emplace_back("ninf", -std::numeric_limits<double>::infinity());
  EXPECT_EQ(to_json_line(event),
            prefix + R"(null,"inf":null,"ninf":null})");
}

// ---------------------------------------------------------------------------
// FileSink shared across threads

TEST(FileSinkTest, FourThreadsSharingOneSinkWriteWholeLinesInSeqOrder) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEvents = 10'000;
  const std::string path = testing::TempDir() + "obs_test_shared_sink.jsonl";
  {
    auto sink = std::make_shared<FileSink>(path);
    ASSERT_TRUE(sink->ok());
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([sink, w] {
        TraceEmitter emitter(sink);
        for (std::uint64_t i = 0; i < kEvents; ++i) {
          // Lines of varying length, some needing escapes, so each thread's
          // reused buffer grows and shrinks while the others write.
          emitter.event_at(0.25 * static_cast<double>(i), "tick")
              .str("pad", std::string(i % 97, 'x'))
              .str("note", i % 10 == 0 ? "quote \" and \xff" : "plain")
              .num("emitter", w)
              .num("i", static_cast<double>(i));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    sink->flush();
  }

  std::ifstream in(path);
  std::vector<std::uint64_t> next_seq(kThreads, 0);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    TraceEvent event;
    std::string error;
    ASSERT_TRUE(parse_trace_line(line, &event, nullptr, &error))
        << "line " << lines << ": " << error << ": " << line;
    const auto w = static_cast<std::size_t>(event.num("emitter", -1.0));
    ASSERT_LT(w, next_seq.size()) << line;
    ASSERT_EQ(event.seq, next_seq[w]) << "emitter " << w << ": " << line;
    ASSERT_EQ(event.num("i"), static_cast<double>(event.seq)) << line;
    ++next_seq[w];
  }
  EXPECT_EQ(lines, kThreads * kEvents);
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(next_seq[w], kEvents);
  std::remove(path.c_str());
}

// The same event committed through a memo and without one writes the same
// bytes. Four threads, each with its own emitter and memos, share the sink;
// each emits every entity's event through its memo and then plainly, and
// most rounds repeat the entity's previous fields.
TEST(FileSinkTest, FourThreadsWithMemosSharingOneSinkWriteThePlainBytes) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRounds = 1'000;
  constexpr std::size_t kEntities = 8;
  const std::string path = testing::TempDir() + "obs_test_memo_sink.jsonl";
  {
    auto sink = std::make_shared<FileSink>(path);
    ASSERT_TRUE(sink->ok());
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([sink, w] {
        TraceEmitter emitter(sink);
        std::vector<TraceMemo> memos(kEntities);
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          for (std::size_t e = 0; e < kEntities; ++e) {
            const double load =
                static_cast<double>((r / 7) % 5) + 0.25 * static_cast<double>(e);
            for (TraceMemo* memo : {&memos[e], static_cast<TraceMemo*>(nullptr)}) {
              emitter.event_at(0.5 * static_cast<double>(r), "channel_tick", memo)
                  .str("name", e % 3 == 0 ? "quote \" and \xff" : "plain")
                  .num("emitter", w)
                  .num("entity", static_cast<double>(e))
                  .num("load", load)
                  .num("input_queue_events", r % 11 == 0 ? -0.0 : 0.0);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    sink->flush();
  }

  std::ifstream in(path);
  std::vector<std::vector<std::string>> by_emitter(kThreads);
  std::string line;
  while (std::getline(in, line)) {
    TraceEvent event;
    std::string error;
    ASSERT_TRUE(parse_trace_line(line, &event, nullptr, &error))
        << error << ": " << line;
    const auto w = static_cast<std::size_t>(event.num("emitter", -1.0));
    ASSERT_LT(w, by_emitter.size()) << line;
    ASSERT_EQ(event.seq, by_emitter[w].size()) << "emitter " << w << ": " << line;
    by_emitter[w].push_back(line);
  }
  for (const std::vector<std::string>& lines : by_emitter) {
    ASSERT_EQ(lines.size(), 2 * kRounds * kEntities);
    for (std::size_t i = 0; i < lines.size(); i += 2) {
      // Past the seq, the memoed line and the plain one are the same bytes.
      const std::string_view memoed(lines[i]), plain(lines[i + 1]);
      ASSERT_EQ(memoed.substr(memoed.find(",\"t\":")),
                plain.substr(plain.find(",\"t\":")))
          << "line " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(FileSinkTest, AFullDiskShowsAtTheFlush) {
  // /dev/full opens like any file but fails every write with ENOSPC; the
  // sink buffers the line, so only the flush finds out.
  auto sink = std::make_shared<FileSink>("/dev/full");
  ASSERT_TRUE(sink->ok());
  TraceEmitter emitter(sink);
  static_cast<void>(emitter.event("tick"));  // commits at once
  EXPECT_TRUE(sink->ok());
  sink->flush();
  EXPECT_FALSE(sink->ok());
}

// ---------------------------------------------------------------------------
// TraceMemo: a commit whose fields repeat the memo's reuses their bytes.

// Commits `fields` (its type, t, strings and numbers) through `memo`, or
// with the plain encode when `memo` is null.
void commit(TraceEmitter& emitter, const TraceEvent& fields, TraceMemo* memo) {
  auto event = emitter.event_at(fields.t, fields.type, memo);
  for (const auto& [key, value] : fields.strs) event.str(key, value);
  for (const auto& [key, value] : fields.nums) event.num(key, value);
}

// Writes each (event, memo) through one FileSink and checks every line
// against to_json_line, the encoder of parsed events, for the same event.
void expect_lines_as_encoded(
    const std::vector<std::pair<TraceEvent, TraceMemo*>>& commits,
    const std::string& name) {
  const std::string path = testing::TempDir() + name + ".jsonl";
  {
    auto sink = std::make_shared<FileSink>(path);
    ASSERT_TRUE(sink->ok());
    TraceEmitter emitter(sink);
    for (const auto& [fields, memo] : commits) commit(emitter, fields, memo);
    sink->flush();
  }
  std::ifstream in(path);
  std::string line;
  std::size_t i = 0;
  for (; std::getline(in, line); ++i) {
    ASSERT_LT(i, commits.size());
    TraceEvent want = commits[i].first;
    want.seq = i;
    EXPECT_EQ(line, to_json_line(want)) << name << ": commit " << i;
  }
  EXPECT_EQ(i, commits.size()) << name;
  std::remove(path.c_str());
}

TraceEvent fields_of(std::string type,
                     std::vector<std::pair<std::string, double>> nums,
                     std::vector<std::pair<std::string, std::string>> strs = {}) {
  TraceEvent event;
  event.t = 1.5;
  event.type = std::move(type);
  event.nums = std::move(nums);
  event.strs = std::move(strs);
  return event;
}

TEST(TraceMemoTest, AMemoHitWritesTheBytesOfAFreshEncode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<TraceEvent> cases = {
      fields_of("tick", {{"nan", nan}, {"inf", inf}, {"ninf", -inf}}),
      fields_of("tick", {{"neg_zero", -0.0},
                         {"zero", 0.0},
                         {"subnormal", std::numeric_limits<double>::denorm_min()},
                         {"big", 1e12},
                         {"tenth", 0.1}}),
      fields_of("op_tick", {{"input_queue_events", 7.0},
                            {"processing_ratio", 0.999}},
                {{"long", std::string(100, 'x')},
                 {"escapes", "quote \" back \\ nl \n tab \t ctl \x01"},
                 {"bad_utf8", "\xff\xfe ok \xc3\xa9"}}),
      // Too large for a memo's fixed capacity: the plain encode each time.
      fields_of("big", {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"d", 4.0},
                        {"e", 5.0}, {"f", 6.0}, {"g", 7.0}, {"h", 8.0},
                        {"i", 9.0}},
                {{"s", std::string(400, 'y')}}),
  };
  TraceMemo memo;
  std::vector<std::pair<TraceEvent, TraceMemo*>> commits;
  for (const TraceEvent& fields : cases) {
    // A miss, two hits, and the same event without the memo.
    commits.emplace_back(fields, &memo);
    commits.emplace_back(fields, &memo);
    commits.emplace_back(fields, &memo);
    commits.emplace_back(fields, nullptr);
  }
  expect_lines_as_encoded(commits, "memo_hits");
}

TEST(TraceMemoTest, ARunTimeKeyIsCopiedIntoTheEvent) {
  // The engine's placement event builds its tasks_at_site_<n> keys at run
  // time; the builder must hold their bytes, not a view of the caller's.
  const std::string path = testing::TempDir() + "memo_run_time_key.jsonl";
  {
    auto sink = std::make_shared<FileSink>(path);
    TraceEmitter emitter(sink);
    TraceMemo memo;
    for (int round = 0; round < 2; ++round) {  // a miss, then a hit
      std::string key = "tasks_at_site_" + std::to_string(12);
      auto event = emitter.event_at(2.0, "placement", &memo);
      event.num(key, 3.0);
      key.assign("overwritten_after_use");
    }
  }
  std::ifstream in(path);
  std::string line;
  for (int seq = 0; seq < 2; ++seq) {
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, R"({"schema":2,"seq":)" + std::to_string(seq) +
                        R"(,"t":2,"type":"placement","tasks_at_site_12":3})");
  }
  std::remove(path.c_str());
}

TEST(TraceMemoTest, AChangeToAnyOneFieldReencodes) {
  const TraceEvent base = fields_of(
      "channel_tick", {{"a", 2.0}, {"b", 0.0}, {"c", 3.0}}, {{"s", "abc"}});
  TraceEvent sign = base;  // one value bit: the sign
  sign.nums[0].second = -2.0;
  TraceEvent neg_zero = base;
  neg_zero.nums[1].second = -0.0;
  TraceEvent last_bit = base;  // prints as 3 too, but is not 3
  last_bit.nums[2].second = std::nextafter(3.0, 4.0);
  TraceEvent key = base;  // a key of the same length
  key.nums[0].first = "x";
  TraceEvent str = base;  // a string of the same length
  str.strs[0].second = "abd";
  TraceMemo memo;
  std::vector<std::pair<TraceEvent, TraceMemo*>> commits;
  for (const TraceEvent& changed : {sign, neg_zero, last_bit, key, str}) {
    commits.emplace_back(base, &memo);
    commits.emplace_back(base, &memo);
    commits.emplace_back(changed, &memo);
    commits.emplace_back(changed, &memo);
  }
  commits.emplace_back(base, &memo);
  expect_lines_as_encoded(commits, "memo_changes");
}

TEST(TraceMemoTest, AMemoReusedByAnotherEntityNeverWritesItsOldBytes) {
  // A rebuild hands channel x's memo to channel y and grows the memo table,
  // which moves every memo.
  const TraceEvent x = fields_of(
      "channel_tick", {{"from_site", 1.0}, {"to_site", 2.0}, {"queue", 5.0}});
  const TraceEvent y = fields_of(
      "channel_tick", {{"from_site", 3.0}, {"to_site", 4.0}, {"queue", 5.0}});
  std::vector<TraceMemo> memos(2);
  std::vector<std::pair<TraceEvent, TraceMemo*>> commits = {
      {x, &memos[0]}, {y, &memos[1]}, {x, &memos[0]}, {y, &memos[1]},
      {y, &memos[0]}, {x, &memos[1]}, {y, &memos[0]}, {x, &memos[1]}};
  expect_lines_as_encoded(commits, "memo_reuse");
  memos.resize(64);
  expect_lines_as_encoded({{x, &memos[1]}, {y, &memos[0]}, {x, &memos[0]}},
                          "memo_reuse_moved");
}

// ---------------------------------------------------------------------------
// End-to-end: the trace stream mirrors the recorder's adaptation log.

struct Testbed {
  explicit Testbed(std::uint64_t seed = 7)
      : rng(seed),
        topology(net::Topology::make_paper_testbed(rng)),
        network(topology, std::make_shared<net::ConstantBandwidth>()) {
    for (const auto& site : topology.sites()) {
      if (site.type == net::SiteType::kEdge) {
        (east.size() <= west.size() ? east : west).push_back(site.id);
      } else if (!sink.valid()) {
        sink = site.id;
      }
    }
  }

  Rng rng;
  net::Topology topology;
  net::Network network;
  std::vector<SiteId> east, west;
  SiteId sink;
};

TEST(TraceIntegrationTest, AdaptationEventsMatchRecorderOneToOne) {
  Testbed bed;
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);

  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  pattern.add_step(100.0, 2.0);  // overload: force the policy to act

  auto sink = std::make_shared<MemorySink>(1 << 20);
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.trace_sink = sink;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(600.0);

  const auto& recorded = system.recorder().events();
  ASSERT_FALSE(recorded.empty()) << "scenario must trigger adaptations";

  const auto traced = sink->of_type("adaptation");
  ASSERT_EQ(traced.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(traced[i].str("kind"), recorded[i].kind) << "event " << i;
    EXPECT_DOUBLE_EQ(traced[i].num("op"),
                     static_cast<double>(recorded[i].op))
        << "event " << i;
    EXPECT_DOUBLE_EQ(traced[i].t, recorded[i].decided_at) << "event " << i;
    EXPECT_EQ(traced[i].str("reason"), recorded[i].reason) << "event " << i;
  }

  // The stream as a whole: seq strictly increasing, timestamps monotone
  // non-decreasing (modulo ring-buffer truncation, excluded by the size).
  EXPECT_EQ(sink->dropped(), 0u);
  const auto& all = sink->events();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].seq, all[i].seq);
    EXPECT_LE(all[i - 1].t, all[i].t);
  }

  // The recorder counts its own log entries in the registry.
  const auto& metrics = system.metrics();
  const Counter* adaptations = metrics.find_counter("runtime.adaptations");
  ASSERT_NE(adaptations, nullptr);
  EXPECT_DOUBLE_EQ(adaptations->value(),
                   static_cast<double>(recorded.size()));
  const Counter* ticks = metrics.find_counter("engine.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GT(ticks->value(), 0.0);
  // The delay distribution stays in the recorder: its total weight is the
  // registry's processed-events count.
  const Counter* processed = metrics.find_counter("runtime.processed_events");
  ASSERT_NE(processed, nullptr);
  EXPECT_GT(processed->value(), 0.0);
  EXPECT_EQ(system.recorder().delay_histogram().total_weight(),
            processed->value());

  // Per-tick engine events are present and well-formed.
  EXPECT_FALSE(sink->of_type("tick").empty());
  EXPECT_FALSE(sink->of_type("op_tick").empty());
  for (const TraceEvent& e : sink->of_type("op_tick")) {
    EXPECT_GE(e.num("op"), 0.0);
    EXPECT_FALSE(e.str("name").empty());
  }
}

// ---------------------------------------------------------------------------
// Span reconstruction over live runs: every adaptation/recovery episode must
// produce a balanced, correctly-nested span forest once the system shuts
// down (the destructor closes anything still open).

TEST(SpanIntegrationTest, AdaptationRunYieldsBalancedNestedForest) {
  auto sink = std::make_shared<MemorySink>(1 << 20);
  {
    Testbed bed;
    auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, 10'000.0);
      }
    }
    pattern.add_step(100.0, 2.0);  // overload: force the policy to act

    runtime::SystemConfig config;
    config.mode = runtime::AdaptationMode::kWasp;
    config.trace_sink = sink;
    runtime::WaspSystem system(bed.network, std::move(spec), pattern,
                               config);
    system.run_until(600.0);
    ASSERT_FALSE(system.recorder().events().empty());
    EXPECT_EQ(system.trace().open_spans(), 0u)
        << "no episode should remain open in steady state";
  }
  ASSERT_EQ(sink->dropped(), 0u);

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced())
      << (index.errors.empty() ? "" : index.errors[0]);
  EXPECT_TRUE(index.errors.empty());
  ASSERT_FALSE(index.roots.empty());

  // Each adaptation root nests the control loop: a diagnose child and (for
  // acted-on decisions) plan/migration work, all within the root's episode.
  bool saw_adaptation = false, saw_diagnose = false, saw_transfer = false,
       saw_stabilize = false;
  for (const SpanNode& node : index.nodes) {
    if (node.name == "adaptation") {
      saw_adaptation = true;
      EXPECT_EQ(node.parent, kNoSpan) << "episodes are root spans";
    }
    if (node.name == "diagnose" || node.name == "plan") {
      saw_diagnose = true;
      ASSERT_NE(node.parent, kNoSpan);
      const SpanNode* parent = index.find(node.parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_TRUE(parent->name == "adaptation" || parent->name == "recovery")
          << parent->name;
    }
    if (node.name == "transfer") {
      saw_transfer = true;
      EXPECT_NE(node.parent, kNoSpan);
    }
    if (node.name == "stabilize") {
      saw_stabilize = true;
      EXPECT_NE(node.parent, kNoSpan);
    }
  }
  EXPECT_TRUE(saw_adaptation);
  EXPECT_TRUE(saw_diagnose);
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_stabilize);

  // The serialized JSONL stream passes the same validation the CLI runs.
  std::stringstream jsonl;
  for (const TraceEvent& e : events) jsonl << to_json_line(e) << '\n';
  const ValidationReport report = validate_trace(load_trace(jsonl));
  EXPECT_TRUE(report.ok())
      << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(report.unclosed, 0u);
  EXPECT_EQ(report.orphan_ends, 0u);
}

TEST(SpanIntegrationTest, MidMigrationAbortAndRetryStayBalanced) {
  auto sink = std::make_shared<MemorySink>(1 << 20);
  std::size_t recorded_events = 0;
  {
    Testbed bed;
    auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
    workload::SteppedWorkload pattern;
    for (OperatorId src : spec.sources) {
      for (SiteId s : spec.plan.op(src).pinned_sites) {
        pattern.set_base_rate(src, s, 10'000.0);
      }
    }

    runtime::SystemConfig config;
    config.mode = runtime::AdaptationMode::kNoAdapt;  // only the forced move
    config.trace_sink = sink;
    runtime::WaspSystem system(bed.network, std::move(spec), pattern,
                               config);
    // The deployed plan's last window aggregate (the merge when deployment
    // pushed partial aggregates below the union): the spec's operator ids
    // do not survive deployment's rewrites.
    const query::LogicalPlan& plan = system.engine().logical();
    OperatorId window_op;
    for (OperatorId id : plan.topological_order()) {
      if (plan.op(id).kind == query::OperatorKind::kWindowAggregate) {
        window_op = id;
      }
    }
    ASSERT_TRUE(window_op.valid());
    system.mutable_engine().set_state_override_mb(window_op, 200.0);
    system.run_until(100.0);

    // Force the window stage onto a fresh DC, then kill that DC while the
    // 200 MB bulk transfer is still in flight (the faults_test abort
    // scenario) so the transfer spans end via the abort path.
    const auto before = system.engine().placement(window_op);
    physical::StagePlacement target;
    target.per_site.assign(bed.topology.num_sites(), 0);
    SiteId dest;
    for (const auto& site : bed.topology.sites()) {
      if (site.type == net::SiteType::kDataCenter &&
          before.at(site.id) == 0 && site.id != bed.sink) {
        dest = site.id;
        target.per_site[static_cast<std::size_t>(site.id.value())] =
            before.parallelism();
        break;
      }
    }
    ASSERT_TRUE(dest.valid());
    system.force_reassign(window_op, target);
    system.run_until(103.0);
    ASSERT_TRUE(system.transition_in_progress());
    system.fail_sites({dest});
    system.run_until(140.0);  // abort lands, backoff retry fires
    recorded_events = system.recorder().events().size();
    EXPECT_GE(recorded_events, 1u);
  }

  std::vector<TraceEvent> events(sink->events().begin(),
                                 sink->events().end());
  const SpanIndex index = SpanIndex::build(events);
  EXPECT_TRUE(index.balanced())
      << (index.errors.empty() ? "" : index.errors[0]);

  // The aborted episode: an "adaptation" root whose end event carries the
  // abort status, with at least one "transfer" child that was aborted too.
  bool saw_aborted_root = false, saw_aborted_transfer = false;
  for (const SpanNode& node : index.nodes) {
    if (!node.closed) continue;
    const TraceEvent& end = events[node.end_event];
    if (node.name == "adaptation" && end.str("status") == "aborted") {
      saw_aborted_root = true;
      EXPECT_FALSE(end.str("reason").empty());
    }
    if (node.name == "transfer" && end.str("status") == "aborted") {
      saw_aborted_transfer = true;
      const SpanNode* parent = index.find(node.parent);
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->name, "adaptation");
    }
  }
  EXPECT_TRUE(saw_aborted_root);
  EXPECT_TRUE(saw_aborted_transfer);

  // The abort's backoff retry shows up in the flat recovery stream, nested
  // chronologically between the span markers.
  bool saw_retry_event = false;
  for (const TraceEvent& e : events) {
    if (e.type == "recovery" && e.str("kind") == "retry") {
      saw_retry_event = true;
      EXPECT_GT(e.num("backoff_sec"), 0.0);
    }
  }
  EXPECT_TRUE(saw_retry_event);

  // The detector's suspicion episode for the killed site is also balanced
  // (closed at shutdown if the site never recovered).
  bool saw_suspicion = false;
  for (const SpanNode& node : index.nodes) {
    if (node.name == "suspicion") {
      saw_suspicion = true;
      EXPECT_TRUE(node.closed);
    }
  }
  EXPECT_TRUE(saw_suspicion);
}

TEST(TraceIntegrationTest, MetricsSnapshotNamesEachMetricOnce) {
  // --metrics writes the snapshot as one JSON object, so a name held by two
  // metrics (a gauge and a histogram, say) is a repeated key whose first
  // value a JSON reader drops. The run registers every kind: it crashes a
  // task-hosting site with a standby ready (failover and recovery
  // histograms), watches an SLO and exports the profiler's totals.
  Testbed bed;
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;
  config.standby_replicas = 1;
  config.profile = true;
  runtime::SloSpec slo;
  slo.delay_p99_sec = 5.0;
  config.slo = slo;
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(100.0);
  const auto used = system.engine().slots_in_use();
  SiteId victim;
  for (const auto& site : bed.topology.sites()) {
    if (site.type == net::SiteType::kDataCenter && site.id != bed.sink &&
        site.id != system.detector().coordinator() &&
        used[static_cast<std::size_t>(site.id.value())] > 0) {
      victim = site.id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  system.fail_sites({victim});
  system.run_until(400.0);
  system.export_profiler_metrics();

  const MetricsRegistry& metrics = system.metrics();
  EXPECT_NE(metrics.find_histogram("failover.staleness_sec"), nullptr);
  EXPECT_NE(metrics.find_histogram("recovery.time_to_stabilize_sec"), nullptr);
  EXPECT_NE(metrics.find_counter("slo.violations"), nullptr);
  std::map<std::string, int> seen;
  for (const auto& [name, value] : metrics.snapshot()) ++seen[name];
  ASSERT_GT(seen.size(), 20u);
  for (const auto& [name, count] : seen) {
    EXPECT_EQ(count, 1) << name;
  }
}

// The domain_down_standby golden scenario: a re-plan aborts when domain 3
// dies under it and is retried, the stateful stage fails over to its hot
// standby, and the deployment stabilizes. Each log entry is written once,
// by the recorder, with the trace event and counter that restate it.
TEST(TraceIntegrationTest, StandbyRunKeepsTheOneToOneRecord) {
  runtime::RunSpec spec;
  spec.seed = 7;
  spec.duration_sec = 600.0;
  spec.standby_replicas = 1;
  spec.fault_schedule = WASP_SOURCE_DIR "/examples/domain_down.fsched";
  auto sink = std::make_shared<MemorySink>(1 << 20);
  runtime::RunSettings settings;
  settings.trace_sink = sink;
  runtime::BuildError error;
  const auto run = runtime::build_run(spec, settings, &error);
  ASSERT_NE(run, nullptr) << error.message;
  run->run_until(spec.duration_sec);
  ASSERT_EQ(sink->dropped(), 0u);

  const runtime::Recorder& rec = run->system().recorder();
  const auto& log = rec.events();
  const auto& steps = rec.recovery_events();
  const auto has = [](const auto& entries, auto pred) {
    return std::any_of(entries.begin(), entries.end(), pred);
  };
  ASSERT_TRUE(has(log, [](const auto& e) { return e.aborted(); }));
  ASSERT_TRUE(has(log, [](const auto& e) { return e.kind == "failover"; }));
  ASSERT_TRUE(has(log, [](const auto& e) { return e.stabilized_at >= 0.0; }));
  ASSERT_TRUE(has(steps, [](const auto& e) { return e.kind == "retry"; }));

  // Each log entry, in order, is one "adaptation" event, or for a standby
  // failover the promotion's "failover" event with mode=standby.
  std::vector<TraceEvent> opened;
  for (const TraceEvent& e : sink->events()) {
    if (e.type == "adaptation" ||
        (e.type == "failover" && e.str("mode") == "standby")) {
      opened.push_back(e);
    }
  }
  ASSERT_EQ(opened.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const bool failover = log[i].kind == "failover";
    EXPECT_EQ(opened[i].type, failover ? "failover" : "adaptation") << i;
    if (!failover) {
      EXPECT_EQ(opened[i].str("kind"), log[i].kind) << i;
    }
    EXPECT_EQ(opened[i].num("op"), static_cast<double>(log[i].op)) << i;
    EXPECT_EQ(opened[i].t, log[i].decided_at) << i;
  }

  // Each completion event restates the log field it marks, in log order.
  const auto entries_where = [&log](auto pred) {
    std::vector<const runtime::AdaptationEvent*> out;
    for (const auto& e : log) {
      if (pred(e)) out.push_back(&e);
    }
    return out;
  };
  const auto ended = entries_where([](const auto& e) {
    return e.kind != "failover" && e.transition_end >= 0.0;
  });
  const auto ends = sink->of_type("transition_end");
  ASSERT_EQ(ends.size(), ended.size());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    EXPECT_EQ(ends[i].str("kind"), ended[i]->kind);
    EXPECT_EQ(ends[i].num("op"), static_cast<double>(ended[i]->op));
    EXPECT_EQ(ends[i].t, ended[i]->transition_end);
    EXPECT_EQ(ends[i].num("decided_at"), ended[i]->decided_at);
    EXPECT_EQ(ends[i].num("transition_sec"), ended[i]->transition_sec());
  }
  const auto aborted =
      entries_where([](const auto& e) { return e.aborted(); });
  const auto aborts = sink->of_type("transition_abort");
  ASSERT_EQ(aborts.size(), aborted.size());
  for (std::size_t i = 0; i < aborts.size(); ++i) {
    EXPECT_EQ(aborts[i].str("kind"), aborted[i]->kind);
    EXPECT_EQ(aborts[i].num("op"), static_cast<double>(aborted[i]->op));
    EXPECT_EQ(aborts[i].t, aborted[i]->aborted_at);
    EXPECT_EQ(aborts[i].str("reason"), aborted[i]->abort_reason);
    EXPECT_EQ(aborts[i].num("attempt"),
              static_cast<double>(aborted[i]->attempt));
  }
  const auto stable =
      entries_where([](const auto& e) { return e.stabilized_at >= 0.0; });
  const auto stabilized = sink->of_type("stabilized");
  ASSERT_EQ(stabilized.size(), stable.size());
  for (std::size_t i = 0; i < stabilized.size(); ++i) {
    EXPECT_EQ(stabilized[i].str("kind"), stable[i]->kind);
    EXPECT_EQ(stabilized[i].num("op"), static_cast<double>(stable[i]->op));
    EXPECT_EQ(stabilized[i].t, stable[i]->stabilized_at);
    EXPECT_EQ(stabilized[i].num("decided_at"), stable[i]->decided_at);
    EXPECT_EQ(stabilized[i].num("stabilize_sec"), stable[i]->stabilize_sec());
  }

  // Each recovery step but the detector's own health changes, in order, is
  // one "recovery" event.
  std::vector<const runtime::RecoveryEvent*> traced_steps;
  for (const auto& e : steps) {
    if (e.kind != "suspect" && e.kind != "confirm_failure" &&
        e.kind != "trust") {
      traced_steps.push_back(&e);
    }
  }
  const auto recoveries = sink->of_type("recovery");
  ASSERT_EQ(recoveries.size(), traced_steps.size());
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    const runtime::RecoveryEvent& step = *traced_steps[i];
    EXPECT_EQ(recoveries[i].t, step.t) << i;
    EXPECT_EQ(recoveries[i].str("kind"), step.kind) << i;
    EXPECT_EQ(recoveries[i].num("site"), static_cast<double>(step.site)) << i;
    EXPECT_EQ(recoveries[i].num("op"), static_cast<double>(step.op)) << i;
    EXPECT_EQ(recoveries[i].num("attempt"), static_cast<double>(step.attempt))
        << i;
    EXPECT_EQ(recoveries[i].num("backoff_sec"), step.backoff_sec) << i;
    EXPECT_EQ(recoveries[i].str("detail"), step.detail) << i;
  }

  // The counters count the logs.
  const MetricsRegistry& metrics = run->system().metrics();
  const auto counted = [&metrics](std::string_view name) {
    const Counter* counter = metrics.find_counter(name);
    return counter == nullptr ? 0.0 : counter->value();
  };
  EXPECT_EQ(counted("runtime.adaptations") + counted("runtime.failovers"),
            static_cast<double>(log.size()));
  EXPECT_EQ(counted("runtime.recovery_events"),
            static_cast<double>(steps.size()));
}

TEST(TraceIntegrationTest, UntracedRunEmitsNothing) {
  Testbed bed;
  auto spec = workload::make_topk_topics(bed.east, bed.west, bed.sink);
  workload::SteppedWorkload pattern;
  for (OperatorId src : spec.sources) {
    for (SiteId s : spec.plan.op(src).pinned_sites) {
      pattern.set_base_rate(src, s, 10'000.0);
    }
  }
  runtime::SystemConfig config;
  config.mode = runtime::AdaptationMode::kWasp;  // no trace_sink set
  runtime::WaspSystem system(bed.network, std::move(spec), pattern, config);
  system.run_until(120.0);
  EXPECT_FALSE(system.trace().enabled());
  EXPECT_EQ(system.trace().emitted(), 0u);
  // The registry still runs: it is how the recorder's data is exported.
  const Counter* ticks = system.metrics().find_counter("engine.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GT(ticks->value(), 0.0);
}

}  // namespace
}  // namespace wasp::obs
