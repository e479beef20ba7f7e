// Observability layer: metrics registry semantics, trace emitter/sink
// behaviour and JSON encoding, and an end-to-end check that the trace
// stream's adaptation events mirror the experiment recorder one-to-one.
#include "obs/metrics_registry.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/bandwidth_model.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/trace_analysis.h"
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
  EXPECT_EQ(registry.find_gauge("known.counter"), nullptr);
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
  EXPECT_EQ(snap[1].first, "m.hist");
  EXPECT_DOUBLE_EQ(snap[1].second, 10.0);  // reported as total weight
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

TEST(FileSinkTest, AFullDiskShowsAtTheFlush) {
  // /dev/full opens like any file but fails every write with ENOSPC; the
  // sink buffers the line, so only the flush finds out.
  FileSink sink("/dev/full");
  ASSERT_TRUE(sink.ok());
  TraceEvent event;
  event.type = "tick";
  sink.write(event);
  sink.flush();
  EXPECT_FALSE(sink.ok());
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

  // The registry mirrors the recorder through bind_metrics().
  const auto& metrics = system.metrics();
  const Counter* adaptations = metrics.find_counter("runtime.adaptations");
  ASSERT_NE(adaptations, nullptr);
  EXPECT_DOUBLE_EQ(adaptations->value(),
                   static_cast<double>(recorded.size()));
  const Counter* ticks = metrics.find_counter("engine.ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GT(ticks->value(), 0.0);
  const WeightedHistogram* delays = metrics.find_histogram("runtime.delay_sec");
  ASSERT_NE(delays, nullptr);
  EXPECT_GT(delays->total_weight(), 0.0);

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
