// Unit tests for the common utilities: ids, units, rng, stats, histogram,
// time series, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>
#include <type_traits>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/time_series.h"
#include "common/units.h"

namespace wasp {
namespace {

TEST(IdsTest, DefaultIsInvalid) {
  SiteId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(SiteId(0).valid());
}

TEST(IdsTest, ComparesByValue) {
  EXPECT_EQ(SiteId(3), SiteId(3));
  EXPECT_NE(SiteId(3), SiteId(4));
  EXPECT_LT(SiteId(3), SiteId(4));
}

TEST(IdsTest, NotHashable) {
  // Checked at compile time: ids have no std::hash, so an id-keyed hash
  // container does not compile and no result can follow hash order (id-keyed
  // tables are query::OperatorTable, indexed by id).
  static_assert(!std::is_default_constructible_v<std::hash<TaskId>>);
  static_assert(!std::is_invocable_v<std::hash<OperatorId>, OperatorId>);
  static_assert(!std::is_invocable_v<std::hash<SiteId>, SiteId>);
}

TEST(UnitsTest, BandwidthDataRateRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_mb_per_sec(80.0), 10.0);
  EXPECT_DOUBLE_EQ(mb_per_sec_to_mbps(10.0), 80.0);
}

TEST(UnitsTest, TransferSeconds) {
  // 100 MB over 80 Mbps = 10 MB/s -> 10 s.
  EXPECT_NEAR(transfer_seconds(100.0, 80.0), 10.0, 1e-12);
  EXPECT_EQ(transfer_seconds(1.0, 0.0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(transfer_seconds(0.0, 0.0), 0.0);
}

TEST(UnitsTest, StreamBandwidthDemand) {
  // 10000 events/s of 100 bytes = 1 MB/s = 8 Mbps.
  EXPECT_NEAR(stream_mbps(10000.0, 100.0), 8.0, 1e-12);
  EXPECT_NEAR(events_per_sec_over(8.0, 100.0), 10000.0, 1e-9);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasApproximateMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(17);
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.zipf(100, 1.2);
    EXPECT_GE(k, 0);
    EXPECT_LT(k, 100);
    if (k < 10) ++low;
    if (k >= 90) ++high;
  }
  EXPECT_GT(low, 5 * high);
}

TEST(RngTest, ZipfZeroSkewIsRoughlyUniform) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.zipf(10, 0.0)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int c0 = 0, c1 = 0, c2 = 0;
  for (int i = 0; i < 10000; ++i) {
    switch (rng.weighted_index(weights)) {
      case 0: ++c0; break;
      case 1: ++c1; break;
      default: ++c2; break;
    }
  }
  EXPECT_EQ(c1, 0);
  EXPECT_NEAR(static_cast<double>(c2) / c0, 3.0, 0.5);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(HistogramTest, PercentileOfUniformWeights) {
  WeightedHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-12);
}

TEST(HistogramTest, WeightsShiftPercentiles) {
  WeightedHistogram h;
  h.add(1.0, 9.0);
  h.add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 10.0);
}

TEST(HistogramTest, CdfAt) {
  WeightedHistogram h;
  h.add(1.0);
  h.add(2.0);
  h.add(3.0);
  h.add(4.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(h.cdf_at(10.0), 1.0);
}

TEST(HistogramTest, IgnoresNonPositiveWeights) {
  WeightedHistogram h;
  h.add(5.0, 0.0);
  h.add(6.0, -1.0);
  EXPECT_TRUE(h.empty());
}

TEST(HistogramTest, WeightedMean) {
  WeightedHistogram h;
  h.add(2.0, 1.0);
  h.add(4.0, 3.0);
  EXPECT_DOUBLE_EQ(h.weighted_mean(), 3.5);
}

TEST(HistogramTest, CdfPointsAreMonotonic) {
  WeightedHistogram h;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) h.add(rng.uniform(), rng.uniform(0.1, 2.0));
  const auto points = h.cdf_points(20);
  ASSERT_EQ(points.size(), 20u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(HistogramTest, CdfPointsMatchPercentileScan) {
  // Regression: cdf_points used to re-scan the sample vector per requested
  // point (O(points * n)); the single-cumulative-pass rewrite must return
  // exactly the values the per-quantile percentile() scan produces.
  WeightedHistogram h;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    h.add(rng.uniform(0.0, 100.0), rng.uniform(0.1, 3.0));
  }
  const std::size_t kPoints = 64;
  const auto points = h.cdf_points(kPoints);
  ASSERT_EQ(points.size(), kPoints);
  for (std::size_t k = 1; k <= kPoints; ++k) {
    const double q = 100.0 * static_cast<double>(k) /
                     static_cast<double>(kPoints);
    EXPECT_DOUBLE_EQ(points[k - 1].first, h.percentile(q))
        << "quantile " << q;
    EXPECT_DOUBLE_EQ(points[k - 1].second,
                     static_cast<double>(k) / static_cast<double>(kPoints));
  }
}

TEST(HistogramTest, ZeroTotalWeightIsHandledExplicitly) {
  // Regression: with no accepted samples (empty, or every add rejected for
  // a non-positive weight) the total weight is 0; percentile/cdf_at/
  // cdf_points must treat that case explicitly instead of dividing by it.
  WeightedHistogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(1.0), 0.0);
  EXPECT_TRUE(h.cdf_points(10).empty());

  h.add(5.0, 0.0);
  h.add(7.0, -2.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(10.0), 0.0);
  EXPECT_TRUE(h.cdf_points(10).empty());

  // One real sample flips it back to defined behaviour.
  h.add(3.0, 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(h.cdf_at(3.0), 1.0);
  ASSERT_EQ(h.cdf_points(2).size(), 2u);
}

TEST(TimeSeriesTest, MeanOverWindow) {
  TimeSeries ts("x");
  ts.add(0.0, 1.0);
  ts.add(1.0, 2.0);
  ts.add(2.0, 3.0);
  ts.add(3.0, 10.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(5.0, 6.0), 0.0);
}

TEST(TimeSeriesTest, MaxOverWindow) {
  TimeSeries ts("x");
  ts.add(0.0, 5.0);
  ts.add(1.0, -2.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.5, 2.0), -2.0);
}

TEST(TimeSeriesTest, ValueAtIsLastAtOrBefore) {
  TimeSeries ts("x");
  ts.add(10.0, 1.0);
  ts.add(20.0, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5.0, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(15.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(25.0), 2.0);
}

TEST(TimeSeriesTest, DownsampleAverages) {
  TimeSeries ts("x");
  for (int t = 0; t < 10; ++t) ts.add(t, t < 5 ? 1.0 : 3.0);
  const auto buckets = ts.downsample(5.0);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets[0].second, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].second, 3.0);
}

TEST(TableTest, PrintsAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::fmt(0.8, 1)});
  t.add_row({"p_max", "3"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.8"), std::string::npos);
  EXPECT_NE(out.find("p_max"), std::string::npos);
}

TEST(TableTest, SeriesPrinterMergesXValues) {
  TimeSeries a("a"), b("b");
  a.add(0.0, 1.0);
  a.add(2.0, 3.0);
  b.add(1.0, 5.0);
  std::ostringstream os;
  print_series(os, "t", {a, b});
  const std::string out = os.str();
  // x=1 exists only in b; a's cell must be "-".
  EXPECT_NE(out.find("-"), std::string::npos);
  EXPECT_NE(out.find("5.000"), std::string::npos);
}

}  // namespace
}  // namespace wasp
