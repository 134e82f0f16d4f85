#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "exec/batch.h"
#include "stats/column_stats.h"
#include "stats/gk_quantile.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/table_stats.h"

namespace dynopt {
namespace {

// --- Greenwald-Khanna quantile sketch ---------------------------------------

TEST(GkQuantileTest, ExactOnTinyInput) {
  GkQuantileSketch sketch(0.01);
  for (int i = 1; i <= 10; ++i) sketch.Insert(i);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 10.0);
  EXPECT_NEAR(sketch.Quantile(0.5), 5.5, 1.0);
}

TEST(GkQuantileTest, CountTracksInserts) {
  GkQuantileSketch sketch;
  for (int i = 0; i < 1234; ++i) sketch.Insert(i);
  EXPECT_EQ(sketch.count(), 1234u);
}

TEST(GkQuantileTest, CompressionBoundsMemory) {
  GkQuantileSketch sketch(0.01);
  for (int i = 0; i < 100000; ++i) sketch.Insert(i);
  // A GK summary holds O(1/eps * log(eps n)) tuples — far below n.
  EXPECT_LT(sketch.NumTuples(), 5000u);
}

/// Property sweep: quantile error stays within epsilon*n rank error across
/// distributions and sizes.
class GkAccuracyTest
    : public ::testing::TestWithParam<std::tuple<int, const char*>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, GkAccuracyTest,
    ::testing::Combine(::testing::Values(1000, 10000, 100000),
                       ::testing::Values("uniform", "normalish", "zipfy",
                                         "sorted", "reversed")));

TEST_P(GkAccuracyTest, RankErrorWithinEpsilon) {
  const int n = std::get<0>(GetParam());
  const std::string dist = std::get<1>(GetParam());
  const double eps = 0.01;
  Rng rng(99);
  std::vector<double> data;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    double v;
    if (dist == "uniform") {
      v = rng.NextDouble() * 1000.0;
    } else if (dist == "normalish") {
      v = 0;  // Sum of uniforms approximates a normal.
      for (int k = 0; k < 6; ++k) v += rng.NextDouble();
    } else if (dist == "zipfy") {
      v = std::pow(rng.NextDouble(), 4.0) * 100.0;
    } else if (dist == "sorted") {
      v = i;
    } else {
      v = n - i;
    }
    data.push_back(v);
  }
  GkQuantileSketch sketch(eps);
  for (double v : data) sketch.Insert(v);
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    double q = sketch.Quantile(phi);
    // True rank of the reported value.
    auto lo = std::lower_bound(sorted.begin(), sorted.end(), q);
    auto hi = std::upper_bound(sorted.begin(), sorted.end(), q);
    double target = phi * (n - 1);
    double rank_lo = static_cast<double>(lo - sorted.begin());
    double rank_hi = static_cast<double>(hi - sorted.begin());
    double err = 0;
    if (target < rank_lo) err = rank_lo - target;
    if (target > rank_hi) err = target - rank_hi;
    EXPECT_LE(err, 3.0 * eps * n + 2.0)
        << "phi=" << phi << " dist=" << dist << " n=" << n;
  }
}

TEST(GkQuantileTest, MergePreservesAccuracy) {
  const double eps = 0.01;
  GkQuantileSketch left(eps), right(eps);
  Rng rng(5);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.NextDouble() * 100;
    all.push_back(v);
    (i % 2 == 0 ? left : right).Insert(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), 20000u);
  std::sort(all.begin(), all.end());
  for (double phi : {0.1, 0.5, 0.9}) {
    double q = left.Quantile(phi);
    double truth = all[static_cast<size_t>(phi * (all.size() - 1))];
    EXPECT_NEAR(q, truth, 3.0);  // ~3% of the value range.
  }
}

TEST(GkQuantileTest, MergeIntoEmptyCopies) {
  GkQuantileSketch a, b;
  for (int i = 0; i < 100; ++i) b.Insert(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_NEAR(a.Quantile(0.5), 50.0, 5.0);
  GkQuantileSketch empty;
  a.Merge(empty);  // No-op.
  EXPECT_EQ(a.count(), 100u);
}

TEST(GkQuantileTest, RankFractionIsApproximateCdf) {
  GkQuantileSketch sketch(0.005);
  for (int i = 0; i < 10000; ++i) sketch.Insert(i);
  EXPECT_DOUBLE_EQ(sketch.EstimateRankFraction(-1), 0.0);
  EXPECT_DOUBLE_EQ(sketch.EstimateRankFraction(10001), 1.0);
  EXPECT_NEAR(sketch.EstimateRankFraction(2500), 0.25, 0.03);
  EXPECT_NEAR(sketch.EstimateRankFraction(7500), 0.75, 0.03);
}

TEST(GkQuantileTest, BoundariesAreMonotone) {
  GkQuantileSketch sketch;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) sketch.Insert(rng.NextDouble());
  std::vector<double> bounds = sketch.ExtractBoundaries(32);
  ASSERT_EQ(bounds.size(), 33u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

/// The per-value GK algorithm the sketch replaced (lower_bound + mid-vector
/// insert, compress every 1/(2*eps) inserts, Quantile by linear scan): the
/// oracle the block-buffered sketch must match tuple for tuple.
class ReferenceGk {
 public:
  using Tuple = GkQuantileSketch::Tuple;
  explicit ReferenceGk(double eps) : eps_(eps) {}

  void Insert(double value) {
    auto it = std::lower_bound(
        tuples_.begin(), tuples_.end(), value,
        [](const Tuple& t, double v) { return t.v < v; });
    uint64_t delta = 0;
    if (it != tuples_.begin() && it != tuples_.end()) {
      delta = static_cast<uint64_t>(
          std::floor(2.0 * eps_ * static_cast<double>(count_)));
    }
    tuples_.insert(it, Tuple{value, 1, delta});
    ++count_;
    if (++since_compress_ >= static_cast<uint64_t>(1.0 / (2.0 * eps_))) {
      Compress();
      since_compress_ = 0;
    }
  }

  void Merge(const ReferenceGk& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      tuples_ = other.tuples_;
      count_ = other.count_;
      return;
    }
    std::vector<Tuple> merged;
    size_t i = 0, j = 0;
    while (i < tuples_.size() && j < other.tuples_.size()) {
      merged.push_back(tuples_[i].v <= other.tuples_[j].v ? tuples_[i++]
                                                          : other.tuples_[j++]);
    }
    while (i < tuples_.size()) merged.push_back(tuples_[i++]);
    while (j < other.tuples_.size()) merged.push_back(other.tuples_[j++]);
    tuples_ = std::move(merged);
    count_ += other.count_;
    Compress();
  }

  double Quantile(double phi) const {
    const double target = phi * static_cast<double>(count_ - 1) + 1.0;
    const double slack = eps_ * static_cast<double>(count_);
    uint64_t rmin = 0;
    for (const Tuple& t : tuples_) {
      rmin += t.g;
      const double rmax = static_cast<double>(rmin + t.delta);
      if (rmax >= target - slack &&
          static_cast<double>(rmin) >= target - slack) {
        return t.v;
      }
      if (rmax >= target + slack) return t.v;
    }
    return tuples_.back().v;
  }

  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  void Compress() {
    if (tuples_.size() < 3) return;
    const double threshold = 2.0 * eps_ * static_cast<double>(count_);
    std::vector<Tuple> out = {tuples_[0]};
    for (size_t i = 1; i < tuples_.size(); ++i) {
      Tuple cur = tuples_[i];
      if (out.size() > 1 && i + 1 < tuples_.size() &&
          static_cast<double>(out.back().g + cur.g + cur.delta) <= threshold) {
        cur.g += out.back().g;
        out.back() = cur;
      } else {
        out.push_back(cur);
      }
    }
    tuples_ = std::move(out);
  }

  double eps_;
  uint64_t count_ = 0;
  uint64_t since_compress_ = 0;
  std::vector<Tuple> tuples_;
};

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(d));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& ds) {
  std::vector<uint64_t> out;
  for (double d : ds) out.push_back(Bits(d));
  return out;
}

/// Tuple-for-tuple (bitwise on v) equality with the oracle, plus the reads
/// built on the summary.
void ExpectSameSummary(const GkQuantileSketch& got, const ReferenceGk& want) {
  const std::vector<GkQuantileSketch::Tuple> tuples = got.Tuples();
  ASSERT_EQ(tuples.size(), want.tuples().size());
  ASSERT_EQ(got.NumTuples(), tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    ASSERT_EQ(Bits(tuples[i].v), Bits(want.tuples()[i].v)) << "tuple " << i;
    ASSERT_EQ(tuples[i].g, want.tuples()[i].g) << "tuple " << i;
    ASSERT_EQ(tuples[i].delta, want.tuples()[i].delta) << "tuple " << i;
  }
  if (got.count() == 0) return;
  std::vector<double> bounds;
  for (int b = 0; b <= 64; ++b) bounds.push_back(want.Quantile(b / 64.0));
  EXPECT_EQ(Bits(got.ExtractBoundaries(64)), Bits(bounds));
  EXPECT_EQ(Bits(got.Quantile(0.37)), Bits(want.Quantile(0.37)));
}

/// One value of a named stream shape.
double StreamValue(const std::string& kind, int i, int n, Rng* rng) {
  if (kind == "sorted") return i / 3;
  if (kind == "reversed") return n - i / 2;
  if (kind == "ties") return static_cast<double>(rng->NextInt64(0, 4));
  if (kind == "zeros") {
    const double pick[] = {0.0, -0.0, 1.0, -1.0, 0.0, -0.0};
    return pick[rng->NextInt64(0, 5)];
  }
  if (kind == "nan" && rng->NextBool(0.002)) return std::nan("");
  return std::floor(rng->NextDouble() * 1000.0) / 8.0;
}

class GkOracleTest
    : public ::testing::TestWithParam<std::tuple<double, const char*>> {};

INSTANTIATE_TEST_SUITE_P(
    Streams, GkOracleTest,
    ::testing::Combine(::testing::Values(0.005, 0.01, 0.05),
                       ::testing::Values("sorted", "reversed", "ties", "zeros",
                                         "random", "nan")));

TEST_P(GkOracleTest, BufferedSummaryEqualsPerValueInsertion) {
  const double eps = std::get<0>(GetParam());
  const std::string kind = std::get<1>(GetParam());
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    GkQuantileSketch sketch(eps);
    ReferenceGk oracle(eps);
    const int n = 3000;
    // Reads and merges land at random points, mostly between compresses.
    int next_event = static_cast<int>(rng.NextInt64(1, 150));
    for (int i = 0; i < n; ++i) {
      const double v = StreamValue(kind, i, n, &rng);
      sketch.Insert(v);
      oracle.Insert(v);
      if (i + 1 < next_event) continue;
      next_event += static_cast<int>(rng.NextInt64(1, 150));
      ExpectSameSummary(sketch, oracle);
      // A side sketch with its own pending block, merged in both directions.
      GkQuantileSketch side(eps);
      ReferenceGk side_oracle(eps);
      const int side_n = static_cast<int>(rng.NextInt64(0, 120));
      for (int k = 0; k < side_n; ++k) {
        const double s = StreamValue(kind, k, side_n, &rng);
        side.Insert(s);
        side_oracle.Insert(s);
      }
      if (rng.NextBool(0.5)) {
        sketch.Merge(side);
        oracle.Merge(side_oracle);
      } else {
        side.Merge(sketch);
        side_oracle.Merge(oracle);
        ExpectSameSummary(side, side_oracle);
      }
      ExpectSameSummary(sketch, oracle);
    }
    ExpectSameSummary(sketch, oracle);
    GkQuantileSketch empty(eps);
    ReferenceGk empty_oracle(eps);
    empty.Merge(sketch);
    empty_oracle.Merge(oracle);
    ExpectSameSummary(empty, empty_oracle);
  }
}

TEST(GkQuantileTest, NaNArrivingByMergeSwitchesToPerValueInsertion) {
  // A sorted sketch with values pending takes in a summary that holds a
  // NaN; its later inserts must land where per-value insertion puts them.
  for (double eps : {0.05, 0.005}) {
    SCOPED_TRACE(eps);
    Rng rng(3);
    GkQuantileSketch sketch(eps), side(eps);
    ReferenceGk oracle(eps), side_oracle(eps);
    for (int i = 0; i < 37; ++i) {
      const double v = StreamValue("random", i, 0, &rng);
      sketch.Insert(v);
      oracle.Insert(v);
    }
    for (double v : {4.0, std::nan(""), 90.0, 1.5}) {
      side.Insert(v);
      side_oracle.Insert(v);
    }
    sketch.Merge(side);
    oracle.Merge(side_oracle);
    for (int i = 0; i < 500; ++i) {
      const double v = StreamValue("random", i, 0, &rng);
      sketch.Insert(v);
      oracle.Insert(v);
    }
    ExpectSameSummary(sketch, oracle);
  }
}

// --- HyperLogLog -------------------------------------------------------------

class HllAccuracyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracyTest,
                         ::testing::Values(10, 100, 1000, 10000, 100000,
                                           1000000));

TEST_P(HllAccuracyTest, EstimateWithinFivePercent) {
  const int n = GetParam();
  HyperLogLog hll(14);
  for (int i = 0; i < n; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  EXPECT_NEAR(hll.Estimate(), n, std::max(2.0, 0.05 * n));
}

TEST(HllTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) hll.Add(Mix64(static_cast<uint64_t>(i)));
  }
  EXPECT_NEAR(hll.Estimate(), 50.0, 5.0);
}

TEST(HllTest, EmptyEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_NEAR(hll.Estimate(), 0.0, 0.5);
}

TEST(HllTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), expected(12);
  for (int i = 0; i < 5000; ++i) {
    uint64_t h = Mix64(static_cast<uint64_t>(i));
    (i % 2 == 0 ? a : b).Add(h);
    expected.Add(h);
  }
  // Overlap: both see 1000 shared elements.
  for (int i = 0; i < 1000; ++i) {
    uint64_t h = Mix64(static_cast<uint64_t>(1000000 + i));
    a.Add(h);
    b.Add(h);
    expected.Add(h);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), expected.Estimate());
}

// --- Equi-height histogram ---------------------------------------------------

EquiHeightHistogram MakeUniformHistogram(int n, int buckets) {
  GkQuantileSketch sketch(0.005);
  for (int i = 0; i < n; ++i) sketch.Insert(i);
  return EquiHeightHistogram::FromSketch(sketch, buckets);
}

TEST(HistogramTest, EmptyIsUninformative) {
  EquiHeightHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(5), 0.5);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(0, 1), 1.0 / 3.0);
}

TEST(HistogramTest, CdfEndpoints) {
  EquiHeightHistogram h = MakeUniformHistogram(10000, 64);
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(-1), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateLessOrEqualFraction(10000), 1.0);
}

TEST(HistogramTest, UniformRangeSelectivity) {
  EquiHeightHistogram h = MakeUniformHistogram(10000, 64);
  EXPECT_NEAR(h.EstimateRangeFraction(2500, 7500), 0.5, 0.05);
  EXPECT_NEAR(h.EstimateRangeFraction(0, 999), 0.1, 0.03);
  EXPECT_DOUBLE_EQ(h.EstimateRangeFraction(5, 4), 0.0);
}

class HistogramBucketsTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Buckets, HistogramBucketsTest,
                         ::testing::Values(4, 16, 64, 256));

TEST_P(HistogramBucketsTest, MoreBucketsNeverWorseThanCoarsest) {
  const int buckets = GetParam();
  // Skewed data: 90% of mass in [0, 10), 10% in [10, 1000).
  GkQuantileSketch sketch(0.002);
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    double v = rng.NextBool(0.9) ? rng.NextDouble() * 10
                                 : 10 + rng.NextDouble() * 990;
    sketch.Insert(v);
  }
  auto h = EquiHeightHistogram::FromSketch(sketch, buckets);
  double est = h.EstimateRangeFraction(0, 10);
  // With >= 16 buckets the estimate should be close to the true 0.9.
  double tolerance = buckets >= 16 ? 0.05 : 0.30;
  EXPECT_NEAR(est, 0.9, tolerance) << "buckets=" << buckets;
}

// --- Column / table stats ----------------------------------------------------

TEST(ColumnStatsTest, TracksCountNullsMinMax) {
  ColumnStatsBuilder builder;
  builder.Add(Value(int64_t{5}));
  builder.Add(Value(int64_t{1}));
  builder.Add(Value::Null());
  builder.Add(Value(int64_t{9}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.null_count, 1u);
  EXPECT_EQ(snap.min_value, Value(int64_t{1}));
  EXPECT_EQ(snap.max_value, Value(int64_t{9}));
  EXPECT_NEAR(snap.ndv, 3.0, 0.5);
}

TEST(ColumnStatsTest, EqSelectivityUsesNdv) {
  ColumnStatsBuilder builder;
  for (int i = 0; i < 1000; ++i) builder.Add(Value(int64_t{i % 50}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_NEAR(snap.EstimateEqSelectivity(Value(int64_t{7})), 1.0 / 50, 0.005);
  // Out-of-range constant estimates zero.
  EXPECT_DOUBLE_EQ(snap.EstimateEqSelectivity(Value(int64_t{500})), 0.0);
}

TEST(ColumnStatsTest, RangeSelectivityUsesHistogram) {
  ColumnStatsBuilder builder;
  for (int i = 0; i < 10000; ++i) builder.Add(Value(int64_t{i}));
  ColumnStatsSnapshot snap = builder.Finalize();
  EXPECT_NEAR(snap.EstimateRangeSelectivity(Value(int64_t{0}),
                                            Value(int64_t{999})),
              0.1, 0.03);
  // Open-ended range.
  EXPECT_NEAR(
      snap.EstimateRangeSelectivity(Value(int64_t{9000}), Value::Null()), 0.1,
      0.03);
}

TEST(ColumnStatsTest, MergeMatchesSingleStream) {
  ColumnStatsBuilder a, b, combined;
  Rng rng(8);
  for (int i = 0; i < 4000; ++i) {
    Value v(rng.NextInt64(0, 500));
    (i % 2 == 0 ? a : b).Add(v);
    combined.Add(v);
  }
  a.Merge(b);
  ColumnStatsSnapshot merged = a.Finalize();
  ColumnStatsSnapshot single = combined.Finalize();
  EXPECT_EQ(merged.count, single.count);
  EXPECT_NEAR(merged.ndv, single.ndv, single.ndv * 0.02 + 1);
  EXPECT_EQ(merged.min_value, single.min_value);
  EXPECT_EQ(merged.max_value, single.max_value);
}

TEST(TableStatsTest, BuilderCollectsSelectedColumns) {
  TableStatsBuilder builder({"a", "c"}, {0, 2});
  for (int i = 0; i < 100; ++i) {
    builder.AddRow({Value(i), Value("skip"), Value(i % 10)});
  }
  TableStats stats = builder.Finalize();
  EXPECT_EQ(stats.row_count, 100u);
  ASSERT_TRUE(stats.HasColumn("a"));
  ASSERT_TRUE(stats.HasColumn("c"));
  EXPECT_FALSE(stats.HasColumn("b"));
  EXPECT_NEAR(stats.Column("a")->ndv, 100.0, 3.0);
  EXPECT_NEAR(stats.Column("c")->ndv, 10.0, 1.0);
}

TEST(TableStatsTest, MergeAccumulates) {
  TableStatsBuilder a({"x"}, {0}), b({"x"}, {0});
  for (int i = 0; i < 50; ++i) a.AddRow({Value(i)});
  for (int i = 50; i < 150; ++i) b.AddRow({Value(i)});
  a.Merge(b);
  TableStats stats = a.Finalize();
  EXPECT_EQ(stats.row_count, 150u);
  EXPECT_NEAR(stats.Column("x")->ndv, 150.0, 5.0);
}

/// The value itself, not Value::operator== (which calls NaN equal to
/// everything and -0.0 equal to 0.0): same type, same bits or string.
void ExpectSameValue(const Value& got, const Value& want) {
  ASSERT_EQ(got.type(), want.type());
  switch (want.type()) {
    case ValueType::kDouble:
      EXPECT_EQ(Bits(got.AsDouble()), Bits(want.AsDouble()));
      break;
    case ValueType::kInt64:
      EXPECT_EQ(got.AsInt64(), want.AsInt64());
      break;
    case ValueType::kString:
      EXPECT_EQ(got.AsString(), want.AsString());
      break;
    case ValueType::kBool:
      EXPECT_EQ(got.AsBool(), want.AsBool());
      break;
    case ValueType::kNull:
      break;
  }
}

void ExpectSameStats(const TableStats& got, const TableStats& want) {
  EXPECT_EQ(got.row_count, want.row_count);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (const auto& [name, w] : want.columns) {
    SCOPED_TRACE(name);
    const ColumnStatsSnapshot* g = got.Column(name);
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->count, w.count);
    EXPECT_EQ(g->null_count, w.null_count);
    EXPECT_EQ(Bits(g->ndv), Bits(w.ndv));
    ExpectSameValue(g->min_value, w.min_value);
    ExpectSameValue(g->max_value, w.max_value);
    EXPECT_EQ(Bits(g->histogram.boundaries()), Bits(w.histogram.boundaries()));
    EXPECT_EQ(g->histogram.count(), w.histogram.count());
  }
}

/// Rows whose columns exercise every leg of the typed AddBatch: doubles
/// with NaN and +-0.0, int64 above 2^53 that tie as doubles, an all-NULL
/// column, strings with NULLs and repeated codes, a bool column, a column
/// that mixes types inside a batch (kValues), and one whose type changes
/// from batch to batch (int64 / double / string).
std::vector<Row> TypedStatsRows(int n, Rng* rng) {
  const int64_t big = int64_t{1} << 53;
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    const int64_t r = rng->NextInt64(0, 99);
    row.push_back(r < 5    ? Value::Null()
                  : r < 10 ? Value(std::nan(""))
                  : r < 20 ? Value(r % 2 == 0 ? 0.0 : -0.0)
                           : Value(static_cast<double>(r) / 3.0 - 10.0));
    row.push_back(r < 5 ? Value::Null() : Value(big + rng->NextInt64(-3, 3)));
    row.push_back(Value::Null());
    row.push_back(r < 15 ? Value::Null()
                         : Value("s" + std::to_string(rng->NextInt64(0, 30))));
    row.push_back(r < 10 ? Value::Null() : Value(r % 3 == 0));
    row.push_back(r < 30   ? Value(r)
                  : r < 60 ? Value("m" + std::to_string(r))
                           : Value(r / 7.0));
    const int block = (i / 40) % 3;
    row.push_back(block == 0   ? Value(r - 50)
                  : block == 1 ? Value((r - 50) / 2.0)
                               : Value("b" + std::to_string(r)));
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(TableStatsTest, TypedAddBatchEqualsAddRow) {
  const std::vector<std::string> names = {"dbl", "big", "nul", "str",
                                          "flag", "mix", "shift"};
  const std::vector<int> slots = {0, 1, 2, 3, 4, 5, 6};
  Rng rng(21);
  const std::vector<Row> left = TypedStatsRows(700, &rng);
  const std::vector<Row> right = TypedStatsRows(500, &rng);
  const std::vector<Row> after = TypedStatsRows(400, &rng);
  // Batches of uneven sizes; every batch also feeds a selection (odd rows
  // and every third row) through the selection-vector AddBatch.
  auto add_batches = [&](const std::vector<Row>& rows, TableStatsBuilder* b) {
    for (size_t start = 0; start < rows.size(); start += 40) {
      const size_t n = std::min<size_t>(40, rows.size() - start);
      b->AddBatch(BatchFromRows(rows.data() + start, n, slots.size()));
    }
  };
  auto add_selected = [&](const std::vector<Row>& rows, TableStatsBuilder* b,
                          TableStatsBuilder* by_row) {
    for (size_t start = 0; start < rows.size(); start += 40) {
      const size_t n = std::min<size_t>(40, rows.size() - start);
      const ColumnBatch batch =
          BatchFromRows(rows.data() + start, n, slots.size());
      std::vector<uint32_t> sel;
      for (uint32_t i = 0; i < n; ++i) {
        if (i % 2 == 1 || i % 3 == 0) sel.push_back(i);
      }
      b->AddBatch(batch, sel.data(), sel.size());
      for (uint32_t i : sel) by_row->AddRow(rows[start + i]);
    }
  };

  // Two builders, merged, then more batches after the merge; the row
  // builder takes the same path.
  TableStatsBuilder batched(names, slots), batched_right(names, slots);
  TableStatsBuilder by_row(names, slots), by_row_right(names, slots);
  add_batches(left, &batched);
  for (const Row& row : left) by_row.AddRow(row);
  add_batches(right, &batched_right);
  for (const Row& row : right) by_row_right.AddRow(row);
  batched.Merge(batched_right);
  by_row.Merge(by_row_right);
  add_batches(after, &batched);
  for (const Row& row : after) by_row.AddRow(row);
  add_selected(left, &batched, &by_row);

  const TableStats want = by_row.Finalize();
  ExpectSameStats(batched.Finalize(), want);
  // The legs the rows are meant to reach.
  EXPECT_EQ(want.Column("nul")->null_count, want.row_count);
  EXPECT_TRUE(want.Column("nul")->min_value.is_null());
  EXPECT_EQ(want.Column("big")->min_value.type(), ValueType::kInt64);
  EXPECT_GT(want.Column("str")->null_count, 0u);
}

TEST(TableStatsTest, TypedAddBatchKeepsFirstOfTiedExtremes) {
  // 2^53 + 1 rounds to 2^53 as a double, so the two tie under
  // Value::Compare: the first one seen stays the min (and the max).
  const int64_t big = int64_t{1} << 53;
  const std::vector<Row> rows = {{Value(big + 1)}, {Value(big)},
                                 {Value(big + 1)}};
  TableStatsBuilder batched({"k"}, {0}), by_row({"k"}, {0});
  batched.AddBatch(BatchFromRows(rows.data(), rows.size(), 1));
  for (const Row& row : rows) by_row.AddRow(row);
  ExpectSameStats(batched.Finalize(), by_row.Finalize());
  EXPECT_EQ(batched.Finalize().Column("k")->min_value.AsInt64(), big + 1);
  EXPECT_EQ(batched.Finalize().Column("k")->max_value.AsInt64(), big + 1);
}

TEST(StatsManagerTest, PutGetRemove) {
  StatsManager manager;
  EXPECT_FALSE(manager.Has("t"));
  EXPECT_EQ(manager.Get("t"), nullptr);
  TableStats stats;
  stats.row_count = 7;
  manager.Put("t", stats);
  ASSERT_TRUE(manager.Has("t"));
  EXPECT_EQ(manager.Get("t")->row_count, 7u);
  EXPECT_EQ(manager.TableNames(), std::vector<std::string>{"t"});
  manager.Remove("t");
  EXPECT_FALSE(manager.Has("t"));
  manager.Put("a", stats);
  manager.Clear();
  EXPECT_TRUE(manager.TableNames().empty());
}

TEST(StatsManagerTest, PutOverwrites) {
  StatsManager manager;
  TableStats s1, s2;
  s1.row_count = 1;
  s2.row_count = 2;
  manager.Put("t", s1);
  manager.Put("t", s2);
  EXPECT_EQ(manager.Get("t")->row_count, 2u);
}

}  // namespace
}  // namespace dynopt
