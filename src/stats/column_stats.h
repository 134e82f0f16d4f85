#ifndef DYNOPT_STATS_COLUMN_STATS_H_
#define DYNOPT_STATS_COLUMN_STATS_H_

#include <string>

#include "common/value.h"
#include "exec/batch.h"
#include "stats/gk_quantile.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"

namespace dynopt {

/// Tuning knobs for statistics collection.
struct StatsOptions {
  int histogram_buckets = 64;
};

/// Finalized, immutable per-column statistics snapshot used by the
/// optimizer: distinct count (HLL), value range, and an equi-height
/// histogram for range selectivity.
struct ColumnStatsSnapshot {
  uint64_t count = 0;
  uint64_t null_count = 0;
  double ndv = 0.0;
  Value min_value;
  Value max_value;
  EquiHeightHistogram histogram;

  /// Selectivity of `column = v` among non-null values: 1/ndv (uniform
  /// within distinct values), clamped to [0, 1]. Out-of-range constants
  /// estimate ~0.
  double EstimateEqSelectivity(const Value& v) const;

  /// Selectivity of values in [lo, hi] (either side may be open: pass a
  /// null Value). Uses the histogram.
  double EstimateRangeSelectivity(const Value& lo, const Value& hi) const;

  std::string ToString() const;
};

/// Streaming accumulator for one column; mergeable across partitions.
class ColumnStatsBuilder {
 public:
  explicit ColumnStatsBuilder(const StatsOptions& options = StatsOptions());

  void Add(const Value& v) { Add(v, v.Hash()); }
  /// `hash` is v.Hash(), e.g. a batch column's cached HashAt.
  void Add(const Value& v, uint64_t hash);
  /// Adds rows sel[0..n) of `col` in order (rows 0..n when `sel` is null):
  /// exactly Add(col.ValueAt(r), col.HashAt(r)) for each row r, but int64,
  /// double and string columns run a typed loop that builds no Value.
  void AddColumn(const ColumnVector& col, const uint32_t* sel, size_t n);
  void Merge(const ColumnStatsBuilder& other);
  ColumnStatsSnapshot Finalize() const;

  uint64_t count() const { return count_; }

 private:
  template <typename T>
  void AddNumbers(const std::vector<T>& data, const ColumnVector& col,
                  const uint32_t* sel, size_t n);
  void AddStrings(const ColumnVector& col, const uint32_t* sel, size_t n);

  StatsOptions options_;
  uint64_t count_ = 0;
  uint64_t null_count_ = 0;
  Value min_value_;
  Value max_value_;
  GkQuantileSketch gk_;
  HyperLogLog hll_;
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_COLUMN_STATS_H_
