#include "stats/column_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace dynopt {

namespace {

/// Sketch resolution of statistics collection, fixed at the accuracy regime
/// the paper relies on: fine enough that single fixed-value range
/// predicates estimate well, cheap enough that collection is a small
/// fraction of scan cost.
constexpr double kGkEpsilon = 0.005;
constexpr int kHllPrecision = 12;

/// HashAt of a non-null int64 / double row.
uint64_t KeyHash(int64_t x) { return Mix64(static_cast<uint64_t>(x)); }
uint64_t KeyHash(double x) { return ColumnVector::HashDoubleValue(x); }

}  // namespace

double ColumnStatsSnapshot::EstimateEqSelectivity(const Value& v) const {
  if (count == 0 || ndv <= 0) return 0.1;  // Selinger default 1/10.
  if (!v.is_null() && !min_value.is_null() && !max_value.is_null()) {
    if (v < min_value || v > max_value) return 0.0;
  }
  return std::clamp(1.0 / ndv, 0.0, 1.0);
}

double ColumnStatsSnapshot::EstimateRangeSelectivity(const Value& lo,
                                                     const Value& hi) const {
  if (count == 0) return 1.0 / 3.0;
  double lo_key = lo.is_null() ? -std::numeric_limits<double>::infinity()
                               : lo.NumericKey();
  double hi_key = hi.is_null() ? std::numeric_limits<double>::infinity()
                               : hi.NumericKey();
  return histogram.EstimateRangeFraction(lo_key, hi_key);
}

std::string ColumnStatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "count=" << count << " nulls=" << null_count << " ndv=" << ndv
     << " min=" << min_value.ToString() << " max=" << max_value.ToString();
  return os.str();
}

ColumnStatsBuilder::ColumnStatsBuilder(const StatsOptions& options)
    : options_(options), gk_(kGkEpsilon), hll_(kHllPrecision) {}

void ColumnStatsBuilder::Add(const Value& v, uint64_t hash) {
  ++count_;
  if (v.is_null()) {
    ++null_count_;
    return;
  }
  if (min_value_.is_null() || v < min_value_) min_value_ = v;
  if (max_value_.is_null() || v > max_value_) max_value_ = v;
  hll_.Add(hash);
  gk_.Insert(v.NumericKey());
}

void ColumnStatsBuilder::AddColumn(const ColumnVector& col,
                                   const uint32_t* sel, size_t n) {
  // The typed loops fold min/max within one value domain, so they run only
  // while the running min/max is unset or of that domain (a column whose
  // type changes between batches takes the per-value path).
  const bool numeric_seed =
      min_value_.is_null() ||
      (min_value_.IsNumeric() && max_value_.IsNumeric());
  const bool string_seed =
      min_value_.is_null() || (min_value_.type() == ValueType::kString &&
                               max_value_.type() == ValueType::kString);
  if (col.kind == ColumnKind::kInt64 && numeric_seed) {
    AddNumbers(col.i64, col, sel, n);
  } else if (col.kind == ColumnKind::kDouble && numeric_seed) {
    AddNumbers(col.f64, col, sel, n);
  } else if (col.kind == ColumnKind::kString && string_seed) {
    AddStrings(col, sel, n);
  } else {
    for (size_t k = 0; k < n; ++k) {
      const size_t r = sel != nullptr ? sel[k] : k;
      Add(col.ValueAt(r), col.HashAt(r));
    }
  }
}

template <typename T>
void ColumnStatsBuilder::AddNumbers(const std::vector<T>& data,
                                    const ColumnVector& col,
                                    const uint32_t* sel, size_t n) {
  // Value::Compare orders numbers by their double keys, so the running
  // min/max is the same sequential strict-< fold over those keys (NaN never
  // replaces nor is replaced, as Compare calls it equal to everything).
  constexpr size_t kNone = ~size_t{0};
  bool have = !min_value_.is_null();
  double min_key = have ? min_value_.NumericKey() : 0.0;
  double max_key = have ? max_value_.NumericKey() : 0.0;
  size_t min_row = kNone;  // Row that last replaced the min (max), if any.
  size_t max_row = kNone;
  const bool has_validity = !col.validity.empty();
  uint64_t nulls = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t r = sel != nullptr ? sel[k] : k;
    if (has_validity && col.validity[r] == 0) {
      ++nulls;
      continue;
    }
    const T x = data[r];
    const double key = static_cast<double>(x);
    if (!have) {
      have = true;
      min_key = max_key = key;
      min_row = max_row = r;
    } else {
      if (key < min_key) {
        min_key = key;
        min_row = r;
      }
      if (key > max_key) {
        max_key = key;
        max_row = r;
      }
    }
    hll_.Add(KeyHash(x));
    gk_.Insert(key);
  }
  count_ += n;
  null_count_ += nulls;
  if (min_row != kNone) min_value_ = Value(data[min_row]);
  if (max_row != kNone) max_value_ = Value(data[max_row]);
}

void ColumnStatsBuilder::AddStrings(const ColumnVector& col,
                                    const uint32_t* sel, size_t n) {
  // Min/max by dictionary entry; the sketches read the entry's cached
  // hash, whose >> 11 is Value::NumericKey of the string.
  constexpr uint32_t kNone = 0xffffffffu;
  const StringDict* dict = col.dict.get();
  bool have = !min_value_.is_null();
  const std::string* min_s = have ? &min_value_.AsString() : nullptr;
  const std::string* max_s = have ? &max_value_.AsString() : nullptr;
  uint32_t min_code = kNone;  // Code that last replaced the min (max).
  uint32_t max_code = kNone;
  const bool has_validity = !col.validity.empty();
  uint64_t nulls = 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t r = sel != nullptr ? sel[k] : k;
    if (has_validity && col.validity[r] == 0) {
      ++nulls;
      continue;
    }
    const uint32_t code = col.codes[r];
    const std::string& s = dict->entry(code);
    if (!have) {
      have = true;
      min_s = max_s = &s;
      min_code = max_code = code;
    } else {
      if (code != min_code && s < *min_s) {
        min_s = &s;
        min_code = code;
      }
      if (code != max_code && s > *max_s) {
        max_s = &s;
        max_code = code;
      }
    }
    const uint64_t h = dict->hash(code);
    hll_.Add(h);
    gk_.Insert(static_cast<double>(h >> 11));
  }
  count_ += n;
  null_count_ += nulls;
  if (min_code != kNone) min_value_ = Value(dict->entry(min_code));
  if (max_code != kNone) max_value_ = Value(dict->entry(max_code));
}

void ColumnStatsBuilder::Merge(const ColumnStatsBuilder& other) {
  count_ += other.count_;
  null_count_ += other.null_count_;
  if (!other.min_value_.is_null() &&
      (min_value_.is_null() || other.min_value_ < min_value_)) {
    min_value_ = other.min_value_;
  }
  if (!other.max_value_.is_null() &&
      (max_value_.is_null() || other.max_value_ > max_value_)) {
    max_value_ = other.max_value_;
  }
  hll_.Merge(other.hll_);
  gk_.Merge(other.gk_);
}

ColumnStatsSnapshot ColumnStatsBuilder::Finalize() const {
  ColumnStatsSnapshot snap;
  snap.count = count_;
  snap.null_count = null_count_;
  const uint64_t non_null = count_ - null_count_;
  if (non_null > 0) {
    snap.ndv = std::min(hll_.Estimate(), static_cast<double>(non_null));
    snap.ndv = std::max(snap.ndv, 1.0);
  }
  snap.min_value = min_value_;
  snap.max_value = max_value_;
  snap.histogram =
      EquiHeightHistogram::FromSketch(gk_, options_.histogram_buckets);
  return snap;
}

}  // namespace dynopt
