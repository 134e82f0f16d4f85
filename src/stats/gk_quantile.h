#ifndef DYNOPT_STATS_GK_QUANTILE_H_
#define DYNOPT_STATS_GK_QUANTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dynopt {

/// Greenwald–Khanna epsilon-approximate quantile summary.
///
/// This is the sketch the paper (Section 4) uses to extract the bucket
/// borders of equi-height histograms: "Following the Greenwald-Khanna
/// algorithm, we extract quantiles which represent the right border of a
/// bucket in an equi-height histogram."
///
/// Guarantees: after inserting n values, Quantile(phi) returns a value whose
/// rank is within eps*n of ceil(phi*n). Summaries for different partitions
/// of a dataset can be merged (error degrades to the sum of the component
/// epsilons, which is the standard GK merging bound).
///
/// Insertion is block-buffered: the values inserted since the last compress
/// wait in a pending block and are merged into the summary in one sorted
/// pass when the compress schedule (every 1/(2*eps) inserts) comes due, or
/// on Merge. The merge rebuilds exactly the tuples per-value insertion
/// would have made, so every summary (and so every histogram bound) is
/// bit-identical to the row-at-a-time algorithm. Const readers merge the
/// pending block into a local copy and never write the sketch.
class GkQuantileSketch {
 public:
  explicit GkQuantileSketch(double epsilon = 0.005);

  /// Inserts one observation.
  void Insert(double value);

  /// Merges another summary into this one (partition-level collection).
  void Merge(const GkQuantileSketch& other);

  /// Returns an eps-approximate phi-quantile, phi in [0, 1]. Requires
  /// count() > 0.
  double Quantile(double phi) const;

  /// Estimated fraction of inserted values that are <= v (an approximate
  /// CDF evaluation). Returns a value in [0, 1]; 0 if empty.
  double EstimateRankFraction(double v) const;

  /// Extracts `num_buckets + 1` boundaries of an equi-height histogram
  /// (the 0/num_buckets ... num_buckets/num_buckets quantiles).
  std::vector<double> ExtractBoundaries(int num_buckets) const;

  uint64_t count() const { return count_; }
  double epsilon() const { return epsilon_; }
  size_t NumTuples() const { return tuples_.size() + pending_.size(); }

  /// GK summary tuple: value v covers g ranks; delta bounds rank slack.
  struct Tuple {
    double v;
    uint64_t g;
    uint64_t delta;
  };

  /// The summary as per-value insertion would hold it now: pending values
  /// merged in, not compressed.
  std::vector<Tuple> Tuples() const;

 private:
  /// Per-value insertion (lower_bound + mid-vector insert), used once a NaN
  /// has entered: the summary is then no longer sorted, and only the same
  /// binary search reproduces where values land.
  void InsertOne(double value);
  /// Sorts `block` (arrival order) into summary order and merges it into
  /// `tuples`; `buf` is scratch.
  static void MergeBlock(std::vector<Tuple>* block, std::vector<Tuple>* buf,
                         std::vector<Tuple>* tuples);
  /// Merges the pending block into tuples_ (no compress).
  void FlushPending();
  /// Reads the summary, through `scratch` when values are pending.
  const std::vector<Tuple>& Summary(std::vector<Tuple>* scratch) const;
  void Compress();

  double epsilon_;
  uint64_t compress_interval_;  // 1/(2*eps) inserts between compresses.
  uint64_t count_ = 0;
  std::vector<Tuple> tuples_;  // Sorted by v unless `unsorted_`.
  uint64_t inserts_since_compress_ = 0;
  // Values inserted since the last flush as g = 1 tuples, in arrival order
  // (sort scratch alongside), and the smallest/largest value held: they
  // decide whether an arrival lands strictly inside the summary.
  std::vector<Tuple> pending_;
  std::vector<Tuple> sort_buf_;
  double lo_ = 0;
  double hi_ = 0;
  bool unsorted_ = false;  // A NaN was inserted: per-value insertion only.
};

}  // namespace dynopt

#endif  // DYNOPT_STATS_GK_QUANTILE_H_
