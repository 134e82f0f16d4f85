#include "stats/gk_quantile.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dynopt {

namespace {

/// Quantile's stopping rule for a tuple with rank bounds [rmin, rmin+delta]
/// against the 1-based target rank. It only gets harder to meet as `target`
/// rises, so the first tuple meeting it never moves backward.
bool QuantileHit(uint64_t rmin, uint64_t delta, double target, double slack) {
  const double rmax = static_cast<double>(rmin + delta);
  return (rmax >= target - slack &&
          static_cast<double>(rmin) >= target - slack) ||
         rmax >= target + slack;
}

}  // namespace

GkQuantileSketch::GkQuantileSketch(double epsilon) : epsilon_(epsilon) {
  DYNOPT_CHECK(epsilon > 0 && epsilon < 0.5);
  compress_interval_ = static_cast<uint64_t>(1.0 / (2.0 * epsilon_));
}

void GkQuantileSketch::Insert(double value) {
  if (unsorted_ || std::isnan(value)) {
    FlushPending();
    unsorted_ = true;
    InsertOne(value);
  } else {
    // Per-value insertion gives delta = floor(2*eps*n) exactly when the
    // value lands strictly inside the summary: some held value is < it and
    // some is >= it. (The product is >= 0, so the cast is that floor.)
    uint64_t delta = 0;
    if (count_ == 0) {
      lo_ = hi_ = value;
    } else {
      if (lo_ < value && hi_ >= value) {
        delta = static_cast<uint64_t>(2.0 * epsilon_ *
                                      static_cast<double>(count_));
      }
      if (value < lo_) lo_ = value;
      if (value > hi_) hi_ = value;
    }
    pending_.push_back(Tuple{value, 1, delta});
  }
  ++count_;
  if (++inserts_since_compress_ >= compress_interval_) {
    FlushPending();
    Compress();
    inserts_since_compress_ = 0;
  }
}

void GkQuantileSketch::InsertOne(double value) {
  // Find insertion position (first tuple with v >= value).
  auto it = std::lower_bound(
      tuples_.begin(), tuples_.end(), value,
      [](const Tuple& t, double v) { return t.v < v; });
  uint64_t delta = 0;
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insert: delta = floor(2 * eps * n).
    delta = static_cast<uint64_t>(std::floor(2.0 * epsilon_ *
                                             static_cast<double>(count_)));
  }
  tuples_.insert(it, Tuple{value, 1, delta});
}

void GkQuantileSketch::MergeBlock(std::vector<Tuple>* block,
                                  std::vector<Tuple>* buf,
                                  std::vector<Tuple>* tuples) {
  // lower_bound placed each arrival ahead of every held value equal to it:
  // ascending values, and among equal values the latest arrival first. An
  // insertion sort of short runs that moves each arrival ahead of its
  // equals, then bottom-up merges that take the right (later) run's value
  // on ties, give that order. The merges' selects are branch-free, as the
  // comparisons of a random block mispredict half the time.
  constexpr size_t kRun = 8;
  const size_t k = block->size();
  Tuple* src = block->data();
  for (size_t lo = 0; lo < k; lo += kRun) {
    const size_t hi = std::min(lo + kRun, k);
    for (size_t i = lo + 1; i < hi; ++i) {
      const Tuple x = src[i];
      size_t j = i;
      for (; j > lo && !(src[j - 1].v < x.v); --j) src[j] = src[j - 1];
      src[j] = x;
    }
  }
  buf->resize(k);
  Tuple* dst = buf->data();
  for (size_t width = kRun; width < k; width *= 2) {
    for (size_t lo = 0; lo < k; lo += 2 * width) {
      const size_t mid = std::min(lo + width, k);
      const size_t hi = std::min(lo + 2 * width, k);
      size_t i = lo, j = mid, o = lo;
      while (i < mid && j < hi) {
        const bool right = !(src[i].v < src[j].v);
        dst[o++] = *(right ? &src[j] : &src[i]);
        j += right;
        i += !right;
      }
      while (i < mid) dst[o++] = src[i++];
      while (j < hi) dst[o++] = src[j++];
    }
    std::swap(src, dst);
  }
  const Tuple* b = src;
  // Merge from the back, in place: a held tuple goes after every block
  // value it is not below.
  size_t i = tuples->size();
  size_t j = k;
  tuples->resize(i + j);
  Tuple* t = tuples->data();
  size_t w = i + j;
  while (i > 0 && j > 0) {
    const bool held = !(t[i - 1].v < b[j - 1].v);
    t[--w] = *(held ? &t[i - 1] : &b[j - 1]);
    i -= held;
    j -= !held;
  }
  while (j > 0) t[--w] = b[--j];
}

void GkQuantileSketch::FlushPending() {
  if (pending_.empty()) return;
  MergeBlock(&pending_, &sort_buf_, &tuples_);
  pending_.clear();
}

const std::vector<GkQuantileSketch::Tuple>& GkQuantileSketch::Summary(
    std::vector<Tuple>* scratch) const {
  if (pending_.empty()) return tuples_;
  std::vector<Tuple> block = pending_;
  std::vector<Tuple> buf;
  *scratch = tuples_;
  MergeBlock(&block, &buf, scratch);
  return *scratch;
}

std::vector<GkQuantileSketch::Tuple> GkQuantileSketch::Tuples() const {
  std::vector<Tuple> scratch;
  return Summary(&scratch);
}

void GkQuantileSketch::Compress() {
  const size_t n = tuples_.size();
  if (n < 3) return;
  const double threshold = 2.0 * epsilon_ * static_cast<double>(count_);
  // Greedily merge tuple i into its successor when the band condition
  // g_i + g_{i+1} + delta_{i+1} <= 2*eps*n holds. We keep the first and
  // last tuples intact so min/max quantiles stay exact. In place and
  // branch-free: t[0..w] are kept, `last` is the tuple after them that may
  // still fold into its successor, and w + 1 never passes i.
  Tuple* t = tuples_.data();
  size_t w = 0;
  Tuple last = t[1];
  for (size_t i = 2; i + 1 < n; ++i) {
    Tuple cur = t[i];
    const bool fold =
        static_cast<double>(last.g + cur.g + cur.delta) <= threshold;
    t[w + 1] = last;  // Overwritten again when `last` folds.
    w += !fold;
    cur.g += fold ? last.g : 0;
    last = cur;
  }
  t[++w] = last;
  t[++w] = t[n - 1];
  tuples_.resize(w + 1);
}

void GkQuantileSketch::Merge(const GkQuantileSketch& other) {
  if (other.count_ == 0) return;
  std::vector<Tuple> scratch;
  const std::vector<Tuple>& theirs = other.Summary(&scratch);
  if (count_ == 0) {
    tuples_ = theirs;
    count_ = other.count_;
  } else {
    // Standard GK merge: interleave the two sorted tuple sequences. The
    // resulting summary answers queries with error eps_a + eps_b; we then
    // compress under the (larger) combined count.
    FlushPending();
    std::vector<Tuple> merged;
    merged.reserve(tuples_.size() + theirs.size());
    size_t i = 0, j = 0;
    while (i < tuples_.size() && j < theirs.size()) {
      if (tuples_[i].v <= theirs[j].v) {
        merged.push_back(tuples_[i++]);
      } else {
        merged.push_back(theirs[j++]);
      }
    }
    while (i < tuples_.size()) merged.push_back(tuples_[i++]);
    while (j < theirs.size()) merged.push_back(theirs[j++]);
    tuples_ = std::move(merged);
    count_ += other.count_;
    Compress();
  }
  unsorted_ = unsorted_ || other.unsorted_;
  lo_ = tuples_.front().v;
  hi_ = tuples_.back().v;
}

double GkQuantileSketch::Quantile(double phi) const {
  DYNOPT_CHECK(count_ > 0);
  std::vector<Tuple> scratch;
  const std::vector<Tuple>& tuples = Summary(&scratch);
  phi = std::clamp(phi, 0.0, 1.0);
  const double target =
      phi * static_cast<double>(count_ - 1) + 1.0;  // 1-based rank.
  const double slack = epsilon_ * static_cast<double>(count_);
  uint64_t rmin = 0;
  for (const Tuple& t : tuples) {
    rmin += t.g;
    if (QuantileHit(rmin, t.delta, target, slack)) return t.v;
  }
  return tuples.back().v;
}

double GkQuantileSketch::EstimateRankFraction(double v) const {
  if (count_ == 0) return 0.0;
  std::vector<Tuple> scratch;
  const std::vector<Tuple>& tuples = Summary(&scratch);
  if (v < tuples.front().v) return 0.0;
  if (v >= tuples.back().v) return 1.0;
  uint64_t rmin = 0;
  double prev_v = tuples.front().v;
  uint64_t prev_rank = 0;
  for (const Tuple& t : tuples) {
    rmin += t.g;
    const uint64_t mid_rank = rmin + t.delta / 2;
    if (t.v > v) {
      // Linear interpolation between the previous tuple and this one.
      double span = t.v - prev_v;
      double frac = span > 0 ? (v - prev_v) / span : 0.0;
      double rank = static_cast<double>(prev_rank) +
                    frac * static_cast<double>(mid_rank - prev_rank);
      return std::clamp(rank / static_cast<double>(count_), 0.0, 1.0);
    }
    prev_v = t.v;
    prev_rank = mid_rank;
  }
  return 1.0;
}

std::vector<double> GkQuantileSketch::ExtractBoundaries(
    int num_buckets) const {
  std::vector<double> boundaries;
  if (count_ == 0 || num_buckets <= 0) return boundaries;
  boundaries.reserve(static_cast<size_t>(num_buckets) + 1);
  std::vector<Tuple> scratch;
  const std::vector<Tuple>& tuples = Summary(&scratch);
  const double slack = epsilon_ * static_cast<double>(count_);
  // One forward pass: each boundary is Quantile(b/num_buckets), and the
  // tuple Quantile stops at never moves backward as b rises.
  size_t i = 0;
  uint64_t rmin = tuples[0].g;
  for (int b = 0; b <= num_buckets; ++b) {
    const double phi = std::clamp(
        static_cast<double>(b) / static_cast<double>(num_buckets), 0.0, 1.0);
    const double target = phi * static_cast<double>(count_ - 1) + 1.0;
    while (i < tuples.size() &&
           !QuantileHit(rmin, tuples[i].delta, target, slack)) {
      if (++i < tuples.size()) rmin += tuples[i].g;
    }
    boundaries.push_back(i < tuples.size() ? tuples[i].v : tuples.back().v);
  }
  return boundaries;
}

}  // namespace dynopt
