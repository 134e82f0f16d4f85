#include "stats/sketch.h"

#include <algorithm>
#include <cmath>

#include "exec/vector_kernels.h"

namespace dynopt {

namespace {
constexpr uint64_t kBloomSalt = 0x71ee7f17e25a1d5bULL;
constexpr uint64_t kAgmsBucketSalt = 0xa0355bcb5e77d6a1ULL;
constexpr uint64_t kAgmsSignSalt = 0x51674a7b8f3c29e3ULL;
}  // namespace

// ---- BloomFilter --------------------------------------------------------

BloomFilter::BloomFilter(uint64_t expected_keys, double bits_per_key,
                         uint64_t seed)
    : seed_(seed) {
  if (bits_per_key < 1.0) bits_per_key = 1.0;
  // Optimal hash count for the budget; each function owns its own slice so
  // shards OR together and probes never collide across functions.
  num_hashes_ = static_cast<size_t>(bits_per_key * 0.69314718056 + 0.5);
  if (num_hashes_ < 1) num_hashes_ = 1;
  if (num_hashes_ > 30) num_hashes_ = 30;
  uint64_t total_bits =
      static_cast<uint64_t>(static_cast<double>(std::max<uint64_t>(
                                expected_keys, 1)) * bits_per_key) +
      num_hashes_;
  slice_bits_ = std::max<uint64_t>(64, total_bits / num_hashes_);
  // Round slices up to whole words so merging is pure word-wise OR.
  slice_bits_ = (slice_bits_ + 63) / 64 * 64;
  words_.assign(slice_bits_ / 64 * num_hashes_, 0);
}

void BloomFilter::Probe(uint64_t key_hash, uint64_t* slots) const {
  // Kirsch–Mitzenmacher double hashing: two derived hashes drive all k
  // probes, deterministically under the configured seed.
  const uint64_t h1 = SketchMix64(key_hash ^ seed_);
  const uint64_t h2 = SketchMix64(h1 ^ kBloomSalt) | 1;  // Odd: full cycle.
  uint64_t h = h1;
  for (size_t i = 0; i < num_hashes_; ++i) {
    slots[i] = i * slice_bits_ + (h % slice_bits_);
    h += h2;
  }
}

void BloomFilter::Insert(uint64_t key_hash) {
  uint64_t slots[32];
  Probe(key_hash, slots);
  for (size_t i = 0; i < num_hashes_; ++i) {
    words_[slots[i] >> 6] |= uint64_t{1} << (slots[i] & 63);
  }
  ++num_inserted_;
}

bool BloomFilter::MayContain(uint64_t key_hash) const {
  uint64_t slots[32];
  Probe(key_hash, slots);
  for (size_t i = 0; i < num_hashes_; ++i) {
    if ((words_[slots[i] >> 6] & (uint64_t{1} << (slots[i] & 63))) == 0) {
      return false;
    }
  }
  return true;
}

bool BloomFilter::MergeFrom(const BloomFilter& other) {
  if (slice_bits_ != other.slice_bits_ || num_hashes_ != other.num_hashes_ ||
      seed_ != other.seed_ || words_.size() != other.words_.size()) {
    return false;
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  num_inserted_ += other.num_inserted_;
  return true;
}

// ---- FastAgmsSketch -----------------------------------------------------

FastAgmsSketch::FastAgmsSketch(const SketchOptions& options)
    : depth_(std::max<size_t>(1, options.agms_depth)),
      width_(std::max<size_t>(1, options.agms_width)),
      seed_(options.seed),
      counters_(depth_ * width_, 0) {}

void FastAgmsSketch::Update(uint64_t key_hash, int64_t count) {
  for (size_t d = 0; d < depth_; ++d) {
    // Per-row independent bucket + sign hashes, both derived from the key
    // hash and the row-salted seed.
    const uint64_t b = SketchMix64(key_hash ^ (seed_ + d * kAgmsBucketSalt));
    const uint64_t s = SketchMix64(b ^ kAgmsSignSalt);
    const int64_t sign = (s & 1) != 0 ? 1 : -1;
    counters_[d * width_ + b % width_] += sign * count;
  }
  total_count_ += static_cast<uint64_t>(count > 0 ? count : -count);
}

double FastAgmsSketch::JoinSizeEstimate(const FastAgmsSketch& other) const {
  if (!SameShape(other)) return -1.0;
  std::vector<double> rows(depth_);
  for (size_t d = 0; d < depth_; ++d) {
    double dot = 0;
    const int64_t* a = &counters_[d * width_];
    const int64_t* b = &other.counters_[d * width_];
    for (size_t w = 0; w < width_; ++w) {
      dot += static_cast<double>(a[w]) * static_cast<double>(b[w]);
    }
    rows[d] = dot;
  }
  std::sort(rows.begin(), rows.end());
  double median;
  if (depth_ % 2 == 1) {
    median = rows[depth_ / 2];
  } else {
    median = 0.5 * (rows[depth_ / 2 - 1] + rows[depth_ / 2]);
  }
  return std::max(0.0, median);
}

bool FastAgmsSketch::MergeFrom(const FastAgmsSketch& other) {
  if (!SameShape(other)) return false;
  for (size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
  total_count_ += other.total_count_;
  return true;
}

// ---- JoinKeySketch ------------------------------------------------------

void JoinKeySketch::AddKeyColumn(const ColumnBatch& batch, int column) {
  std::vector<uint64_t> hashes(batch.num_rows);
  std::vector<uint8_t> key_null(batch.num_rows, 0);
  HashKeyColumns(batch, &column, 1, hashes.data(), key_null.data());
  rows += batch.num_rows;
  for (size_t i = 0; i < batch.num_rows; ++i) {
    if (key_null[i]) {
      ++null_keys;
      continue;
    }
    bloom.Insert(hashes[i]);
    agms.Update(hashes[i]);
  }
}

// ---- SketchManager ------------------------------------------------------

void SketchManager::Put(const std::string& table, const std::string& column,
                        std::shared_ptr<const JoinKeySketch> sketch) {
  std::lock_guard<std::mutex> lock(mu_);
  sketches_[Key(table, column)] = std::move(sketch);
}

std::shared_ptr<const JoinKeySketch> SketchManager::Get(
    const std::string& table, const std::string& column) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sketches_.find(Key(table, column));
  return it == sketches_.end() ? nullptr : it->second;
}

bool SketchManager::Has(const std::string& table,
                        const std::string& column) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sketches_.count(Key(table, column)) > 0;
}

void SketchManager::RemoveTable(const std::string& table) {
  const std::string prefix = table + "|";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sketches_.lower_bound(prefix); it != sketches_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = sketches_.erase(it);
  }
}

void SketchManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sketches_.clear();
}

std::vector<std::string> SketchManager::Keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> keys;
  keys.reserve(sketches_.size());
  for (const auto& [key, sketch] : sketches_) keys.push_back(key);
  return keys;
}

}  // namespace dynopt
