#ifndef DYNOPT_EXEC_BATCH_H_
#define DYNOPT_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/value.h"
#include "exec/dataset.h"
#include "exec/row_kernels.h"

namespace dynopt {

/// Columnar batch representation for the vectorized execution engine.
///
/// A ColumnBatch holds up to `max_batch_size` rows as typed column vectors:
/// int64, double and bool columns are flat arrays; string columns are
/// dictionary-encoded (codes into a per-column StringDict that caches each
/// entry's hash and byte size, so hashing/sizing a string value is an array
/// load instead of an FNV walk); columns whose values mix types — possible
/// because rows are dynamically typed — fall back to a Value-per-row
/// representation that round-trips exactly.
///
/// The batch is the engine's one data format: tables store batches
/// (storage/table.h), scans copy slices of them, and job results and
/// materialized intermediates stay batches, on disk as well (the
/// checksummed column blocks of storage/serde.h). Rows remain only at the
/// load API, result delivery and the seed reference kernels. Every batch
/// carries the per-row byte sizes (`row_sizes`, RowSizeBytes of each row)
/// computed once when the row was added, so network/disk metering equals
/// the row-based cost model byte for byte.

/// Physical layout of one column vector.
enum class ColumnKind : uint8_t {
  kInt64,   ///< Flat int64 array (+ optional validity).
  kDouble,  ///< Flat double array (+ optional validity).
  kBool,    ///< Flat byte array, 0/1 (+ optional validity).
  kString,  ///< Dictionary codes into a shared StringDict (+ validity).
  kValues,  ///< Mixed-type fallback: one Value per row (exact round-trip).
};

/// Append-only string dictionary shared by one or more string columns
/// (std::shared_ptr). Caches each entry's key hash (HashString) and cost-
/// model byte size (16 + length), so kernels never re-walk string payloads.
/// Interning uses an open-addressing index over the cached hashes.
class StringDict {
 public:
  size_t size() const { return entries_.size(); }
  const std::string& entry(uint32_t code) const { return entries_[code]; }
  uint64_t hash(uint32_t code) const { return hashes_[code]; }
  uint64_t size_bytes(uint32_t code) const { return sizes_[code]; }

  /// Code of `s`, inserting it if absent.
  uint32_t Intern(const std::string& s) { return Intern(s, HashString(s)); }

  /// Intern with a precomputed HashString(s) (dictionary merges reuse the
  /// source dictionary's cached hash).
  uint32_t Intern(const std::string& s, uint64_t h) {
    if (slots_.empty()) Rehash(16);
    size_t b = static_cast<size_t>(h) & slot_mask_;
    while (slots_[b] != kEmpty) {
      const uint32_t code = slots_[b];
      if (hashes_[code] == h && entries_[code] == s) return code;
      b = (b + 1) & slot_mask_;
    }
    const uint32_t code = static_cast<uint32_t>(entries_.size());
    entries_.push_back(s);
    hashes_.push_back(h);
    sizes_.push_back(16 + s.size());
    slots_[b] = code;
    if (entries_.size() * 2 >= slots_.size()) Rehash(slots_.size() * 2);
    return code;
  }

  /// Code of `s` if present, kNotFound otherwise (no insertion) — used to
  /// turn an equality predicate against a constant into a code compare.
  static constexpr uint32_t kNotFound = 0xffffffffu;
  uint32_t Find(const std::string& s) const {
    if (slots_.empty()) return kNotFound;
    const uint64_t h = HashString(s);
    size_t b = static_cast<size_t>(h) & slot_mask_;
    while (slots_[b] != kEmpty) {
      const uint32_t code = slots_[b];
      if (hashes_[code] == h && entries_[code] == s) return code;
      b = (b + 1) & slot_mask_;
    }
    return kNotFound;
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Rehash(size_t cap) {
    slots_.assign(cap, kEmpty);
    slot_mask_ = cap - 1;
    for (uint32_t code = 0; code < entries_.size(); ++code) {
      size_t b = static_cast<size_t>(hashes_[code]) & slot_mask_;
      while (slots_[b] != kEmpty) b = (b + 1) & slot_mask_;
      slots_[b] = code;
    }
  }

  std::vector<std::string> entries_;
  std::vector<uint64_t> hashes_;
  std::vector<uint64_t> sizes_;
  std::vector<uint32_t> slots_;
  size_t slot_mask_ = 0;
};

/// One typed column of a batch. Exactly one payload vector (per `kind`) is
/// populated; `validity` is empty when every row is non-NULL, otherwise one
/// byte per row (1 = valid). kValues columns encode NULL in the Value
/// itself and keep validity empty.
struct ColumnVector {
  ColumnKind kind = ColumnKind::kInt64;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b8;
  std::vector<uint32_t> codes;
  std::shared_ptr<StringDict> dict;
  std::vector<Value> values;
  std::vector<uint8_t> validity;

  size_t size() const {
    switch (kind) {
      case ColumnKind::kInt64:
        return i64.size();
      case ColumnKind::kDouble:
        return f64.size();
      case ColumnKind::kBool:
        return b8.size();
      case ColumnKind::kString:
        return codes.size();
      case ColumnKind::kValues:
        return values.size();
    }
    return 0;
  }

  bool IsNullAt(size_t i) const {
    if (kind == ColumnKind::kValues) return values[i].is_null();
    return !validity.empty() && validity[i] == 0;
  }

  /// Materializes row i as a Value (conversion boundary / rare fallbacks;
  /// hot kernels use the typed arrays directly).
  Value ValueAt(size_t i) const {
    if (IsNullAt(i)) return Value::Null();
    switch (kind) {
      case ColumnKind::kInt64:
        return Value(i64[i]);
      case ColumnKind::kDouble:
        return Value(f64[i]);
      case ColumnKind::kBool:
        return Value(b8[i] != 0);
      case ColumnKind::kString:
        return Value(dict->entry(codes[i]));
      case ColumnKind::kValues:
        return values[i];
    }
    return Value::Null();
  }

  /// Hash of row i's value; bit-identical to ValueHashInline(ValueAt(i)).
  uint64_t HashAt(size_t i) const {
    if (IsNullAt(i)) return 0x9ae16a3b2f90404fULL;
    switch (kind) {
      case ColumnKind::kInt64:
        return Mix64(static_cast<uint64_t>(i64[i]));
      case ColumnKind::kDouble:
        return HashDoubleValue(f64[i]);
      case ColumnKind::kBool:
        return Mix64(b8[i] != 0 ? 1 : 0);
      case ColumnKind::kString:
        return dict->hash(codes[i]);
      case ColumnKind::kValues:
        return ValueHashInline(values[i]);
    }
    return 0;
  }

  /// Cost-model byte size of row i's value; identical to
  /// ValueSizeBytesInline(ValueAt(i)).
  uint64_t SizeAt(size_t i) const {
    if (IsNullAt(i)) return 1;
    switch (kind) {
      case ColumnKind::kInt64:
      case ColumnKind::kDouble:
        return 8;
      case ColumnKind::kBool:
        return 1;
      case ColumnKind::kString:
        return dict->size_bytes(codes[i]);
      case ColumnKind::kValues:
        return ValueSizeBytesInline(values[i]);
    }
    return 1;
  }

  /// Converts a typed column to the kValues fallback in place.
  void PromoteToValues();

  /// Hash of a double under the engine's cross-type key rule (integral
  /// doubles hash like the equal int64) — the kDouble leg of
  /// ValueHashInline.
  static uint64_t HashDoubleValue(double d);
};

/// A fixed-capacity horizontal slice of a partition: `num_rows` rows across
/// `columns.size()` column vectors, plus the per-row cost-model byte sizes
/// (8-byte row header + value sizes, i.e. RowSizeBytes of each row), always
/// computed when the row enters a batch.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;
  std::vector<uint64_t> row_sizes;

  Row RowAt(size_t i) const {
    Row row;
    row.reserve(columns.size());
    for (const ColumnVector& col : columns) row.push_back(col.ValueAt(i));
    return row;
  }
};

/// Appends every row of `batches`, in order, to `out`.
inline void AppendRowsOf(const std::vector<ColumnBatch>& batches,
                         std::vector<Row>* out) {
  for (const ColumnBatch& b : batches) {
    for (size_t i = 0; i < b.num_rows; ++i) out->push_back(b.RowAt(i));
  }
}

/// A node-partitioned batch collection: every operator's input and output.
/// Columns carry fully qualified names ("ss.ss_item_sk"), kept through
/// materialization so reconstruction needs no renaming. Batch boundaries
/// within a partition carry no semantics (concatenation order is row
/// order).
struct ColumnarDataset {
  std::vector<std::string> columns;
  std::vector<std::vector<ColumnBatch>> partitions;

  ColumnarDataset() = default;
  ColumnarDataset(std::vector<std::string> cols, size_t num_partitions)
      : columns(std::move(cols)), partitions(num_partitions) {}

  /// Slot of a qualified column, or -1. Funnels through the same
  /// instrumented lookup counter as Dataset::ColumnIndex: kernels must
  /// resolve slots once per operator, never inside a batch/row loop.
  int ColumnIndex(const std::string& name) const {
    return LinearColumnIndex(columns, name);
  }

  uint64_t NumRows() const {
    uint64_t n = 0;
    for (const auto& p : partitions) {
      for (const ColumnBatch& b : p) n += b.num_rows;
    }
    return n;
  }

  uint64_t PartitionRows(size_t p) const {
    uint64_t n = 0;
    for (const ColumnBatch& b : partitions[p]) n += b.num_rows;
    return n;
  }

  /// RowSizeBytes summed over every row.
  uint64_t TotalBytes() const {
    uint64_t bytes = 0;
    for (const auto& p : partitions) {
      for (const ColumnBatch& b : p) {
        for (uint64_t s : b.row_sizes) bytes += s;
      }
    }
    return bytes;
  }

  /// All rows in partition order (result delivery).
  std::vector<Row> GatherRows() const {
    std::vector<Row> out;
    out.reserve(NumRows());
    for (const auto& p : partitions) AppendRowsOf(p, &out);
    return out;
  }
};

/// An empty batch whose columns take values of `types` (kNull: kInt64).
/// AppendRowToBatch adds `row` with its RowSizeBytes `row_size`; a value of
/// another type than its column's promotes the column to kValues.
ColumnBatch EmptyBatch(const std::vector<ValueType>& types);
void AppendRowToBatch(ColumnBatch* batch, const Row& row, uint64_t row_size);

/// Builds one batch from `n` rows starting at `rows` (kValues for a column
/// that mixes value types), computing each row's RowSizeBytes. A test
/// bridge, like FromDataset below, which splits rows with it.
ColumnBatch BatchFromRows(const Row* rows, size_t n, size_t num_columns);

/// Test bridges to the row Dataset of the reference kernels. FromDataset
/// splits every partition into batches of at most `max_batch_size` rows;
/// ToDataset converts back with the row_sizes annotation. Row order is
/// preserved both ways.
ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size);
Dataset ToDataset(ColumnarDataset&& data);

}  // namespace dynopt

#endif  // DYNOPT_EXEC_BATCH_H_
