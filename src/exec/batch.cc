#include "exec/batch.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dynopt {

uint64_t ColumnVector::HashDoubleValue(double d) {
  if (d == static_cast<double>(static_cast<int64_t>(d)) &&
      std::abs(d) < 9.0e18) {
    return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(d));
  return Mix64(bits);
}

void ColumnVector::PromoteToValues() {
  if (kind == ColumnKind::kValues) return;
  const size_t n = size();
  std::vector<Value> promoted;
  promoted.reserve(n);
  for (size_t i = 0; i < n; ++i) promoted.push_back(ValueAt(i));
  kind = ColumnKind::kValues;
  values = std::move(promoted);
  i64.clear();
  f64.clear();
  b8.clear();
  codes.clear();
  dict.reset();
  validity.clear();
}

namespace {

/// The typed layout of values of type `t` (kNull: kInt64, every slot
/// invalid), indexed by ValueType.
ColumnKind KindOf(ValueType t) {
  static constexpr ColumnKind kKindByType[5] = {
      ColumnKind::kInt64, ColumnKind::kBool, ColumnKind::kInt64,
      ColumnKind::kDouble, ColumnKind::kString};
  return kKindByType[static_cast<size_t>(t)];
}

void AppendValue(ColumnVector* col, const Value& v) {
  const bool is_null = v.is_null();
  if (!is_null && col->kind != ColumnKind::kValues &&
      KindOf(v.type()) != col->kind) {
    col->PromoteToValues();
  }
  // NULL slots hold a zeroed payload (code 0 for strings) under validity 0.
  switch (col->kind) {
    case ColumnKind::kInt64:
      col->i64.push_back(is_null ? 0 : v.AsInt64());
      break;
    case ColumnKind::kDouble:
      col->f64.push_back(is_null ? 0 : v.AsDouble());
      break;
    case ColumnKind::kBool:
      col->b8.push_back(!is_null && v.AsBool() ? 1 : 0);
      break;
    case ColumnKind::kString:
      col->codes.push_back(is_null ? 0
                                   : col->dict->Intern(v.AsStringUnchecked()));
      break;
    case ColumnKind::kValues:
      col->values.push_back(v);
      return;
  }
  if (is_null) {
    if (col->validity.empty()) col->validity.assign(col->size() - 1, 1);
    col->validity.push_back(0);
  } else if (!col->validity.empty()) {
    col->validity.push_back(1);
  }
}

}  // namespace

ColumnBatch EmptyBatch(const std::vector<ValueType>& types) {
  ColumnBatch batch;
  batch.columns.resize(types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    ColumnVector& col = batch.columns[c];
    col.kind = KindOf(types[c]);
    if (col.kind == ColumnKind::kString) {
      col.dict = std::make_shared<StringDict>();
    }
  }
  return batch;
}

void AppendRowToBatch(ColumnBatch* batch, const Row& row, uint64_t row_size) {
  for (size_t c = 0; c < batch->columns.size(); ++c) {
    AppendValue(&batch->columns[c], row[c]);
  }
  batch->row_sizes.push_back(row_size);
  ++batch->num_rows;
}

ColumnBatch BatchFromRows(const Row* rows, size_t n, size_t num_columns) {
  // Each column takes the type of its first non-NULL value; a second type
  // promotes it to kValues while appending.
  std::vector<ValueType> types(num_columns, ValueType::kNull);
  for (size_t c = 0; c < num_columns; ++c) {
    for (size_t i = 0; i < n && types[c] == ValueType::kNull; ++i) {
      types[c] = rows[i][c].type();
    }
  }
  ColumnBatch batch = EmptyBatch(types);
  for (size_t i = 0; i < n; ++i) {
    AppendRowToBatch(&batch, rows[i], RowSizeBytes(rows[i]));
  }
  return batch;
}

ColumnarDataset FromDataset(const Dataset& data, size_t max_batch_size) {
  ColumnarDataset out(data.columns, data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    const auto& rows = data.partitions[p];
    for (size_t start = 0; start < rows.size(); start += max_batch_size) {
      out.partitions[p].push_back(
          BatchFromRows(rows.data() + start,
                        std::min(max_batch_size, rows.size() - start),
                        data.columns.size()));
    }
  }
  return out;
}

Dataset ToDataset(ColumnarDataset&& data) {
  Dataset out(std::move(data.columns), data.partitions.size());
  out.row_sizes.resize(data.partitions.size());
  for (size_t p = 0; p < data.partitions.size(); ++p) {
    AppendRowsOf(data.partitions[p], &out.partitions[p]);
    for (const ColumnBatch& b : data.partitions[p]) {
      out.row_sizes[p].insert(out.row_sizes[p].end(), b.row_sizes.begin(),
                              b.row_sizes.end());
    }
  }
  return out;
}

}  // namespace dynopt
