#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"

namespace dynopt {

SecondaryIndex::SecondaryIndex(std::string column, int column_index,
                               size_t num_partitions)
    : column_(std::move(column)),
      column_index_(column_index),
      partitions_(num_partitions) {}

void SecondaryIndex::Insert(const Value& key, size_t partition,
                            uint32_t row_offset) {
  partitions_[partition][key].push_back(row_offset);
  ++num_entries_;
}

const std::vector<uint32_t>* SecondaryIndex::Lookup(size_t partition,
                                                    const Value& key) const {
  const auto& map = partitions_[partition];
  auto it = map.find(key);
  return it == map.end() ? nullptr : &it->second;
}

Table::Table(std::string name, Schema schema, size_t num_partitions)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      partitions_(num_partitions) {
  DYNOPT_CHECK(num_partitions > 0);
}

Status Table::SetPartitionKey(const std::vector<std::string>& columns) {
  if (num_rows_ > 0) {
    return Status::InvalidArgument(
        "partition key must be set before loading rows into " + name_);
  }
  std::vector<int> indices;
  for (const auto& col : columns) {
    int idx = schema_.FieldIndex(col);
    if (idx < 0) {
      return Status::NotFound("partition key column " + col +
                              " not in schema of " + name_);
    }
    indices.push_back(idx);
  }
  partition_key_ = columns;
  partition_key_indices_ = std::move(indices);
  return Status::OK();
}

void Table::AppendRow(const Row& row) {
  DYNOPT_CHECK(row.size() == schema_.num_fields());
  size_t target;
  if (!partition_key_indices_.empty()) {
    target = static_cast<size_t>(HashRowKey(row, partition_key_indices_) %
                                 partitions_.size());
  } else {
    target = static_cast<size_t>(round_robin_next_++ % partitions_.size());
  }
  AppendRowToPartition(target, row);
}

void Table::AppendRowToPartition(size_t partition, const Row& row) {
  DYNOPT_CHECK(partition < partitions_.size());
  DYNOPT_CHECK(row.size() == schema_.num_fields());
  Partition& part = partitions_[partition];
  if (!part.appendable || part.batches.back().num_rows == kBatchRows) {
    std::vector<ValueType> types;
    for (const Field& f : schema_.fields()) types.push_back(f.type);
    part.starts.push_back(part.rows);
    part.batches.push_back(EmptyBatch(types));
    part.appendable = true;
  }
  const uint64_t size = RowSizeBytes(row);
  AppendRowToBatch(&part.batches.back(), row, size);
  ++part.rows;
  ++num_rows_;
  total_bytes_ += size;
}

void Table::AppendBatches(size_t partition,
                          std::vector<ColumnBatch> batches) {
  DYNOPT_CHECK(partition < partitions_.size());
  Partition& part = partitions_[partition];
  for (ColumnBatch& b : batches) {
    if (b.num_rows == 0) continue;
    DYNOPT_CHECK(b.columns.size() == schema_.num_fields() &&
                 b.row_sizes.size() == b.num_rows);
    for (uint64_t s : b.row_sizes) total_bytes_ += s;
    part.starts.push_back(part.rows);
    part.rows += b.num_rows;
    num_rows_ += b.num_rows;
    part.batches.push_back(std::move(b));
    part.appendable = false;
  }
}

std::vector<Row> Table::partition(size_t p) const {
  std::vector<Row> rows;
  AppendRowsOf(partitions_[p].batches, &rows);
  return rows;
}

std::pair<size_t, size_t> Table::Locate(size_t p, uint32_t offset) const {
  const std::vector<uint64_t>& starts = partitions_[p].starts;
  const size_t b = static_cast<size_t>(
      std::upper_bound(starts.begin(), starts.end(), offset) -
      starts.begin() - 1);
  return {b, static_cast<size_t>(offset - starts[b])};
}

Status Table::CreateSecondaryIndex(const std::string& column) {
  int idx = schema_.FieldIndex(column);
  if (idx < 0) {
    return Status::NotFound("index column " + column + " not in schema of " +
                            name_);
  }
  if (indexes_.count(column) > 0) {
    return Status::AlreadyExists("index on " + name_ + "." + column);
  }
  auto index =
      std::make_unique<SecondaryIndex>(column, idx, partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    uint32_t offset = 0;
    for (const ColumnBatch& b : partitions_[p].batches) {
      const ColumnVector& col = b.columns[static_cast<size_t>(idx)];
      for (size_t r = 0; r < b.num_rows; ++r) {
        index->Insert(col.ValueAt(r), p, offset++);
      }
    }
  }
  indexes_[column] = std::move(index);
  return Status::OK();
}

bool Table::HasSecondaryIndex(const std::string& column) const {
  return indexes_.count(column) > 0;
}

const SecondaryIndex* Table::GetSecondaryIndex(
    const std::string& column) const {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Table::IndexedColumns() const {
  std::vector<std::string> cols;
  cols.reserve(indexes_.size());
  for (const auto& [col, _] : indexes_) cols.push_back(col);
  return cols;
}

}  // namespace dynopt
