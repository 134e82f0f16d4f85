#ifndef DYNOPT_STORAGE_TABLE_H_
#define DYNOPT_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"
#include "storage/schema.h"

namespace dynopt {

/// Hash functor so Value can key unordered containers.
struct ValueHasher {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(v.Hash());
  }
};

/// Secondary hash index over one column of a partitioned table, partitioned
/// the same way as the table itself (each node indexes its local rows, as
/// AsterixDB's local secondary indexes do). Used by the indexed nested loop
/// join: broadcast rows arriving at a node probe the local index.
class SecondaryIndex {
 public:
  SecondaryIndex(std::string column, int column_index, size_t num_partitions);

  /// Registers that row `row_offset` of partition `partition` has `key` in
  /// the indexed column.
  void Insert(const Value& key, size_t partition, uint32_t row_offset);

  /// Local row offsets in `partition` whose indexed column equals `key`;
  /// nullptr when none.
  const std::vector<uint32_t>* Lookup(size_t partition,
                                      const Value& key) const;

  const std::string& column() const { return column_; }
  int column_index() const { return column_index_; }
  uint64_t num_entries() const { return num_entries_; }

 private:
  std::string column_;
  int column_index_;
  uint64_t num_entries_ = 0;
  std::vector<std::unordered_map<Value, std::vector<uint32_t>, ValueHasher>>
      partitions_;
};

/// A base or intermediate dataset, hash-partitioned across the simulated
/// cluster's nodes. Each partition is a sequence of ColumnBatches, the
/// executor's own format: appended rows fill batches of kBatchRows rows;
/// materialized intermediates move whole batches in. Immutable after load
/// (the workloads bulk-load then query, as in the paper's setup).
class Table {
 public:
  /// Rows per batch filled by row appends (the default batch capacity).
  static constexpr size_t kBatchRows = 1024;

  Table(std::string name, Schema schema, size_t num_partitions);

  /// Declares the columns rows are hash-partitioned on (typically the
  /// primary key). Must be called before appending rows; when never called,
  /// rows are spread round-robin.
  Status SetPartitionKey(const std::vector<std::string>& columns);

  /// Appends one row, routing it to its home partition.
  void AppendRow(const Row& row);

  /// Appends one row to an explicit partition, preserving a producer's
  /// placement (and thus any skew).
  void AppendRowToPartition(size_t partition, const Row& row);

  /// Moves `batches` (one column per field) to the end of `partition`.
  /// Later row appends start a fresh batch: moved-in batches may share
  /// dictionaries with other batches and are never written to.
  void AppendBatches(size_t partition, std::vector<ColumnBatch> batches);

  /// Builds a secondary index over `column` (for the Figure-8 INLJ
  /// experiments). Call after loading completes.
  Status CreateSecondaryIndex(const std::string& column);

  bool HasSecondaryIndex(const std::string& column) const;
  /// nullptr when no index exists on `column`.
  const SecondaryIndex* GetSecondaryIndex(const std::string& column) const;
  std::vector<std::string> IndexedColumns() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_partitions() const { return partitions_.size(); }
  const std::vector<ColumnBatch>& batches(size_t p) const {
    return partitions_[p].batches;
  }
  /// The rows of partition `p` in stored order (tests and tools).
  std::vector<Row> partition(size_t p) const;
  /// {batch, row in it} of partition-local row `offset` (as indexed).
  std::pair<size_t, size_t> Locate(size_t p, uint32_t offset) const;
  const std::vector<std::string>& partition_key() const {
    return partition_key_;
  }

  uint64_t NumRows() const { return num_rows_; }
  uint64_t TotalBytes() const { return total_bytes_; }

 private:
  struct Partition {
    std::vector<ColumnBatch> batches;
    std::vector<uint64_t> starts;  ///< First partition-local row per batch.
    uint64_t rows = 0;
    bool appendable = false;  ///< The last batch was filled by row appends.
  };

  std::string name_;
  Schema schema_;
  std::vector<Partition> partitions_;
  std::vector<std::string> partition_key_;
  std::vector<int> partition_key_indices_;
  uint64_t num_rows_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t round_robin_next_ = 0;
  std::map<std::string, std::unique_ptr<SecondaryIndex>> indexes_;
};

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_TABLE_H_
