#ifndef DYNOPT_STORAGE_SERDE_H_
#define DYNOPT_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/batch.h"

namespace dynopt {

/// The engine's one on-disk format, DCB1 ("Dynopt Column Blocks"): the
/// grace join's spill files and the paper's temporary files for
/// materialized intermediates ("stored in a temporary file") both hold
/// ColumnBatches, written column by column and read back without passing
/// through rows.
///
/// A file is the 4-byte magic "DCB1", a varint block count, then the
/// blocks. A block carries a varint row count, a varint payload size, a
/// fixed64 checksum (HashBytes of the payload combined with the row
/// count) and the payload, which holds one batch's rows:
///   - `row_sizes`, one little-endian fixed64 per row;
///   - a varint column count, then per column its ColumnKind byte, a
///     validity flag byte (followed by one byte per row when set) and its
///     data: raw little-endian arrays for kInt64 / kDouble / kBool; for
///     kString a varint entry count, the dictionary entries the block's
///     rows use (varint length + bytes each) and one fixed32 code per row
///     into those entries (0 for a NULL row); for kValues one EncodeValue
///     record per row.
/// Every framing, structure or checksum fault decodes as kDataCorruption
/// (retryable by re-materializing the data), and no count read from a file
/// drives an allocation larger than the bytes that remain.

/// Appends the encoding of `v` to `out`: a 1-byte type tag, then a
/// little-endian fixed-width payload or a length-prefixed string.
void EncodeValue(const Value& v, std::string* out);

/// Decodes one value starting at `*offset`; advances the offset.
Result<Value> DecodeValue(std::string_view buffer, size_t* offset);

/// A DCB1 image holding one block: rows `sel[0..n)` of `batch`, in
/// selection order.
std::string EncodeBatchFile(const ColumnBatch& batch, const uint32_t* sel,
                            size_t n);

/// A DCB1 image holding one block per batch, each with all its rows.
std::string EncodeBatchFile(const std::vector<ColumnBatch>& batches);

/// Inverse of EncodeBatchFile: one batch per block, in file order.
Result<std::vector<ColumnBatch>> DecodeBatchFile(std::string_view buffer);

/// Writes EncodeBatchFile(...) to `path`, overwriting.
Status WriteBatchFile(const std::string& path, const ColumnBatch& batch,
                      const uint32_t* sel, size_t n);
Status WriteBatchFile(const std::string& path,
                      const std::vector<ColumnBatch>& batches);

/// Reads a file written by WriteBatchFile. kNotFound when the file is
/// missing; kExecutionError when reading it fails; kDataCorruption when
/// its contents fail framing or checksum verification.
Result<std::vector<ColumnBatch>> ReadBatchFile(const std::string& path);

/// Flips one bit of the byte at `offset % file size` in `path` — the fault
/// injector's physical corruption primitive (and available to tests).
Status CorruptByteInFile(const std::string& path, uint64_t offset);

/// Deletes every regular file directly under `dir` whose name starts with
/// `prefix`; returns how many were removed. A missing or unreadable
/// directory removes nothing. The spill janitor: recovery sweeps a query's
/// grace-join spill files (QueryContext::SpillFilePrefix) with this after
/// cancellation or terminal failure, and tests assert zero leaks with the
/// counter below.
int RemoveFilesWithPrefix(const std::string& dir, const std::string& prefix);

/// Counts regular files directly under `dir` whose name starts with
/// `prefix` (0 for a missing directory).
int CountFilesWithPrefix(const std::string& dir, const std::string& prefix);

}  // namespace dynopt

#endif  // DYNOPT_STORAGE_SERDE_H_
