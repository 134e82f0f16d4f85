#include "storage/serde.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/hash.h"

namespace dynopt {

namespace {

static_assert(std::endian::native == std::endian::little,
              "serde copies little-endian fields and arrays raw");

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBoolFalse = 1;
constexpr uint8_t kTagBoolTrue = 2;
constexpr uint8_t kTagInt64 = 3;
constexpr uint8_t kTagDouble = 4;
constexpr uint8_t kTagString = 5;

/// "DCB1": Dynopt Column Blocks, format version 1.
constexpr char kMagic[4] = {'D', 'C', 'B', '1'};
constexpr uint32_t kUnusedCode = 0xffffffffu;

Status Corrupt(const std::string& what) {
  return Status::DataCorruption("serde: " + what);
}

void AppendRaw(const void* data, size_t bytes, std::string* out) {
  out->append(static_cast<const char*>(data), bytes);
}

void AppendFixed64(uint64_t v, std::string* out) { AppendRaw(&v, 8, out); }

Result<uint64_t> ReadFixed64(std::string_view in, size_t* offset) {
  if (in.size() - *offset < 8) return Corrupt("truncated fixed64");
  uint64_t v;
  std::memcpy(&v, in.data() + *offset, 8);
  *offset += 8;
  return v;
}

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> ReadVarint(std::string_view in, size_t* offset) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (*offset >= in.size()) return Corrupt("truncated varint");
    uint8_t byte = static_cast<unsigned char>(in[(*offset)++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Corrupt("varint overflow");
  }
  return v;
}

/// Reads `n` raw elements; the bound is checked before anything is
/// allocated.
template <typename T>
Status ReadArray(std::string_view in, size_t* offset, size_t n,
                 std::vector<T>* out) {
  if (n > (in.size() - *offset) / sizeof(T)) return Corrupt("truncated array");
  out->resize(n);
  if (n > 0) std::memcpy(out->data(), in.data() + *offset, n * sizeof(T));
  *offset += n * sizeof(T);
  return Status::OK();
}

/// Appends `src[sel[i]]` for each i < n as a raw array.
template <typename T>
void AppendGathered(const std::vector<T>& src, const uint32_t* sel, size_t n,
                    std::string* out) {
  const size_t at = out->size();
  out->resize(at + n * sizeof(T));
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out->data() + at + i * sizeof(T), &src[sel[i]], sizeof(T));
  }
}

/// The checksum covers the block's row count as well as its payload, so a
/// flipped count cannot pass with an intact payload.
uint64_t BlockChecksum(uint64_t rows, std::string_view payload) {
  return HashCombine(HashBytes(payload.data(), payload.size()), Mix64(rows));
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      out->push_back(static_cast<char>(kTagNull));
      break;
    case ValueType::kBool:
      out->push_back(
          static_cast<char>(v.AsBool() ? kTagBoolTrue : kTagBoolFalse));
      break;
    case ValueType::kInt64:
      out->push_back(static_cast<char>(kTagInt64));
      AppendFixed64(static_cast<uint64_t>(v.AsInt64()), out);
      break;
    case ValueType::kDouble: {
      out->push_back(static_cast<char>(kTagDouble));
      const double d = v.AsDouble();
      AppendRaw(&d, sizeof(d), out);
      break;
    }
    case ValueType::kString: {
      out->push_back(static_cast<char>(kTagString));
      const std::string& s = v.AsString();
      AppendVarint(s.size(), out);
      out->append(s);
      break;
    }
  }
}

Result<Value> DecodeValue(std::string_view buffer, size_t* offset) {
  if (*offset >= buffer.size()) {
    return Corrupt("truncated value tag");
  }
  uint8_t tag = static_cast<unsigned char>(buffer[(*offset)++]);
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBoolFalse:
      return Value(false);
    case kTagBoolTrue:
      return Value(true);
    case kTagInt64: {
      DYNOPT_ASSIGN_OR_RETURN(uint64_t bits, ReadFixed64(buffer, offset));
      return Value(static_cast<int64_t>(bits));
    }
    case kTagDouble: {
      DYNOPT_ASSIGN_OR_RETURN(uint64_t bits, ReadFixed64(buffer, offset));
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagString: {
      DYNOPT_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(buffer, offset));
      // len is attacker-/corruption-controlled: compare against the space
      // left instead of `*offset + len` (which can wrap).
      if (len > buffer.size() - *offset) {
        return Corrupt("truncated string payload");
      }
      Value v(std::string(buffer.substr(*offset, len)));
      *offset += len;
      return v;
    }
    default:
      return Corrupt("unknown value tag " + std::to_string(tag));
  }
}

namespace {

void EncodeColumn(const ColumnVector& col, const uint32_t* sel, size_t n,
                  std::string* out) {
  bool has_nulls = false;
  for (size_t i = 0; i < n && !col.validity.empty() && !has_nulls; ++i) {
    has_nulls = col.validity[sel[i]] == 0;
  }
  out->push_back(static_cast<char>(col.kind));
  out->push_back(has_nulls ? 1 : 0);
  if (has_nulls) AppendGathered(col.validity, sel, n, out);
  switch (col.kind) {
    case ColumnKind::kInt64:
      return AppendGathered(col.i64, sel, n, out);
    case ColumnKind::kDouble:
      return AppendGathered(col.f64, sel, n, out);
    case ColumnKind::kBool:
      return AppendGathered(col.b8, sel, n, out);
    case ColumnKind::kValues:
      for (size_t i = 0; i < n; ++i) EncodeValue(col.values[sel[i]], out);
      return;
    case ColumnKind::kString:
      break;
  }
  // The entries the selected valid rows use, in first-use order, then one
  // code per row into them. `remap` (dictionary code -> entry number) has
  // its touched slots reset below, so a block costs O(n) however large the
  // shared dictionary is.
  thread_local std::vector<uint32_t> remap;
  if (col.dict != nullptr && remap.size() < col.dict->size()) {
    remap.resize(col.dict->size(), kUnusedCode);
  }
  std::vector<uint32_t> used;
  std::vector<uint32_t> codes(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (has_nulls && col.validity[sel[i]] == 0) continue;
    uint32_t& slot = remap[col.codes[sel[i]]];
    if (slot == kUnusedCode) {
      slot = static_cast<uint32_t>(used.size());
      used.push_back(col.codes[sel[i]]);
    }
    codes[i] = slot;
  }
  AppendVarint(used.size(), out);
  for (uint32_t code : used) {
    AppendVarint(col.dict->entry(code).size(), out);
    out->append(col.dict->entry(code));
    remap[code] = kUnusedCode;
  }
  AppendRaw(codes.data(), n * sizeof(uint32_t), out);
}

/// Appends one framed block holding rows `sel[0..n)` of `batch`.
void AppendBlock(const ColumnBatch& batch, const uint32_t* sel, size_t n,
                 std::string* out) {
  std::string payload;
  AppendGathered(batch.row_sizes, sel, n, &payload);
  AppendVarint(batch.columns.size(), &payload);
  for (const ColumnVector& col : batch.columns) {
    EncodeColumn(col, sel, n, &payload);
  }
  AppendVarint(n, out);
  AppendVarint(payload.size(), out);
  AppendFixed64(BlockChecksum(n, payload), out);
  out->append(payload);
}

Status DecodeColumn(std::string_view in, size_t* offset, size_t rows,
                    ColumnVector* col) {
  if (in.size() - *offset < 2) return Corrupt("truncated column header");
  const auto kind = static_cast<uint8_t>(in[(*offset)++]);
  const auto has_nulls = static_cast<uint8_t>(in[(*offset)++]);
  if (kind > static_cast<uint8_t>(ColumnKind::kValues) || has_nulls > 1 ||
      (has_nulls && kind == static_cast<uint8_t>(ColumnKind::kValues))) {
    return Corrupt("bad column header");
  }
  col->kind = static_cast<ColumnKind>(kind);
  if (has_nulls) {
    DYNOPT_RETURN_IF_ERROR(ReadArray(in, offset, rows, &col->validity));
  }
  switch (col->kind) {
    case ColumnKind::kInt64:
      return ReadArray(in, offset, rows, &col->i64);
    case ColumnKind::kDouble:
      return ReadArray(in, offset, rows, &col->f64);
    case ColumnKind::kBool:
      return ReadArray(in, offset, rows, &col->b8);
    case ColumnKind::kValues:
      for (size_t i = 0; i < rows; ++i) {
        DYNOPT_ASSIGN_OR_RETURN(Value v, DecodeValue(in, offset));
        col->values.push_back(std::move(v));
      }
      return Status::OK();
    case ColumnKind::kString:
      break;
  }
  DYNOPT_ASSIGN_OR_RETURN(uint64_t entries, ReadVarint(in, offset));
  col->dict = std::make_shared<StringDict>();
  for (uint64_t e = 0; e < entries; ++e) {
    DYNOPT_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(in, offset));
    if (len > in.size() - *offset) return Corrupt("truncated string entry");
    if (col->dict->Intern(std::string(in.substr(*offset, len))) != e) {
      return Corrupt("duplicate string entry");
    }
    *offset += len;
  }
  DYNOPT_RETURN_IF_ERROR(ReadArray(in, offset, rows, &col->codes));
  for (size_t i = 0; i < rows; ++i) {
    const bool null = has_nulls && col->validity[i] == 0;
    if (null ? col->codes[i] != 0 : col->codes[i] >= entries) {
      return Corrupt("string code out of range");
    }
  }
  return Status::OK();
}

Status WriteFile(const std::string& path, const std::string& buffer) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open " + path + " for writing");
  }
  size_t written = std::fwrite(buffer.data(), 1, buffer.size(), f);
  int close_rc = std::fclose(f);
  if (written != buffer.size() || close_rc != 0) {
    return Status::ExecutionError("short write to " + path);
  }
  return Status::OK();
}

/// Regular files directly under `dir` whose name starts with `prefix` (none
/// for a missing or unreadable directory).
std::vector<std::filesystem::path> FilesWithPrefix(const std::string& dir,
                                                   const std::string& prefix) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      out.push_back(entry.path());
    }
  }
  return out;
}

}  // namespace

std::string EncodeBatchFile(const ColumnBatch& batch, const uint32_t* sel,
                            size_t n) {
  std::string out(kMagic, sizeof(kMagic));
  AppendVarint(1, &out);
  AppendBlock(batch, sel, n, &out);
  return out;
}

std::string EncodeBatchFile(const std::vector<ColumnBatch>& batches) {
  std::string out(kMagic, sizeof(kMagic));
  AppendVarint(batches.size(), &out);
  std::vector<uint32_t> all_rows;
  for (const ColumnBatch& b : batches) {
    while (all_rows.size() < b.num_rows) {
      all_rows.push_back(static_cast<uint32_t>(all_rows.size()));
    }
    AppendBlock(b, all_rows.data(), b.num_rows, &out);
  }
  return out;
}

Result<std::vector<ColumnBatch>> DecodeBatchFile(std::string_view in) {
  const std::string_view magic(kMagic, sizeof(kMagic));
  if (in.substr(0, magic.size()) != magic) return Corrupt("bad magic");
  size_t offset = magic.size();
  DYNOPT_ASSIGN_OR_RETURN(uint64_t num_blocks, ReadVarint(in, &offset));
  // A block's framing takes at least 10 bytes (two varints, the checksum).
  if (num_blocks > (in.size() - offset) / 10) {
    return Corrupt("block count too large");
  }
  std::vector<ColumnBatch> batches(num_blocks);
  for (ColumnBatch& batch : batches) {
    DYNOPT_ASSIGN_OR_RETURN(uint64_t rows, ReadVarint(in, &offset));
    DYNOPT_ASSIGN_OR_RETURN(uint64_t size, ReadVarint(in, &offset));
    DYNOPT_ASSIGN_OR_RETURN(uint64_t checksum, ReadFixed64(in, &offset));
    if (size > in.size() - offset) return Corrupt("truncated block");
    const std::string_view payload = in.substr(offset, size);
    offset += size;
    if (BlockChecksum(rows, payload) != checksum) {
      return Corrupt("column-block checksum mismatch");
    }
    size_t at = 0;
    batch.num_rows = rows;
    DYNOPT_RETURN_IF_ERROR(ReadArray(payload, &at, rows, &batch.row_sizes));
    DYNOPT_ASSIGN_OR_RETURN(uint64_t num_cols, ReadVarint(payload, &at));
    // Every column takes at least its kind and validity-flag bytes.
    if (num_cols > (payload.size() - at) / 2) {
      return Corrupt("column count too large");
    }
    batch.columns.resize(num_cols);
    for (ColumnVector& col : batch.columns) {
      DYNOPT_RETURN_IF_ERROR(DecodeColumn(payload, &at, rows, &col));
    }
    if (at != payload.size()) return Corrupt("block payload size mismatch");
  }
  if (offset != in.size()) return Corrupt("trailing bytes after blocks");
  return batches;
}

Status WriteBatchFile(const std::string& path, const ColumnBatch& batch,
                      const uint32_t* sel, size_t n) {
  return WriteFile(path, EncodeBatchFile(batch, sel, n));
}

Status WriteBatchFile(const std::string& path,
                      const std::vector<ColumnBatch>& batches) {
  return WriteFile(path, EncodeBatchFile(batches));
}

Result<std::vector<ColumnBatch>> ReadBatchFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for reading");
  }
  std::string buffer;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buffer.append(chunk, n);
  }
  // A failed read is an I/O error, not corruption to re-materialize.
  const bool read_failed = std::ferror(f) != 0;
  std::fclose(f);
  if (read_failed) return Status::ExecutionError("cannot read " + path);
  return DecodeBatchFile(buffer);
}

int RemoveFilesWithPrefix(const std::string& dir, const std::string& prefix) {
  int removed = 0;
  std::error_code ec;
  for (const auto& path : FilesWithPrefix(dir, prefix)) {
    if (std::filesystem::remove(path, ec) && !ec) ++removed;
  }
  return removed;
}

int CountFilesWithPrefix(const std::string& dir, const std::string& prefix) {
  return static_cast<int>(FilesWithPrefix(dir, prefix).size());
}

Status CorruptByteInFile(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path + " for corruption");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return Status::InvalidArgument(path + " is empty; nothing to corrupt");
  }
  const long pos = static_cast<long>(offset % static_cast<uint64_t>(size));
  std::fseek(f, pos, SEEK_SET);
  int byte = std::fgetc(f);
  std::fseek(f, pos, SEEK_SET);
  std::fputc((byte ^ 0x40) & 0xff, f);
  std::fclose(f);
  return Status::OK();
}

}  // namespace dynopt
