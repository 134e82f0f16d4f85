// The DCB1 column-block file format (storage/serde.h) under damage:
//  - batches of every ColumnKind round-trip, with NULLs, an all-NULL string
//    column, strings holding '\0' and high bytes, zero-row blocks and a
//    selection that leaves dictionary entries unused;
//  - every single-byte flip, every truncated prefix, seeded random
//    multi-byte mutations and oversized count fields decode as
//    kDataCorruption or as the original rows, never anything else;
//  - a failed read is an I/O error, not corruption;
//  - spill-file prefixes carry the process id, so one process's sweep
//    leaves another's files alone.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/query_context.h"
#include "common/random.h"
#include "exec/batch.h"
#include "storage/serde.h"

namespace dynopt {
namespace {

/// One decoded block: its rows and their size annotations.
struct Block {
  std::vector<Row> rows;
  std::vector<uint64_t> row_sizes;
  bool operator==(const Block&) const = default;
};

Block BlockOf(const ColumnBatch& batch, const std::vector<uint32_t>& sel) {
  Block block;
  for (uint32_t i : sel) {
    block.rows.push_back(batch.RowAt(i));
    block.row_sizes.push_back(batch.row_sizes[i]);
  }
  return block;
}

std::vector<uint32_t> AllRows(const ColumnBatch& batch) {
  std::vector<uint32_t> sel(batch.num_rows);
  for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
  return sel;
}

std::vector<Block> BlocksOf(const std::vector<ColumnBatch>& batches) {
  std::vector<Block> blocks;
  for (const ColumnBatch& b : batches) {
    blocks.push_back(BlockOf(b, AllRows(b)));
  }
  return blocks;
}

/// Columns of every kind: int64, double, bool and string with NULLs, a
/// mixed-type column (kValues), and a string column that is all NULL with
/// an empty dictionary.
ColumnBatch EveryKindBatch(size_t rows, uint64_t seed) {
  Rng rng(seed);
  ColumnBatch batch =
      EmptyBatch({ValueType::kInt64, ValueType::kDouble, ValueType::kBool,
                  ValueType::kString, ValueType::kInt64, ValueType::kString});
  const std::string odd("a\0b\xff\x80 c", 7);
  for (size_t i = 0; i < rows; ++i) {
    const bool null = rng.NextUint64(4) == 0;
    Row row;
    row.push_back(null ? Value::Null()
                       : Value(static_cast<int64_t>(rng.Next())));
    row.push_back(null ? Value::Null() : Value(rng.NextDouble() - 0.5));
    row.push_back(i % 5 == 0 ? Value::Null() : Value(rng.NextBool(0.5)));
    row.push_back(i % 3 == 0   ? Value::Null()
                  : i % 3 == 1 ? Value(odd + std::to_string(i % 7))
                               : Value("s" + std::to_string(i % 11)));
    switch (i % 4) {
      case 0:
        row.push_back(Value(static_cast<int64_t>(i)));
        break;
      case 1:
        row.push_back(Value("m" + std::to_string(i)));
        break;
      case 2:
        row.push_back(Value::Null());
        break;
      default:
        row.push_back(Value(0.25 * static_cast<double>(i)));
    }
    row.push_back(Value::Null());
    AppendRowToBatch(&batch, row, RowSizeBytes(row));
  }
  return batch;
}

/// Named DCB1 images and the blocks each must decode to.
struct Image {
  std::string name;
  std::string bytes;
  std::vector<Block> want;
};

std::vector<Image> Images() {
  const ColumnBatch batch = EveryKindBatch(24, 7);
  EXPECT_EQ(batch.columns[4].kind, ColumnKind::kValues);
  EXPECT_EQ(batch.columns[5].kind, ColumnKind::kString);
  EXPECT_EQ(batch.columns[5].dict->size(), 0u);
  // Every third row from the back: most string entries go unused.
  std::vector<uint32_t> sel;
  for (uint32_t i = 24; i >= 3; i -= 3) sel.push_back(i - 1);
  const std::vector<uint32_t> none;
  const ColumnBatch empty = EveryKindBatch(0, 1);
  const ColumnBatch other = EveryKindBatch(9, 8);
  return {
      {"selection", EncodeBatchFile(batch, sel.data(), sel.size()),
       {BlockOf(batch, sel)}},
      {"zero_rows", EncodeBatchFile(batch, none.data(), 0),
       {BlockOf(batch, none)}},
      {"multi_block", EncodeBatchFile({other, empty, batch}),
       BlocksOf({other, empty, batch})},
  };
}

/// The decoder's contract: kDataCorruption, or exactly the original blocks.
void ExpectCorruptionOrOriginal(const std::string& bytes,
                                const std::vector<Block>& want,
                                const std::string& what) {
  auto got = DecodeBatchFile(bytes);
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kDataCorruption)
        << what << ": " << got.status().ToString();
    return;
  }
  EXPECT_EQ(BlocksOf(got.value()), want) << what;
}

TEST(ColumnBlockTest, EveryKindRoundTrips) {
  for (const Image& image : Images()) {
    auto got = DecodeBatchFile(image.bytes);
    ASSERT_TRUE(got.ok()) << image.name << ": " << got.status().ToString();
    EXPECT_EQ(BlocksOf(got.value()), image.want) << image.name;
  }
}

TEST(ColumnBlockTest, BlocksKeepKindsAndOnlyUsedEntries) {
  const ColumnBatch batch = EveryKindBatch(24, 7);
  // Three rows whose strings hold '\0' and high bytes.
  const std::vector<uint32_t> sel = {4, 10, 16};
  auto got = DecodeBatchFile(EncodeBatchFile(batch, sel.data(), sel.size()));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  const ColumnBatch& back = got->front();
  ASSERT_EQ(back.columns.size(), batch.columns.size());
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    EXPECT_EQ(back.columns[c].kind, batch.columns[c].kind) << c;
  }
  std::set<std::string> distinct;
  for (uint32_t i : sel) distinct.insert(batch.RowAt(i)[3].AsString());
  EXPECT_EQ(back.columns[3].dict->size(), distinct.size());
  EXPECT_LT(back.columns[3].dict->size(), batch.columns[3].dict->size());
  EXPECT_EQ(back.columns[5].dict->size(), 0u);
}

TEST(ColumnBlockTest, EverySingleByteFlipIsCaught) {
  for (const Image& image : Images()) {
    for (size_t pos = 0; pos < image.bytes.size(); ++pos) {
      for (unsigned mask : {0x01u, 0x40u, 0x80u, 0xffu}) {
        std::string bytes = image.bytes;
        bytes[pos] = static_cast<char>(bytes[pos] ^ mask);
        ExpectCorruptionOrOriginal(bytes, image.want,
                                   image.name + " flip at " +
                                       std::to_string(pos));
      }
    }
  }
}

TEST(ColumnBlockTest, EveryTruncatedPrefixIsCorruption) {
  for (const Image& image : Images()) {
    for (size_t cut = 0; cut < image.bytes.size(); ++cut) {
      auto got = DecodeBatchFile(image.bytes.substr(0, cut));
      ASSERT_FALSE(got.ok()) << image.name << " cut at " << cut;
      EXPECT_EQ(got.status().code(), StatusCode::kDataCorruption);
    }
  }
}

TEST(ColumnBlockTest, RandomMultiByteMutationsAreCaught) {
  Rng rng(20);
  for (const Image& image : Images()) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::string bytes = image.bytes;
      const uint64_t edits = 2 + rng.NextUint64(7);
      for (uint64_t e = 0; e < edits; ++e) {
        const size_t pos = rng.NextUint64(bytes.size());
        switch (rng.NextUint64(3)) {
          case 0:
            bytes[pos] = static_cast<char>(rng.NextUint64(256));
            break;
          case 1:
            bytes.erase(pos, 1);
            break;
          default:
            bytes.insert(pos, 1, static_cast<char>(rng.NextUint64(256)));
        }
        if (bytes.empty()) bytes.push_back('\0');
      }
      ExpectCorruptionOrOriginal(bytes, image.want,
                                 image.name + " trial " +
                                     std::to_string(trial));
    }
  }
}

// --- Oversized counts -------------------------------------------------------

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// A one-block image around `payload` with a valid checksum, so a bad count
/// inside the payload reaches the structural checks.
std::string Framed(uint64_t rows, const std::string& payload) {
  std::string out = "DCB1";
  AppendVarint(1, &out);
  AppendVarint(rows, &out);
  AppendVarint(payload.size(), &out);
  const uint64_t checksum = HashCombine(
      HashBytes(payload.data(), payload.size()), Mix64(rows));
  out.append(reinterpret_cast<const char*>(&checksum), 8);
  out.append(payload);
  return out;
}

void ExpectCorruption(const std::string& bytes, const std::string& what) {
  auto got = DecodeBatchFile(bytes);
  ASSERT_FALSE(got.ok()) << what;
  EXPECT_EQ(got.status().code(), StatusCode::kDataCorruption) << what;
}

TEST(ColumnBlockTest, FramingMatchesTheDocumentedLayout) {
  // One row, one kInt64 column: the hand-framed image decodes.
  std::string payload(8, '\0');
  payload[0] = 16;  // row_sizes[0]
  AppendVarint(1, &payload);
  payload.push_back(static_cast<char>(ColumnKind::kInt64));
  payload.push_back(0);  // No validity.
  payload.append("\x2a\0\0\0\0\0\0\0", 8);
  auto got = DecodeBatchFile(Framed(1, payload));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ(got->front().RowAt(0), (Row{Value(int64_t{42})}));
  EXPECT_EQ(got->front().row_sizes, std::vector<uint64_t>{16});
}

TEST(ColumnBlockTest, OversizedCountsAreCorruptionNotAllocations) {
  const uint64_t huge = uint64_t{1} << 62;
  // Header counts: blocks, rows, payload size.
  std::string blocks = "DCB1";
  AppendVarint(huge, &blocks);
  ExpectCorruption(blocks + std::string(64, '\0'), "block count");
  std::string rows = "DCB1";
  AppendVarint(1, &rows);
  AppendVarint(huge, &rows);
  AppendVarint(16, &rows);
  ExpectCorruption(rows + std::string(24, '\0'), "row count");
  std::string size = "DCB1";
  AppendVarint(1, &size);
  AppendVarint(1, &size);
  AppendVarint(huge, &size);
  ExpectCorruption(size + std::string(24, '\0'), "payload size");

  // Payload counts behind a valid checksum: columns, string entries, entry
  // length, and a code past the entries.
  std::string columns(8, '\0');
  AppendVarint(huge, &columns);
  ExpectCorruption(Framed(1, columns), "column count");
  std::string string_head(8, '\0');
  AppendVarint(1, &string_head);
  string_head.push_back(static_cast<char>(ColumnKind::kString));
  string_head.push_back(0);
  std::string entries = string_head;
  AppendVarint(huge, &entries);
  ExpectCorruption(Framed(1, entries + "abcd"), "entry count");
  std::string length = string_head;
  AppendVarint(1, &length);
  AppendVarint(huge, &length);
  ExpectCorruption(Framed(1, length + "abcd"), "entry length");
  std::string code = string_head;
  AppendVarint(1, &code);
  AppendVarint(1, &code);
  code += "x";
  code.append("\x01\0\0\0", 4);  // Code 1 of one entry.
  ExpectCorruption(Framed(1, code), "string code");
  std::string kind(8, '\0');
  AppendVarint(1, &kind);
  kind += "\x09";  // No such ColumnKind.
  kind.push_back(0);
  ExpectCorruption(Framed(1, kind + std::string(8, '\0')), "column kind");
}

// --- Files ------------------------------------------------------------------

TEST(ColumnBlockTest, ReadErrorIsNotCorruption) {
  // Opening a directory succeeds; reading it fails.
  const std::string dir = ::testing::TempDir() + "dynopt_column_block_dir";
  std::filesystem::create_directories(dir);
  auto got = ReadBatchFile(dir);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kExecutionError)
      << got.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(ColumnBlockTest, SpillPrefixIsScopedToTheProcess) {
  const std::string dir = ::testing::TempDir() + "dynopt_column_block_pid";
  std::filesystem::create_directories(dir);
  QueryContext ctx("pid");
  const std::string prefix = ctx.SpillFilePrefix();
  ASSERT_EQ(prefix.rfind("__spill_", 0), 0u) << prefix;
  // The same query id under another process's id.
  const std::string foreign = "__spill_" + std::to_string(::getpid() + 1) +
                              "_q" + std::to_string(ctx.id()) + "_s0_p0.drb";
  ASSERT_NE(prefix, foreign.substr(0, prefix.size()));
  const ColumnBatch batch = EveryKindBatch(3, 2);
  ASSERT_TRUE(WriteBatchFile(dir + "/" + foreign, {batch}).ok());
  ASSERT_TRUE(WriteBatchFile(dir + "/" + prefix + "s0_p0.drb", {batch}).ok());
  EXPECT_EQ(RemoveFilesWithPrefix(dir, prefix), 1);
  EXPECT_EQ(CountFilesWithPrefix(dir, foreign), 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dynopt
