#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "storage/serde.h"
#include "workloads/tpcds.h"

namespace dynopt {
namespace {

// --- Value round trips ----------------------------------------------------

TEST(SerdeTest, ScalarRoundTrips) {
  const Value values[] = {Value::Null(),
                          Value(true),
                          Value(false),
                          Value(int64_t{0}),
                          Value(int64_t{-1}),
                          Value(std::numeric_limits<int64_t>::max()),
                          Value(std::numeric_limits<int64_t>::min()),
                          Value(0.0),
                          Value(-3.25),
                          Value(1e300),
                          Value(std::string("")),
                          Value(std::string("hello world")),
                          Value(std::string(100000, 'x'))};
  for (const Value& v : values) {
    std::string buffer;
    EncodeValue(v, &buffer);
    size_t offset = 0;
    auto decoded = DecodeValue(buffer, &offset);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), v);
    EXPECT_EQ(decoded->type(), v.type());
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(SerdeTest, StringWithEmbeddedZerosAndHighBytes) {
  std::string raw("a\0b\xff\x80 c", 7);
  Value v(raw);
  std::string buffer;
  EncodeValue(v, &buffer);
  size_t offset = 0;
  auto decoded = DecodeValue(buffer, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->AsString(), raw);
}

// --- Column-block round trips ---------------------------------------------

/// Every row of `batches`, in order.
std::vector<Row> RowsOf(const std::vector<ColumnBatch>& batches) {
  std::vector<Row> rows;
  for (const ColumnBatch& b : batches) {
    for (size_t i = 0; i < b.num_rows; ++i) rows.push_back(b.RowAt(i));
  }
  return rows;
}

/// A one-batch DCB1 image of `rows`.
std::string EncodeRowsAsBatch(const std::vector<Row>& rows, size_t width) {
  return EncodeBatchFile({BatchFromRows(rows.data(), rows.size(), width)});
}

TEST(SerdeTest, RowRoundTrip) {
  std::vector<Row> rows = {{Value(int64_t{42}), Value::Null(), Value("x"),
                            Value(2.5), Value(true)}};
  auto decoded = DecodeBatchFile(EncodeRowsAsBatch(rows, 5));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(RowsOf(decoded.value()), rows);
}

class SerdeRandomTest : public ::testing::TestWithParam<uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRandomTest,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

TEST_P(SerdeRandomTest, RandomRowBatchesRoundTrip) {
  Rng rng(GetParam());
  std::vector<Row> rows;
  const size_t n = rng.NextUint64(200) + 1;
  const size_t width = rng.NextUint64(8) + 1;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t c = 0; c < width; ++c) {
      switch (rng.NextUint64(5)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.push_back(Value(rng.NextBool(0.5)));
          break;
        case 2:
          row.push_back(
              Value(static_cast<int64_t>(rng.Next())));
          break;
        case 3:
          row.push_back(Value(rng.NextDouble() * 1e9 - 5e8));
          break;
        default: {
          std::string s;
          size_t len = rng.NextUint64(40);
          for (size_t k = 0; k < len; ++k) {
            s.push_back(static_cast<char>(rng.NextUint64(256)));
          }
          row.push_back(Value(std::move(s)));
        }
      }
    }
    rows.push_back(std::move(row));
  }
  auto decoded = DecodeBatchFile(EncodeRowsAsBatch(rows, width));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(RowsOf(decoded.value()), rows);
}

// --- Corruption handling -----------------------------------------------------

TEST(SerdeTest, TruncatedBuffersError) {
  std::string buffer =
      EncodeRowsAsBatch({{Value(int64_t{1}), Value("abcdef")}}, 2);
  for (size_t cut = 0; cut < buffer.size(); ++cut) {
    std::string truncated = buffer.substr(0, cut);
    auto decoded = DecodeBatchFile(truncated);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(SerdeTest, UnknownTagErrors) {
  std::string buffer;
  buffer.push_back(static_cast<char>(0x7e));
  size_t offset = 0;
  EXPECT_FALSE(DecodeValue(buffer, &offset).ok());
}

TEST(SerdeTest, TrailingBytesRejected) {
  std::string buffer = EncodeRowsAsBatch({{Value(int64_t{1})}}, 1);
  buffer.push_back('x');
  EXPECT_FALSE(DecodeBatchFile(buffer).ok());
}

// --- File I/O -----------------------------------------------------------------

TEST(SerdeTest, FileRoundTrip) {
  std::vector<Row> rows = {{Value(int64_t{1}), Value("a")},
                           {Value(int64_t{2}), Value::Null()}};
  std::string path = "/tmp/dynopt_serde_test.rows";
  ASSERT_TRUE(
      WriteBatchFile(path, {BatchFromRows(rows.data(), rows.size(), 2)})
          .ok());
  auto back = ReadBatchFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(RowsOf(back.value()), rows);
  std::remove(path.c_str());
  EXPECT_EQ(ReadBatchFile(path).status().code(), StatusCode::kNotFound);
}

// --- Disk-backed materialization through the full optimizer -------------------

TEST(SerdeTest, DiskBackedMaterializationMatchesInMemory) {
  auto run = [](bool to_disk) {
    Engine engine;
    engine.mutable_cluster().materialize_to_disk = to_disk;
    TpcdsOptions options;
    options.sf = 0.2;
    EXPECT_TRUE(LoadTpcds(&engine, options).ok());
    auto query = TpcdsQ17(&engine);
    EXPECT_TRUE(query.ok());
    DynamicOptimizer optimizer(&engine);
    auto result = optimizer.Run(query.value());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows : std::vector<Row>{};
  };
  std::vector<Row> in_memory = run(false);
  std::vector<Row> on_disk = run(true);
  ASSERT_FALSE(in_memory.empty());
  EXPECT_EQ(in_memory, on_disk);
}

}  // namespace
}  // namespace dynopt
