#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "storage/catalog.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dynopt {
namespace {

Schema TwoColumnSchema() {
  return Schema({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, FieldLookup) {
  Schema schema = TwoColumnSchema();
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.FieldIndex("id"), 0);
  EXPECT_EQ(schema.FieldIndex("name"), 1);
  EXPECT_EQ(schema.FieldIndex("missing"), -1);
  EXPECT_TRUE(schema.HasField("id"));
  EXPECT_FALSE(schema.HasField("ID"));  // Case sensitive.
}

TEST(SchemaTest, ToStringListsFields) {
  EXPECT_EQ(TwoColumnSchema().ToString(), "(id INT64, name STRING)");
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, RoundRobinWithoutPartitionKey) {
  Table t("t", TwoColumnSchema(), 4);
  for (int i = 0; i < 8; ++i) t.AppendRow({Value(i), Value("r")});
  EXPECT_EQ(t.NumRows(), 8u);
  for (size_t p = 0; p < 4; ++p) EXPECT_EQ(t.partition(p).size(), 2u);
}

TEST(TableTest, HashPartitioningIsDeterministicAndKeyLocal) {
  Table t("t", TwoColumnSchema(), 8);
  ASSERT_TRUE(t.SetPartitionKey({"id"}).ok());
  for (int i = 0; i < 1000; ++i) t.AppendRow({Value(i % 100), Value("x")});
  // All rows with equal key land in the same partition.
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    std::set<int64_t> keys;
    for (const Row& row : t.partition(p)) keys.insert(row[0].AsInt64());
    for (int64_t k : keys) {
      for (size_t q = 0; q < t.num_partitions(); ++q) {
        if (q == p) continue;
        for (const Row& row : t.partition(q)) {
          EXPECT_NE(row[0].AsInt64(), k)
              << "key " << k << " in partitions " << p << " and " << q;
        }
      }
    }
  }
}

TEST(TableTest, PartitionKeyMustExistAndPrecedeLoad) {
  Table t("t", TwoColumnSchema(), 2);
  EXPECT_EQ(t.SetPartitionKey({"nope"}).code(), StatusCode::kNotFound);
  t.AppendRow({Value(1), Value("x")});
  EXPECT_EQ(t.SetPartitionKey({"id"}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendRowToPartitionPreservesPlacement) {
  Table t("t", TwoColumnSchema(), 3);
  t.AppendRowToPartition(2, {Value(1), Value("a")});
  t.AppendRowToPartition(2, {Value(2), Value("b")});
  EXPECT_EQ(t.partition(0).size(), 0u);
  EXPECT_EQ(t.partition(2).size(), 2u);
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_GT(t.TotalBytes(), 0u);
}

TEST(TableTest, TotalBytesGrowsWithData) {
  Table t("t", TwoColumnSchema(), 2);
  uint64_t before = t.TotalBytes();
  t.AppendRow({Value(1), Value("hello world, a longer string")});
  EXPECT_GT(t.TotalBytes(), before + 20);
}

TEST(TableTest, BatchStorageRoundTripsRowsInOrder) {
  // NULLs in a typed column and a column mixing three value types (stored
  // as kValues), appended through both APIs, across several stored batches
  // per partition.
  Table t("t",
          Schema({{"id", ValueType::kInt64},
                  {"name", ValueType::kString},
                  {"mix", ValueType::kInt64}}),
          3);
  std::vector<std::vector<Row>> expected(3);
  uint64_t bytes = 0;
  size_t round_robin = 0;
  for (int i = 0; i < 5000; ++i) {
    Value mix = i % 5 == 0   ? Value::Null()
                : i % 3 == 0 ? Value(static_cast<int64_t>(i))
                : i % 3 == 1 ? Value(i * 0.5)
                             : Value("s" + std::to_string(i % 4));
    Row row = {Value(static_cast<int64_t>(i)),
               i % 7 == 0 ? Value::Null()
                          : Value("n" + std::to_string(i % 13)),
               mix};
    bytes += RowSizeBytes(row);
    if (i % 4 == 0) {
      const size_t p = static_cast<size_t>(i / 4) % 3;
      expected[p].push_back(row);
      t.AppendRowToPartition(p, row);
    } else {
      expected[round_robin++ % 3].push_back(row);
      t.AppendRow(row);
    }
  }
  EXPECT_EQ(t.NumRows(), 5000u);
  EXPECT_EQ(t.TotalBytes(), bytes);

  bool saw_values = false, saw_validity = false;
  for (size_t p = 0; p < 3; ++p) {
    const std::vector<Row> rows = t.partition(p);
    ASSERT_EQ(rows.size(), expected[p].size()) << "partition " << p;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i], expected[p][i]) << "partition " << p << " row " << i;
      for (size_t c = 0; c < rows[i].size(); ++c) {
        EXPECT_EQ(rows[i][c].type(), expected[p][i][c].type());
      }
    }
    EXPECT_GT(t.batches(p).size(), 1u);
    for (const ColumnBatch& b : t.batches(p)) {
      EXPECT_LE(b.num_rows, Table::kBatchRows);
      saw_values = saw_values || b.columns[2].kind == ColumnKind::kValues;
      saw_validity = saw_validity || !b.columns[1].validity.empty();
    }
  }
  EXPECT_TRUE(saw_values);
  EXPECT_TRUE(saw_validity);

  // Index offsets are partition-local append positions, and Locate finds
  // each one's stored row.
  ASSERT_TRUE(t.CreateSecondaryIndex("name").ok());
  const SecondaryIndex* index = t.GetSecondaryIndex("name");
  ASSERT_NE(index, nullptr);
  for (size_t p = 0; p < 3; ++p) {
    for (int k = 0; k < 13; ++k) {
      const Value key("n" + std::to_string(k));
      std::vector<uint32_t> want;
      for (size_t i = 0; i < expected[p].size(); ++i) {
        if (expected[p][i][1] == key) want.push_back(static_cast<uint32_t>(i));
      }
      const std::vector<uint32_t>* got = index->Lookup(p, key);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, want) << "partition " << p << " key " << k;
      for (uint32_t off : *got) {
        const auto [b, r] = t.Locate(p, off);
        EXPECT_EQ(t.batches(p)[b].RowAt(r), expected[p][off]);
      }
    }
  }
}

// --- Secondary index -----------------------------------------------------------

TEST(IndexTest, CreateAndLookup) {
  Table t("t", TwoColumnSchema(), 4);
  ASSERT_TRUE(t.SetPartitionKey({"id"}).ok());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value(i), Value("name_" + std::to_string(i % 10))});
  }
  ASSERT_TRUE(t.CreateSecondaryIndex("name").ok());
  EXPECT_TRUE(t.HasSecondaryIndex("name"));
  EXPECT_FALSE(t.HasSecondaryIndex("id"));
  const SecondaryIndex* index = t.GetSecondaryIndex("name");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), 100u);

  // Every indexed offset must point at a row with the right key.
  size_t total_matches = 0;
  for (size_t p = 0; p < t.num_partitions(); ++p) {
    const std::vector<uint32_t>* offsets =
        index->Lookup(p, Value("name_3"));
    if (offsets == nullptr) continue;
    for (uint32_t off : *offsets) {
      EXPECT_EQ(t.partition(p)[off][1], Value("name_3"));
      ++total_matches;
    }
  }
  EXPECT_EQ(total_matches, 10u);
}

TEST(IndexTest, LookupMissReturnsNull) {
  Table t("t", TwoColumnSchema(), 2);
  t.AppendRow({Value(1), Value("a")});
  ASSERT_TRUE(t.CreateSecondaryIndex("name").ok());
  const SecondaryIndex* index = t.GetSecondaryIndex("name");
  bool found = false;
  for (size_t p = 0; p < 2; ++p) {
    if (index->Lookup(p, Value("zzz")) != nullptr) found = true;
  }
  EXPECT_FALSE(found);
}

TEST(IndexTest, ErrorsOnBadColumnAndDuplicates) {
  Table t("t", TwoColumnSchema(), 2);
  EXPECT_EQ(t.CreateSecondaryIndex("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(t.CreateSecondaryIndex("id").ok());
  EXPECT_EQ(t.CreateSecondaryIndex("id").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t.IndexedColumns(), std::vector<std::string>{"id"});
}

// --- Catalog -------------------------------------------------------------------

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  auto t = std::make_shared<Table>("users", TwoColumnSchema(), 2);
  ASSERT_TRUE(catalog.RegisterTable(t).ok());
  EXPECT_TRUE(catalog.HasTable("users"));
  auto got = catalog.GetTable("users");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().get(), t.get());
  EXPECT_EQ(catalog.RegisterTable(t).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(catalog.DropTable("users").ok());
  EXPECT_FALSE(catalog.HasTable("users"));
  EXPECT_EQ(catalog.DropTable("users").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.GetTable("users").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, UniqueTempNames) {
  Catalog catalog;
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) names.insert(catalog.UniqueTempName("join"));
  EXPECT_EQ(names.size(), 100u);
  for (const auto& name : names) {
    EXPECT_TRUE(Catalog::IsTempName(name)) << name;
  }
  EXPECT_FALSE(Catalog::IsTempName("lineitem"));
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterTable(std::make_shared<Table>("b", TwoColumnSchema(), 1))
          .ok());
  ASSERT_TRUE(
      catalog.RegisterTable(std::make_shared<Table>("a", TwoColumnSchema(), 1))
          .ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace dynopt
