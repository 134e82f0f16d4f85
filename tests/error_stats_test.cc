// Cross-query error memory (ErrorStatsStore):
//  - aggregate semantics (geo-mean priors, clamped PriorFactor, bounded
//    entry count with a visible dropped-keys counter);
//  - persistence: Save is atomic (tmp + rename), Load is fail-soft — a
//    missing, truncated, corrupted, or wrong-version file warns and starts
//    fresh without surfacing an error to the query path;
//  - concurrency: writers racing on the same path always leave a complete,
//    loadable file; Record/Save from multiple threads never tear.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "opt/error_stats.h"
#include "plan/expr.h"
#include "plan/query_spec.h"

namespace dynopt {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ErrorStatsStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("dynopt_error_stats_test_" +
                     std::to_string(::getpid()) + ".tsv");
    std::error_code ec;
    fs::remove(path_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(ErrorStatsStoreTest, RecordAggregatesAndIgnoresInvalid) {
  ErrorStatsStore store("");  // In-memory: Load/Save are no-ops.
  store.Record("k", 2.0);
  store.Record("k", 8.0);
  store.Record("k", 0.5);                                      // q < 1
  store.Record("k", std::numeric_limits<double>::quiet_NaN());
  store.Record("k", std::numeric_limits<double>::infinity());
  const ErrorStatsEntry e = store.Get("k");
  EXPECT_EQ(e.count, 2u);
  EXPECT_DOUBLE_EQ(e.max_q, 8.0);
  EXPECT_NEAR(e.GeoMeanQ(), 4.0, 1e-12);  // sqrt(2 * 8)
  EXPECT_TRUE(store.Load().ok());
  EXPECT_TRUE(store.Save().ok());
  EXPECT_EQ(store.NumEntries(), 1u);  // In-memory Load must not clear.
}

TEST_F(ErrorStatsStoreTest, PriorFactorClampsToCapAndUnknownIsNeutral) {
  ErrorStatsStore store("");
  store.Record("hot", 100.0);
  store.Record("mild", 2.0);
  EXPECT_DOUBLE_EQ(store.PriorFactor("hot", 8.0), 8.0);    // Clamped to cap.
  EXPECT_DOUBLE_EQ(store.PriorFactor("mild", 8.0), 2.0);   // Geo-mean.
  EXPECT_DOUBLE_EQ(store.PriorFactor("unknown", 8.0), 1.0);
  EXPECT_EQ(store.Get("unknown").count, 0u);
}

TEST_F(ErrorStatsStoreTest, BoundedEntriesCountDrops) {
  ErrorStatsStore store("", /*max_entries=*/4);
  for (int i = 0; i < 10; ++i) {
    store.Record("k" + std::to_string(i), 2.0);
  }
  store.Record("k0", 4.0);  // Existing keys keep accumulating.
  EXPECT_EQ(store.NumEntries(), 4u);
  EXPECT_EQ(store.DroppedKeys(), 6u);
  EXPECT_EQ(store.Get("k0").count, 2u);
}

TEST_F(ErrorStatsStoreTest, SaveLoadRoundTripPreservesAggregates) {
  ErrorStatsStore writer(path_);
  writer.Record("tbl:orders|p:0011223344556677", 3.5);
  writer.Record("tbl:orders|p:0011223344556677", 7.25);
  writer.Record("join:orders+part", 1.0);
  ASSERT_TRUE(writer.Save().ok());

  ErrorStatsStore reader(path_);
  ASSERT_TRUE(reader.Load().ok());
  EXPECT_EQ(reader.NumEntries(), 2u);
  const ErrorStatsEntry e = reader.Get("tbl:orders|p:0011223344556677");
  EXPECT_EQ(e.count, 2u);
  EXPECT_DOUBLE_EQ(e.sum_log_q, std::log(3.5) + std::log(7.25));
  EXPECT_DOUBLE_EQ(e.max_q, 7.25);
  EXPECT_EQ(reader.Get("join:orders+part").count, 1u);
}

TEST_F(ErrorStatsStoreTest, MissingFileLoadsEmptyOk) {
  ErrorStatsStore store(path_);
  EXPECT_TRUE(store.Load().ok());
  EXPECT_EQ(store.NumEntries(), 0u);
}

TEST_F(ErrorStatsStoreTest, TruncatedFileStartsFresh) {
  ErrorStatsStore writer(path_);
  writer.Record("a", 2.0);
  writer.Record("b", 3.0);
  ASSERT_TRUE(writer.Save().ok());
  // Drop the checksum trailer (and the last entry) as a torn write would.
  std::string contents = ReadAll(path_);
  const size_t cut = contents.find("checksum ");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << contents.substr(0, cut);
  }
  ErrorStatsStore reader(path_);
  EXPECT_TRUE(reader.Load().ok());  // Fail-soft: warn, not error.
  EXPECT_EQ(reader.NumEntries(), 0u);
}

TEST_F(ErrorStatsStoreTest, CorruptedPayloadFailsChecksumAndStartsFresh) {
  ErrorStatsStore writer(path_);
  writer.Record("tbl:lineitem", 5.0);
  ASSERT_TRUE(writer.Save().ok());
  std::string contents = ReadAll(path_);
  // Flip one payload character ('5' count digit or key byte) in place.
  const size_t pos = contents.find("lineitem");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'X';
  {
    std::ofstream out(path_, std::ios::trunc);
    out << contents;
  }
  ErrorStatsStore reader(path_);
  EXPECT_TRUE(reader.Load().ok());
  EXPECT_EQ(reader.NumEntries(), 0u);
}

TEST_F(ErrorStatsStoreTest, WrongMagicOrVersionStartsFresh) {
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "NOT_A_STORE v1 0\nchecksum 0000000000000000\n";
  }
  ErrorStatsStore s1(path_);
  EXPECT_TRUE(s1.Load().ok());
  EXPECT_EQ(s1.NumEntries(), 0u);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "DYNOPT_ERRSTATS v99 0\nchecksum 0000000000000000\n";
  }
  ErrorStatsStore s2(path_);
  EXPECT_TRUE(s2.Load().ok());
  EXPECT_EQ(s2.NumEntries(), 0u);
}

TEST_F(ErrorStatsStoreTest, MalformedEntryLineStartsFresh) {
  {
    std::ofstream out(path_, std::ios::trunc);
    out << "DYNOPT_ERRSTATS v1 1\n"
        << "no-tabs-here\n"
        << "checksum 0000000000000000\n";
  }
  ErrorStatsStore store(path_);
  EXPECT_TRUE(store.Load().ok());
  EXPECT_EQ(store.NumEntries(), 0u);
  // A corrupt load must not poison subsequent recording + saving.
  store.Record("recovered", 2.0);
  ASSERT_TRUE(store.Save().ok());
  ErrorStatsStore reader(path_);
  ASSERT_TRUE(reader.Load().ok());
  EXPECT_EQ(reader.Get("recovered").count, 1u);
}

TEST_F(ErrorStatsStoreTest, ConcurrentWritersAlwaysLeaveLoadableFile) {
  // Two stores race Save() on the same path while a reader keeps loading.
  // rename() atomicity means every observed file is one writer's complete
  // snapshot — the reader must never see a short or torn file.
  ErrorStatsStore a(path_);
  ErrorStatsStore b(path_);
  for (int i = 0; i < 32; ++i) {
    a.Record("a" + std::to_string(i), 2.0 + i);
    b.Record("b" + std::to_string(i), 3.0 + i);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> save_failures{0};
  auto writer = [&](ErrorStatsStore* s) {
    for (int i = 0; i < 50; ++i) {
      if (!s->Save().ok()) ++save_failures;
    }
  };
  std::thread ta(writer, &a);
  std::thread tb(writer, &b);
  std::thread tr([&] {
    while (!stop.load()) {
      ErrorStatsStore reader(path_);
      ASSERT_TRUE(reader.Load().ok());
      const size_t n = reader.NumEntries();
      // Whichever writer won last, its snapshot is complete: all 32 of its
      // keys or none (file not yet created).
      ASSERT_TRUE(n == 0 || n == 32u) << "torn file with " << n << " entries";
    }
  });
  ta.join();
  tb.join();
  stop.store(true);
  tr.join();
  EXPECT_EQ(save_failures.load(), 0);
  ErrorStatsStore final_reader(path_);
  ASSERT_TRUE(final_reader.Load().ok());
  EXPECT_EQ(final_reader.NumEntries(), 32u);
}

TEST_F(ErrorStatsStoreTest, ConcurrentRecordAndSaveDoNotTear) {
  ErrorStatsStore store(path_);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 200; ++i) {
        store.Record("key" + std::to_string((t * 7 + i) % 16), 1.5 + t);
        if (i % 25 == 0) {
          ASSERT_TRUE(store.Save().ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(store.Save().ok());
  ErrorStatsStore reader(path_);
  ASSERT_TRUE(reader.Load().ok());
  EXPECT_EQ(reader.NumEntries(), 16u);
  uint64_t total = 0;
  for (int k = 0; k < 16; ++k) {
    total += reader.Get("key" + std::to_string(k)).count;
  }
  EXPECT_EQ(total, 4u * 200u);  // No Record lost, none double-counted.
}

TEST(ErrorKeysTest, TableKeyIsPredicateOrderInsensitive) {
  auto p1 = Eq(Col("t", "a"), Lit(Value(int64_t{1})));
  auto p2 = Eq(Col("t", "b"), Lit(Value(int64_t{2})));
  EXPECT_EQ(TableErrorKey("t", {p1, p2}), TableErrorKey("t", {p2, p1}));
  EXPECT_NE(TableErrorKey("t", {p1}), TableErrorKey("t", {p2}));
  EXPECT_EQ(TableErrorKey("t", {}), "tbl:t");
}

TEST(ErrorKeysTest, JoinKeySortsBaseTables) {
  EXPECT_EQ(JoinErrorKey({"part", "orders"}), "join:orders+part");
  EXPECT_EQ(JoinErrorKey({"orders", "part"}), "join:orders+part");
}

TEST(EngineErrorStatsTest, DisabledByDefaultAndRebuiltOnKnobChange) {
  Engine engine;
  EXPECT_EQ(EngineErrorStats(&engine), nullptr);
  EXPECT_EQ(EngineErrorStats(nullptr), nullptr);

  const std::string p1 = TempPath("dynopt_engine_store_a.tsv");
  const std::string p2 = TempPath("dynopt_engine_store_b.tsv");
  std::error_code ec;
  fs::remove(p1, ec);
  fs::remove(p2, ec);

  engine.mutable_cluster().risk.use_error_store = true;
  engine.mutable_cluster().risk.error_stats_path = p1;
  ErrorStatsStore* s1 = EngineErrorStats(&engine);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(s1->path(), p1);
  EXPECT_EQ(EngineErrorStats(&engine), s1);  // Cached across calls.

  engine.mutable_cluster().risk.error_stats_path = p2;
  ErrorStatsStore* s2 = EngineErrorStats(&engine);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->path(), p2);
  EXPECT_NE(s2, s1);  // Path change rebuilds the slot.

  engine.mutable_cluster().risk.use_error_store = false;
  EXPECT_EQ(EngineErrorStats(&engine), nullptr);
  fs::remove(p1, ec);
  fs::remove(p2, ec);
}

TEST(PriorRiskTest, MapsStoredErrorsOntoAliasAndGlobalFactors) {
  ErrorStatsStore store("");
  QuerySpec spec;
  spec.tables = {{"orders", "o", false, false, {}},
                 {"part", "p", false, false, {}}};
  spec.predicates = {{"o", Eq(Col("o", "status"), Lit(Value(int64_t{3})))}};

  // Empty store: fully neutral risk.
  SelectivityRisk neutral = PriorRisk(spec, &store);
  EXPECT_TRUE(neutral.IsNeutral());
  EXPECT_TRUE(PriorRisk(spec, nullptr).IsNeutral());

  store.Record(TableErrorKey("orders", spec.PredicatesFor("o")), 12.0);
  store.Record(JoinErrorKey({"orders", "part"}), 3.0);
  SelectivityRisk risk = PriorRisk(spec, &store);
  EXPECT_FALSE(risk.IsNeutral());
  // 12.0 clamped to the cap.
  EXPECT_DOUBLE_EQ(risk.alias_factors.at("o"), kMaxCiWidening);
  EXPECT_EQ(risk.alias_factors.count("p"), 0u);  // Nothing stored.
  EXPECT_DOUBLE_EQ(risk.global_factor, 3.0);
  EXPECT_DOUBLE_EQ(risk.FactorFor("o"), kMaxCiWidening);
  // FactorFor covers only per-alias widening; the global factor is applied
  // to join outputs by the planners, not folded into input lookups.
  EXPECT_DOUBLE_EQ(risk.FactorFor("p"), 1.0);
}

}  // namespace
}  // namespace dynopt
