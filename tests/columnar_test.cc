#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "exec/batch.h"
#include "exec/engine.h"
#include "exec/executor.h"
#include "exec/reference_kernels.h"
#include "exec/vector_kernels.h"
#include "opt/optimizer.h"

#ifndef DYNOPT_GOLDEN_DIR
#define DYNOPT_GOLDEN_DIR "tests/golden"
#endif

namespace dynopt {
namespace {

// Property tests for the vectorized columnar engine: random datasets run
// through the columnar kernels must match the sequential reference kernels
// (identical rows in identical order, bit-identical simulated seconds and
// counters, exact row_sizes annotations), and whole plans — filters,
// projections, shuffle/broadcast joins, grace-join spills under a memory
// budget, index nested-loop joins, bind errors — must reproduce the golden
// records in tests/golden/executor_parity.txt, frozen from the row-at-a-time
// operator set the columnar executor replaced. CI runs this binary under
// TSan (the batch kernels are partition-parallel) and under ASan+UBSan (the
// typed gathers and dictionary merges are pointer-heavy).

uint64_t TotalRowSizes(const Dataset& data) {
  uint64_t total = 0;
  for (const auto& part : data.row_sizes) {
    for (uint64_t s : part) total += s;
  }
  return total;
}

void ExpectDatasetsEqual(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.columns, b.columns);
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (size_t p = 0; p < a.partitions.size(); ++p) {
    ASSERT_EQ(a.partitions[p].size(), b.partitions[p].size())
        << "partition " << p;
    for (size_t i = 0; i < a.partitions[p].size(); ++i) {
      EXPECT_EQ(a.partitions[p][i], b.partitions[p][i])
          << "partition " << p << " row " << i;
    }
  }
}

void ExpectMetricsEqual(const ExecMetrics& a, const ExecMetrics& b) {
  // Bit-exact: both runs must charge exactly the same units of work in
  // exactly the same order.
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.reopt_seconds, b.reopt_seconds);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.bytes_scanned, b.bytes_scanned);
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
  EXPECT_EQ(a.bytes_broadcast, b.bytes_broadcast);
  EXPECT_EQ(a.bytes_intermediate_read, b.bytes_intermediate_read);
  EXPECT_EQ(a.index_lookups, b.index_lookups);
}

/// A random dataset exercising every ColumnKind: an int64 key with NULLs, a
/// second int64 key, a double, a string with a skewed (dictionary-friendly)
/// domain, and a deliberately mixed-type column (kValues fallback).
Dataset RandomDataset(uint64_t seed, size_t rows, size_t num_partitions,
                      int key_domain, double null_rate) {
  Dataset data({"t.k", "t.k2", "t.score", "t.name", "t.mixed"},
               num_partitions);
  Rng rng(seed);
  ZipfDistribution zipf(16, 1.2);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(rng.NextBool(null_rate)
                      ? Value::Null()
                      : Value(rng.NextInt64(0, key_domain - 1)));
    row.push_back(Value(rng.NextInt64(0, 4)));
    row.push_back(Value(rng.NextDouble() * 100.0));
    row.push_back(Value("name_" + std::to_string(zipf.Sample(rng))));
    switch (rng.NextInt64(0, 3)) {
      case 0:
        row.push_back(Value(rng.NextInt64(-5, 5)));
        break;
      case 1:
        row.push_back(Value(rng.NextDouble()));
        break;
      case 2:
        row.push_back(Value(std::string("m") + std::to_string(i % 7)));
        break;
      default:
        row.push_back(Value::Null());
        break;
    }
    data.partitions[rng.NextUint64(num_partitions)].push_back(std::move(row));
  }
  return data;
}

// --- Batch representation round-trip --------------------------------------

TEST(ColumnBatchTest, RoundTripPreservesRowsAndSizes) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Dataset data = RandomDataset(seed, 500, 4, 40, 0.15);
    for (size_t batch_size : {1u, 3u, 64u, 1024u}) {
      ColumnarDataset columnar = FromDataset(data, batch_size);
      EXPECT_EQ(columnar.NumRows(), data.NumRows());
      Dataset back = ToDataset(std::move(columnar));
      ExpectDatasetsEqual(data, back);
      ASSERT_TRUE(back.HasRowSizes());
      for (size_t p = 0; p < back.partitions.size(); ++p) {
        for (size_t i = 0; i < back.partitions[p].size(); ++i) {
          EXPECT_EQ(back.row_sizes[p][i],
                    RowSizeBytes(back.partitions[p][i]));
        }
      }
    }
  }
}

TEST(ColumnBatchTest, BatchHashAndSizeMatchRowKernels) {
  Dataset data = RandomDataset(7, 300, 1, 20, 0.2);
  ColumnarDataset columnar = FromDataset(data, 64);
  const std::vector<int> keys = {0, 3};
  size_t row_idx = 0;
  for (const ColumnBatch& b : columnar.partitions[0]) {
    std::vector<uint64_t> hashes(b.num_rows);
    std::vector<uint8_t> nulls(b.num_rows, 0);
    HashKeyColumns(b, keys.data(), keys.size(), hashes.data(), nulls.data());
    for (size_t i = 0; i < b.num_rows; ++i, ++row_idx) {
      const Row& row = data.partitions[0][row_idx];
      EXPECT_EQ(hashes[i], HashRowKey(row, keys));
      EXPECT_EQ(nulls[i] != 0, row[0].is_null() || row[3].is_null());
      uint64_t size = 8;
      for (const Value& v : row) size += ValueSizeBytesInline(v);
      EXPECT_EQ(b.row_sizes[i], size);
    }
  }
  EXPECT_EQ(row_idx, data.partitions[0].size());
}

// --- Columnar kernels vs row reference kernels ----------------------------

TEST(ColumnarKernelTest, ShuffleAndJoinMatchRowReferenceKernels) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    Engine engine;
    const ClusterConfig& cluster = engine.cluster();
    Dataset build = RandomDataset(seed, 400, cluster.num_nodes, 25, 0.1);
    Dataset probe =
        RandomDataset(seed + 100, 600, cluster.num_nodes, 25, 0.1);
    const std::vector<int> keys = {0, 1};

    // Row reference pipeline (sequential, recomputes hashes everywhere).
    ExecMetrics row_metrics;
    Dataset row_build = reference::Repartition(Dataset(build), keys, cluster,
                                               &row_metrics);
    Dataset row_probe = reference::Repartition(Dataset(probe), keys, cluster,
                                               &row_metrics);
    Dataset row_joined = reference::LocalHashJoin(
        row_build, row_probe, keys, keys, cluster, &row_metrics);

    // Columnar pipeline (parallel, hashes flow from shuffle into build and
    // probe).
    JobExecutor executor = engine.MakeExecutor();
    ExecMetrics col_metrics;
    auto cb = executor.RepartitionColumnar(
        FromDataset(build, cluster.exec.max_batch_size), keys, &col_metrics);
    ASSERT_TRUE(cb.ok()) << cb.status().ToString();
    auto pb = executor.RepartitionColumnar(
        FromDataset(probe, cluster.exec.max_batch_size), keys, &col_metrics);
    ASSERT_TRUE(pb.ok()) << pb.status().ToString();
    auto joined = executor.LocalHashJoinColumnar(cb->data, pb->data, keys,
                                                 keys, &col_metrics,
                                                 &cb->hashes, &pb->hashes);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    Dataset col_joined = ToDataset(std::move(*joined));

    ExpectDatasetsEqual(row_joined, col_joined);
    EXPECT_EQ(row_metrics.simulated_seconds, col_metrics.simulated_seconds);
    EXPECT_EQ(row_metrics.bytes_shuffled, col_metrics.bytes_shuffled);
    EXPECT_EQ(row_metrics.tuples_processed, col_metrics.tuples_processed);
    ASSERT_TRUE(col_joined.HasRowSizes());
    uint64_t annotated = TotalRowSizes(col_joined);
    uint64_t actual = 0;
    for (const auto& part : col_joined.partitions) {
      for (const Row& row : part) actual += RowSizeBytes(row);
    }
    EXPECT_EQ(annotated, actual);
  }
}

// --- Whole-query parity: the executor against the frozen row engine ------

/// 64-bit FNV-1a over a type-tagged binary encoding of every value, so an
/// int64 and an equal double (or two doubles differing in the last bit)
/// hash differently.
class RowHasher {
 public:
  void AddRow(const Row& row) {
    for (const Value& v : row) AddValue(v);
    AddByte(0xff);  // Row terminator.
  }
  void AddByte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t value() const { return h_; }

 private:
  void AddBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) AddByte(p[i]);
  }
  void AddValue(const Value& v) {
    AddByte(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        AddByte(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt64: {
        const int64_t x = v.AsInt64();
        AddBytes(&x, sizeof(x));
        break;
      }
      case ValueType::kDouble: {
        const double x = v.AsDouble();
        AddBytes(&x, sizeof(x));
        break;
      }
      case ValueType::kString: {
        const std::string& s = v.AsString();
        const uint64_t len = s.size();
        AddBytes(&len, sizeof(len));
        AddBytes(s.data(), s.size());
        break;
      }
    }
  }

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One golden line for a job run: the output's columns, row count, an
/// order-sensitive hash (partition by partition, row by row), a sorted-row
/// hash, and every deterministic ExecMetrics counter (the wall_* timers are
/// host time and excluded). A failed run records its status instead.
std::string GoldenRecord(const Result<JobResult>& run) {
  if (!run.ok()) return "status=" + run.status().ToString();
  const Dataset data = ToDataset(ColumnarDataset(run->data));
  const ExecMetrics& m = run->metrics;
  std::string cols;
  for (const std::string& c : data.columns) cols += (cols.empty() ? "" : ",") + c;
  RowHasher ordered;
  for (const auto& part : data.partitions) {
    for (const Row& row : part) ordered.AddRow(row);
    ordered.AddByte(0xfe);  // Partition boundary.
  }
  std::vector<Row> rows = data.GatherRows();
  SortRows(&rows);
  RowHasher sorted;
  for (const Row& row : rows) sorted.AddRow(row);
  std::string out = "cols=" + cols;
  out += " rows=" + std::to_string(data.NumRows());
  out += " ordered=" + Hex(ordered.value());
  out += " sorted=" + Hex(sorted.value());
  out += " rows_out=" + std::to_string(m.rows_out);
  out += " tuples_processed=" + std::to_string(m.tuples_processed);
  out += " bytes_scanned=" + std::to_string(m.bytes_scanned);
  out += " bytes_shuffled=" + std::to_string(m.bytes_shuffled);
  out += " bytes_broadcast=" + std::to_string(m.bytes_broadcast);
  out += " bytes_materialized=" + std::to_string(m.bytes_materialized);
  out += " bytes_intermediate_read=" +
         std::to_string(m.bytes_intermediate_read);
  out += " index_lookups=" + std::to_string(m.index_lookups);
  out += " num_jobs=" + std::to_string(m.num_jobs);
  out += " num_reopt_points=" + std::to_string(m.num_reopt_points);
  out += " simulated_seconds=" + Exact(m.simulated_seconds);
  out += " reopt_seconds=" + Exact(m.reopt_seconds);
  out += " stats_seconds=" + Exact(m.stats_seconds);
  out += " recovery_seconds=" + Exact(m.recovery_seconds);
  out += " num_retries=" + std::to_string(m.num_retries);
  out += " speculative_executions=" +
         std::to_string(m.speculative_executions);
  out += " corrupted_blocks=" + std::to_string(m.corrupted_blocks);
  out += " peak_memory_bytes=" + std::to_string(m.peak_memory_bytes);
  out += " spilled_bytes=" + std::to_string(m.spilled_bytes);
  out += " spill_partitions=" + std::to_string(m.spill_partitions);
  out += " admission_degraded=" + std::to_string(m.admission_degraded);
  out += " max_q_error=" + Exact(m.max_q_error);
  out += " num_decisions=" + std::to_string(m.num_decisions);
  out += " error_reopt_triggers=" + std::to_string(m.error_reopt_triggers);
  out += " pt_filter_bytes=" + std::to_string(m.pt_filter_bytes);
  out += " pt_pruned_rows=" + std::to_string(m.pt_pruned_rows);
  out += " pt_pruned_bytes=" + std::to_string(m.pt_pruned_bytes);
  return out;
}

/// tests/golden/executor_parity.txt: one "<case> <record>" line per plan,
/// recorded from the row-at-a-time operator set that preceded the single
/// columnar executor. Regenerate with DYNOPT_REGEN_GOLDEN=1 (each case
/// rewrites its own line; the others are kept).
class ParityGolden {
 public:
  static ParityGolden& Get() {
    static ParityGolden golden;
    return golden;
  }

  void Check(const std::string& name, const std::string& record) {
    if (std::getenv("DYNOPT_REGEN_GOLDEN") != nullptr) {
      lines_[name] = record;
      std::ofstream out(kPath);
      ASSERT_TRUE(out.good()) << "cannot write " << kPath;
      for (const auto& [n, r] : lines_) out << n << " " << r << "\n";
      return;
    }
    auto it = lines_.find(name);
    ASSERT_NE(it, lines_.end())
        << "no golden line for " << name << " in " << kPath
        << " (run once with DYNOPT_REGEN_GOLDEN=1)";
    EXPECT_EQ(record, it->second)
        << name << " drifted from the golden record";
  }

 private:
  static constexpr const char* kPath = DYNOPT_GOLDEN_DIR "/executor_parity.txt";

  ParityGolden() {
    std::ifstream in(kPath);
    std::string line;
    while (std::getline(in, line)) {
      const size_t space = line.find(' ');
      if (space == std::string::npos) continue;
      lines_[line.substr(0, space)] = line.substr(space + 1);
    }
  }

  std::map<std::string, std::string> lines_;
};

/// Runs plans through the executor and compares each result — rows, row
/// order, every deterministic counter, or the error — against the golden
/// file. Tables get every kind of column plus NULL keys.
class ColumnarParityTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::make_unique<Engine>(); }

  /// `num_partitions` 0 means one per cluster node.
  std::shared_ptr<Table> MakeTable(const std::string& name, int rows,
                                   int key_domain, uint64_t seed,
                                   double null_rate = 0.1,
                                   size_t num_partitions = 0) {
    auto t = std::make_shared<Table>(
        name,
        Schema({{"k", ValueType::kInt64},
                {"k2", ValueType::kInt64},
                {"score", ValueType::kDouble},
                {"name", ValueType::kString}}),
        num_partitions != 0 ? num_partitions : engine_->cluster().num_nodes);
    EXPECT_TRUE(t->SetPartitionKey({"k"}).ok());
    Rng rng(seed);
    ZipfDistribution zipf(32, 1.1);
    for (int i = 0; i < rows; ++i) {
      t->AppendRow({rng.NextBool(null_rate)
                        ? Value::Null()
                        : Value(rng.NextInt64(0, key_domain - 1)),
                    Value(rng.NextInt64(0, 5)),
                    Value(rng.NextDouble() * 10.0),
                    Value("s" + std::to_string(zipf.Sample(rng)))});
    }
    EXPECT_TRUE(engine_->catalog().RegisterTable(t).ok());
    return t;
  }

  /// Executes `plan` under a fresh QueryContext (so peak_memory_bytes is
  /// real) and checks the result against golden line `name`. Pass
  /// `with_context` false for plans whose partitions spill concurrently:
  /// the tracker's high-water mark then depends on thread interleaving.
  JobResult ExpectGolden(const std::string& name, const PlanNode& plan,
                         const std::map<std::string, Value>& params = {},
                         bool with_context = true) {
    QueryContext ctx("parity");
    JobExecutor executor =
        engine_->MakeExecutor(with_context ? &ctx : nullptr);
    auto run = executor.Execute(plan, params);
    ParityGolden::Get().Check(name, GoldenRecord(run));
    if (!run.ok()) return JobResult();
    return std::move(*run);
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(ColumnarParityTest, FilterPredicateZoo) {
  MakeTable("t", 800, 50, 21);
  ASSERT_TRUE(engine_->udfs()
                  .Register("half",
                            [](const std::vector<Value>& args) {
                              if (args[0].is_null()) return Value::Null();
                              return Value(args[0].AsDouble() / 2.0);
                            })
                  .ok());
  std::vector<ExprPtr> predicates = {
      Eq(Col("a", "k"), Lit(Value(3))),
      Cmp(CompareOp::kLt, Col("a", "score"), Lit(Value(4.5))),
      // Cross-type numeric comparison (int64 column vs double literal).
      Cmp(CompareOp::kGe, Col("a", "k"), Lit(Value(10.5))),
      Between(Col("a", "k"), Lit(Value(5)), Lit(Value(20))),
      // String comparisons against constants (dictionary fast path).
      Eq(Col("a", "name"), Lit(Value(std::string("s0")))),
      Cmp(CompareOp::kGt, Col("a", "name"), Lit(Value(std::string("s2")))),
      // NULL-propagating leaves under EvalBool coercion.
      Eq(Col("a", "k"), Lit(Value::Null())),
      // AND/OR/NOT trees over NULLable children.
      And({Cmp(CompareOp::kGe, Col("a", "k"), Lit(Value(10))),
           Or({Eq(Col("a", "k2"), Lit(Value(1))),
               Not(Eq(Col("a", "name"), Lit(Value(std::string("s1")))))})}),
      Not(Eq(Col("a", "k"), Lit(Value::Null()))),
      // Parameters and UDFs.
      Eq(Col("a", "k2"), Param("p")),
      Cmp(CompareOp::kLt, Udf("half", {Col("a", "score")}), Lit(Value(2.0))),
      // Column-vs-column comparison.
      Cmp(CompareOp::kLe, Col("a", "k2"), Col("a", "k")),
  };
  for (size_t i = 0; i < predicates.size(); ++i) {
    auto plan =
        PlanNode::Filter(PlanNode::Scan("t", "a"), predicates[i]);
    ExpectGolden("FilterPredicateZoo/" + std::to_string(i), *plan,
                 {{"p", Value(2)}});
  }
}

TEST_F(ColumnarParityTest, FilterBindErrorsMatchGolden) {
  MakeTable("t", 10, 5, 22);
  auto bad_col =
      PlanNode::Filter(PlanNode::Scan("t", "a"), Eq(Col("a", "nope"),
                                                    Lit(Value(1))));
  ExpectGolden("FilterBindErrors/column", *bad_col);
  auto bad_param =
      PlanNode::Filter(PlanNode::Scan("t", "a"), Eq(Col("a", "k"),
                                                    Param("missing")));
  ExpectGolden("FilterBindErrors/param", *bad_param);
  auto bad_udf = PlanNode::Filter(PlanNode::Scan("t", "a"),
                                  Eq(Udf("nope", {Col("a", "k")}),
                                     Lit(Value(1))));
  ExpectGolden("FilterBindErrors/udf", *bad_udf);
}

TEST_F(ColumnarParityTest, ShuffleJoinRandomized) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    auto lhs = "lhs" + std::to_string(seed);
    auto rhs = "rhs" + std::to_string(seed);
    MakeTable(lhs, 700, 40, seed);
    MakeTable(rhs, 900, 40, seed + 1);
    // Join on k2 (not the partition key) to force real shuffle traffic;
    // composite key with NULLs on k.
    auto plan = PlanNode::Join(
        JoinMethod::kHashShuffle, PlanNode::Scan(lhs, "l"),
        PlanNode::Scan(rhs, "r"), {{"l.k", "r.k"}, {"l.k2", "r.k2"}});
    ExpectGolden("ShuffleJoinRandomized/" + std::to_string(seed), *plan);
  }
}

TEST_F(ColumnarParityTest, BroadcastJoinIncludingOversized) {
  MakeTable("small", 150, 30, 41);
  MakeTable("big", 1200, 30, 42);
  auto plan = PlanNode::Join(JoinMethod::kBroadcast,
                             PlanNode::Scan("small", "l"),
                             PlanNode::Scan("big", "r"), {{"l.k", "r.k"}});
  JobResult result = ExpectGolden("BroadcastJoin/fits", *plan);
  EXPECT_GT(result.metrics.bytes_broadcast, 0u);

  // Shrink the broadcast budget so the build side overflows: with no join
  // memory budget the flat spill penalty is charged.
  engine_->mutable_cluster().broadcast_threshold_bytes = 512;
  ExpectGolden("BroadcastJoin/oversized", *plan);
}

TEST_F(ColumnarParityTest, MultiOperatorPipeline) {
  MakeTable("lhs", 600, 30, 51);
  MakeTable("rhs", 800, 30, 52);
  auto plan = PlanNode::Project(
      PlanNode::Join(
          JoinMethod::kHashShuffle,
          PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                           Cmp(CompareOp::kGe, Col("l", "score"),
                               Lit(Value(2.0)))),
          PlanNode::Filter(PlanNode::Scan("rhs", "r"),
                           Between(Col("r", "k"), Lit(Value(2)),
                                   Lit(Value(25)))),
          {{"l.k2", "r.k2"}}),
      {"r.name", "l.score", "l.k"});
  ExpectGolden("MultiOperatorPipeline", *plan);
}

TEST_F(ColumnarParityTest, EmptyInputsAndEmptyPartitions) {
  MakeTable("empty", 0, 10, 61);
  MakeTable("tiny", 3, 1000, 62, /*null_rate=*/0.0);
  MakeTable("t", 400, 20, 63);
  // Empty build side.
  ExpectGolden("EmptyInputs/empty_build",
               *PlanNode::Join(JoinMethod::kHashShuffle,
                               PlanNode::Scan("empty", "l"),
                               PlanNode::Scan("t", "r"), {{"l.k", "r.k"}}));
  // Tiny build side: after shuffling by a 1000-value domain most of the 10
  // partitions are empty on the build side.
  ExpectGolden("EmptyInputs/tiny_build",
               *PlanNode::Join(JoinMethod::kHashShuffle,
                               PlanNode::Scan("tiny", "l"),
                               PlanNode::Scan("t", "r"), {{"l.k2", "r.k2"}}));
  // Empty probe side, broadcast method.
  ExpectGolden("EmptyInputs/empty_probe_broadcast",
               *PlanNode::Join(JoinMethod::kBroadcast,
                               PlanNode::Scan("t", "l"),
                               PlanNode::Scan("empty", "r"),
                               {{"l.k", "r.k"}}));
  // Filter that rejects everything.
  ExpectGolden("EmptyInputs/filter_rejects_all",
               *PlanNode::Filter(PlanNode::Scan("t", "a"),
                                 Eq(Col("a", "k"), Lit(Value(-1)))));
}

TEST_F(ColumnarParityTest, HashJoinUnderTightBudget) {
  const size_t n = engine_->cluster().num_nodes;
  // Build keys that all route to node 0, so exactly one build partition
  // overflows the budget and goes through the grace split / spill /
  // rejoin recursion (several distinct keys, so the salted split spreads
  // them). One spilling partition keeps peak_memory_bytes deterministic.
  std::vector<int64_t> node0_keys;
  for (int64_t v = 0; node0_keys.size() < 12; ++v) {
    if (HashRowKey({Value(v)}, {0}) % n == 0) node0_keys.push_back(v);
  }
  auto build = std::make_shared<Table>(
      "build0", Schema({{"k", ValueType::kInt64}, {"pad", ValueType::kString}}),
      n);
  ASSERT_TRUE(build->SetPartitionKey({"k"}).ok());
  Rng rng(91);
  for (int i = 0; i < 600; ++i) {
    build->AppendRow(
        {Value(node0_keys[rng.NextUint64(node0_keys.size())]),
         Value("b" + std::to_string(i))});
  }
  ASSERT_TRUE(engine_->catalog().RegisterTable(build).ok());
  MakeTable("probe", 900, 40, 92);
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 2048;
  auto one = PlanNode::Join(JoinMethod::kHashShuffle,
                            PlanNode::Scan("build0", "b"),
                            PlanNode::Scan("probe", "p"), {{"b.k", "p.k"}});
  JobResult single = ExpectGolden("TightBudget/one_partition_spills", *one);
  EXPECT_GT(single.metrics.spill_partitions, 0u);
  EXPECT_GT(single.metrics.peak_memory_bytes, 0u);

  // Every partition spills (concurrently), through a filter and a
  // projection, on a composite key with NULLs.
  MakeTable("lhs", 700, 40, 93);
  MakeTable("rhs", 900, 40, 94);
  auto all = PlanNode::Project(
      PlanNode::Join(
          JoinMethod::kHashShuffle,
          PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                           Cmp(CompareOp::kGe, Col("l", "score"),
                               Lit(Value(1.0)))),
          PlanNode::Scan("rhs", "r"), {{"l.k2", "r.k2"}, {"l.k", "r.k"}}),
      {"l.name", "r.score", "r.k"});
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 512;
  JobResult every = ExpectGolden("TightBudget/every_partition_spills", *all,
                                 {}, /*with_context=*/false);
  EXPECT_GT(every.metrics.spill_partitions, n);
}

TEST_F(ColumnarParityTest, BroadcastBuildOverflowsBudget) {
  // The replicated build side exceeds the join memory budget on every
  // node: it is grace-split like a shuffled build, and the flat
  // spill_penalty_passes overflow charge does not apply under a budget.
  MakeTable("small", 300, 30, 101);
  MakeTable("big1", 800, 30, 102, 0.1, /*num_partitions=*/1);
  MakeTable("big", 1200, 30, 103);
  engine_->mutable_cluster().broadcast_threshold_bytes = 512;
  engine_->mutable_cluster().memory.join_memory_budget_bytes = 1024;
  auto single = PlanNode::Join(JoinMethod::kBroadcast,
                               PlanNode::Scan("small", "l"),
                               PlanNode::Scan("big1", "r"), {{"l.k", "r.k"}});
  JobResult one = ExpectGolden("BroadcastOverflow/one_node", *single);
  EXPECT_GT(one.metrics.spill_partitions, 0u);
  auto all = PlanNode::Join(JoinMethod::kBroadcast,
                            PlanNode::Scan("small", "l"),
                            PlanNode::Scan("big", "r"), {{"l.k", "r.k"}});
  JobResult every = ExpectGolden("BroadcastOverflow/every_node", *all, {},
                                 /*with_context=*/false);
  EXPECT_GT(every.metrics.spill_partitions, 0u);
}

TEST_F(ColumnarParityTest, IndexNestedLoopJoin) {
  auto inner = MakeTable("inner", 2000, 200, 111);
  ASSERT_TRUE(inner->CreateSecondaryIndex("k").ok());
  MakeTable("outer", 120, 200, 112);
  // Outer through a filter, inner projected by pushdown.
  auto inner_scan = PlanNode::Scan("inner", "i");
  inner_scan->scan_columns = {"i.name", "i.k"};
  auto plan = PlanNode::Join(
      JoinMethod::kIndexNestedLoop,
      PlanNode::Filter(PlanNode::Scan("outer", "o"),
                       Cmp(CompareOp::kLt, Col("o", "score"),
                           Lit(Value(7.0)))),
      std::move(inner_scan), {{"o.k", "i.k"}});
  JobResult result = ExpectGolden("IndexNestedLoopJoin/filtered_outer", *plan);
  EXPECT_GT(result.metrics.index_lookups, 0u);
  // Whole inner row, and an INLJ feeding a shuffle join.
  MakeTable("third", 300, 200, 113);
  auto chain = PlanNode::Join(
      JoinMethod::kHashShuffle,
      PlanNode::Join(JoinMethod::kIndexNestedLoop, PlanNode::Scan("outer", "o"),
                     PlanNode::Scan("inner", "i"), {{"o.k", "i.k"}}),
      PlanNode::Scan("third", "t"), {{"i.k2", "t.k2"}});
  ExpectGolden("IndexNestedLoopJoin/feeds_shuffle", *chain);
  // Error paths: no index on the inner key, and an unknown outer key.
  ExpectGolden("IndexNestedLoopJoin/no_index",
               *PlanNode::Join(JoinMethod::kIndexNestedLoop,
                               PlanNode::Scan("outer", "o"),
                               PlanNode::Scan("inner", "i"),
                               {{"o.k2", "i.k2"}}));
  ExpectGolden("IndexNestedLoopJoin/bad_outer_key",
               *PlanNode::Join(JoinMethod::kIndexNestedLoop,
                               PlanNode::Scan("outer", "o"),
                               PlanNode::Scan("inner", "i"),
                               {{"o.nope", "i.k"}}));
}

TEST_F(ColumnarParityTest, SimulatedTimeInvariantUnderBatchSize) {
  MakeTable("lhs", 500, 25, 71);
  MakeTable("rhs", 700, 25, 72);
  auto plan = PlanNode::Join(
      JoinMethod::kHashShuffle,
      PlanNode::Filter(PlanNode::Scan("lhs", "l"),
                       Cmp(CompareOp::kLt, Col("l", "score"),
                           Lit(Value(8.0)))),
      PlanNode::Scan("rhs", "r"), {{"l.k2", "r.k2"}});
  JobResult baseline;
  bool first = true;
  for (size_t batch_size : {1u, 3u, 64u, 1024u, 4096u}) {
    engine_->mutable_cluster().exec.max_batch_size = batch_size;
    JobExecutor executor = engine_->MakeExecutor();
    auto result = executor.Execute(*plan, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (first) {
      baseline = std::move(*result);
      first = false;
      continue;
    }
    ExpectDatasetsEqual(ToDataset(ColumnarDataset(baseline.data)),
                        ToDataset(std::move(result->data)));
    ExpectMetricsEqual(baseline.metrics, result->metrics);
  }
}

// --- Satellite: column slots resolve once per operator --------------------

TEST_F(ColumnarParityTest, NameLookupsIndependentOfRowCount) {
  MakeTable("small_t", 50, 20, 81);
  MakeTable("large_t", 5000, 20, 82);
  auto make_plan = [](const std::string& table) {
    return PlanNode::Project(
        PlanNode::Join(JoinMethod::kHashShuffle,
                       PlanNode::Filter(PlanNode::Scan(table, "l"),
                                        Cmp(CompareOp::kGe, Col("l", "k"),
                                            Lit(Value(1)))),
                       PlanNode::Scan(table, "r"), {{"l.k2", "r.k2"}}),
        {"l.name", "r.score"});
  };
  auto lookups_for = [&](const std::string& table) {
    JobExecutor executor = engine_->MakeExecutor();
    const uint64_t before = ColumnNameLookupCount().load();
    auto result = executor.Execute(*make_plan(table), {});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ColumnNameLookupCount().load() - before;
  };
  const uint64_t small = lookups_for("small_t");
  const uint64_t large = lookups_for("large_t");
  // 100x the rows, same plan: every kernel resolves its column slots once
  // per operator, so the lookup count is a function of the plan alone.
  EXPECT_EQ(small, large);
  EXPECT_GT(small, 0u);
  EXPECT_LT(small, 100u);
}

// --- Satellite: config validation at parse time ---------------------------

TEST(ClusterConfigValidationTest, RejectsZeroBatchSize) {
  ClusterConfig config;
  config.exec.max_batch_size = 0;
  Status status = ValidateClusterConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_batch_size"), std::string::npos)
      << status.message();
}

TEST(ClusterConfigValidationTest, AcceptsDefaultsAndBatchSizeOne) {
  EXPECT_TRUE(ValidateClusterConfig(ClusterConfig()).ok());
  ClusterConfig config;
  config.exec.max_batch_size = 1;
  EXPECT_TRUE(ValidateClusterConfig(config).ok());
}

}  // namespace
}  // namespace dynopt
