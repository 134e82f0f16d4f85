#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/ingres_optimizer.h"
#include "opt/order_baselines.h"
#include "opt/pilot_run_optimizer.h"
#include "opt/sketch_optimizer.h"
#include "opt/static_optimizer.h"
#include "workloads/tpcds.h"
#include "workloads/tpch.h"

namespace dynopt {
namespace {

/// Loads both workloads at a small scale once for the whole suite.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine();
    TpchOptions tpch;
    tpch.sf = 0.2;
    ASSERT_TRUE(LoadTpch(engine_, tpch).ok());
    TpcdsOptions tpcds;
    tpcds.sf = 0.2;
    ASSERT_TRUE(LoadTpcds(engine_, tpcds).ok());
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static QuerySpec GetQuery(const std::string& name) {
    Result<QuerySpec> q = name == "q8"    ? TpchQ8(engine_)
                          : name == "q9"  ? TpchQ9(engine_)
                          : name == "q17" ? TpcdsQ17(engine_)
                                          : TpcdsQ50(engine_, 9, 1999);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.value();
  }

  static Engine* engine_;
};

Engine* IntegrationTest::engine_ = nullptr;

class AllQueriesTest : public IntegrationTest,
                       public ::testing::WithParamInterface<const char*> {};

INSTANTIATE_TEST_SUITE_P(Queries, AllQueriesTest,
                         ::testing::Values("q8", "q9", "q17", "q50"));

/// Every optimization strategy must produce the identical result set — the
/// core correctness invariant of the whole reproduction.
TEST_P(AllQueriesTest, AllOptimizersAgreeOnResults) {
  QuerySpec query = GetQuery(GetParam());

  DynamicOptimizer dynamic(engine_);
  auto dyn = dynamic.Run(query);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  SortRows(&dyn->rows);
  ASSERT_FALSE(dyn->rows.empty()) << "query returned no rows; the workload "
                                     "generator should make every query "
                                     "productive";

  StaticCostBasedOptimizer cost_based(engine_);
  auto cb = cost_based.Run(query);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  SortRows(&cb->rows);
  EXPECT_EQ(dyn->rows, cb->rows) << "cost-based result differs";

  WorstOrderOptimizer worst(engine_);
  auto wo = worst.Run(query);
  ASSERT_TRUE(wo.ok()) << wo.status().ToString();
  SortRows(&wo->rows);
  EXPECT_EQ(dyn->rows, wo->rows) << "worst-order result differs";

  BestOrderOptimizer best(engine_, dyn->join_tree);
  auto bo = best.Run(query);
  ASSERT_TRUE(bo.ok()) << bo.status().ToString();
  SortRows(&bo->rows);
  EXPECT_EQ(dyn->rows, bo->rows) << "best-order result differs";

  PilotRunOptimizer pilot(engine_);
  auto pr = pilot.Run(query);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  SortRows(&pr->rows);
  EXPECT_EQ(dyn->rows, pr->rows) << "pilot-run result differs";

  IngresLikeOptimizer ingres(engine_);
  auto ing = ingres.Run(query);
  ASSERT_TRUE(ing.ok()) << ing.status().ToString();
  SortRows(&ing->rows);
  EXPECT_EQ(dyn->rows, ing->rows) << "ingres-like result differs";
}

/// The dynamic optimizer must not leak temp tables.
TEST_P(AllQueriesTest, DynamicCleansUpTempTables) {
  QuerySpec query = GetQuery(GetParam());
  size_t before = engine_->catalog().TableNames().size();
  DynamicOptimizer dynamic(engine_);
  auto result = dynamic.Run(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(before, engine_->catalog().TableNames().size());
}

/// The worst-order plan should never beat the dynamic plan in simulated
/// time (the paper's headline claim, held even at tiny scale for these
/// queries since worst-order shuffles fact-fact joins first).
TEST_P(AllQueriesTest, DynamicBeatsWorstOrder) {
  QuerySpec query = GetQuery(GetParam());
  DynamicOptimizer dynamic(engine_);
  auto dyn = dynamic.Run(query);
  ASSERT_TRUE(dyn.ok());
  WorstOrderOptimizer worst(engine_);
  auto wo = worst.Run(query);
  ASSERT_TRUE(wo.ok());
  EXPECT_LT(dyn->metrics.simulated_seconds, wo->metrics.simulated_seconds);
}

/// With indexes available and INLJ enabled, every strategy still returns
/// the same result set (the Figure-8 configuration).
TEST_P(AllQueriesTest, AllOptimizersAgreeUnderInlj) {
  ASSERT_TRUE(CreateTpchIndexes(engine_).ok());
  ASSERT_TRUE(CreateTpcdsIndexes(engine_).ok());
  QuerySpec query = GetQuery(GetParam());
  PlannerOptions planner;
  planner.enable_inlj = true;

  DynamicOptimizerOptions dyn_options;
  dyn_options.planner = planner;
  DynamicOptimizer dynamic(engine_, dyn_options);
  auto dyn = dynamic.Run(query);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  SortRows(&dyn->rows);

  StaticCostBasedOptimizer cost_based(engine_, planner);
  auto cb = cost_based.Run(query);
  ASSERT_TRUE(cb.ok()) << cb.status().ToString();
  SortRows(&cb->rows);
  EXPECT_EQ(dyn->rows, cb->rows) << "cost-based+INLJ differs";

  BestOrderOptimizer best(engine_, dyn->join_tree);
  auto bo = best.Run(query);
  ASSERT_TRUE(bo.ok()) << bo.status().ToString();
  SortRows(&bo->rows);
  EXPECT_EQ(dyn->rows, bo->rows) << "best-order+INLJ differs";

  PilotRunOptions pilot_options;
  pilot_options.planner = planner;
  PilotRunOptimizer pilot(engine_, pilot_options);
  auto pr = pilot.Run(query);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  SortRows(&pr->rows);
  EXPECT_EQ(dyn->rows, pr->rows) << "pilot-run+INLJ differs";

  IngresLikeOptimizer ingres(engine_, planner);
  auto ing = ingres.Run(query);
  ASSERT_TRUE(ing.ok()) << ing.status().ToString();
  SortRows(&ing->rows);
  EXPECT_EQ(dyn->rows, ing->rows) << "ingres-like+INLJ differs";
}

/// INLJ runs agree with the default hash/broadcast runs.
TEST_P(AllQueriesTest, InljProducesSameResults) {
  ASSERT_TRUE(CreateTpchIndexes(engine_).ok());
  ASSERT_TRUE(CreateTpcdsIndexes(engine_).ok());
  QuerySpec query = GetQuery(GetParam());

  DynamicOptimizer plain(engine_);
  auto base = plain.Run(query);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  SortRows(&base->rows);

  DynamicOptimizerOptions with_inlj;
  with_inlj.planner.enable_inlj = true;
  DynamicOptimizer inlj(engine_, with_inlj);
  auto result = inlj.Run(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  SortRows(&result->rows);
  EXPECT_EQ(base->rows, result->rows);
}

/// An invalid ClusterConfig edited in after the engine was built comes back
/// from every strategy as kInvalidArgument instead of aborting the process.
TEST(InvalidClusterConfigTest, EveryStrategyReturnsInvalidArgument) {
  Engine engine;
  TpchOptions tpch;
  tpch.sf = 0.02;
  ASSERT_TRUE(LoadTpch(&engine, tpch).ok());
  auto query = TpchQ9(&engine);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto hint = DynamicOptimizer(&engine).Run(query.value());
  ASSERT_TRUE(hint.ok()) << hint.status().ToString();

  const ClusterConfig valid = engine.cluster();
  for (const char* knob : {"max_batch_size", "max_concurrent_queries"}) {
    engine.mutable_cluster() = valid;
    if (std::string(knob) == "max_batch_size") {
      engine.mutable_cluster().exec.max_batch_size = 0;
    } else {
      engine.mutable_cluster().admission.max_concurrent_queries = 0;
    }
    std::vector<std::unique_ptr<Optimizer>> strategies;
    strategies.push_back(std::make_unique<DynamicOptimizer>(&engine));
    strategies.push_back(std::make_unique<StaticCostBasedOptimizer>(&engine));
    strategies.push_back(std::make_unique<WorstOrderOptimizer>(&engine));
    strategies.push_back(
        std::make_unique<BestOrderOptimizer>(&engine, hint->join_tree));
    strategies.push_back(std::make_unique<PilotRunOptimizer>(&engine));
    strategies.push_back(std::make_unique<IngresLikeOptimizer>(&engine));
    strategies.push_back(std::make_unique<SketchDynamicOptimizer>(&engine));
    for (const auto& strategy : strategies) {
      auto result = strategy->Run(query.value());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << strategy->name() << " with " << knob << " = 0: "
          << result.status().ToString();
      EXPECT_NE(result.status().message().find(knob), std::string::npos)
          << result.status().message();
    }
  }
}

}  // namespace
}  // namespace dynopt
