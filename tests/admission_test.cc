// Admission control under real concurrency (run under TSan in CI):
//  - N >= 8 queries racing through the controller produce the same rows as
//    a serial run, with at most max_concurrent_queries in flight at once;
//  - queue overflow and queue timeout surface kResourceExhausted, and an
//    invalid config (zero slots) kInvalidArgument without waiting;
//  - a query cancelled while queued leaves with kCancelled;
//  - admitted queries carry their queue wait and an engine-parented
//    memory tracker.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "exec/engine.h"
#include "opt/dynamic_optimizer.h"
#include "opt/optimizer.h"

namespace dynopt {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    Rng rng(47);
    for (const char* name : {"u", "w"}) {
      auto t = std::make_shared<Table>(
          name, Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
          engine_->cluster().num_nodes);
      ASSERT_TRUE(t->SetPartitionKey({"k"}).ok());
      for (int i = 0; i < 800; ++i) {
        t->AppendRow(
            {Value(rng.NextInt64(0, 59)), Value(rng.NextInt64(0, 9))});
      }
      ASSERT_TRUE(engine_->catalog().RegisterTable(t).ok());
      ASSERT_TRUE(engine_->CollectBaseStats(name, {"k", "v"}).ok());
    }
  }

  QuerySpec JoinQuery(int64_t v_limit) {
    QuerySpec spec;
    spec.tables = {{"u", "u", false, false, {}}, {"w", "w", false, false, {}}};
    spec.joins = {{"u", "w", {{"u.k", "w.k"}}}};
    spec.projections = {"u.v", "w.v"};
    spec.predicates.push_back(
        {"u", Cmp(CompareOp::kLt, Col("u", "v"), Lit(Value(v_limit)))});
    spec.NormalizeJoins();
    return spec;
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(AdmissionTest, ConcurrentQueriesMatchSerialExecution) {
  constexpr int kQueries = 10;
  engine_->mutable_cluster().admission.max_concurrent_queries = 3;
  engine_->mutable_cluster().admission.max_queue_depth = kQueries;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->mutable_cluster().memory.engine_budget_bytes = 64 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  // Serial baseline, one spec per distinct predicate.
  std::vector<std::vector<Row>> expected(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    DynamicOptimizer opt(engine_.get());
    auto run = opt.Run(JoinQuery(1 + q % 5));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected[static_cast<size_t>(q)] = std::move(run->rows);
    SortRows(&expected[static_cast<size_t>(q)]);
  }

  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> failures{0};
  std::vector<std::vector<Row>> actual(kQueries);
  std::vector<std::thread> threads;
  threads.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    threads.emplace_back([&, q]() {
      QueryContext ctx("concurrent-" + std::to_string(q));
      auto ticket = engine_->admission().Admit(&ctx);
      if (!ticket.ok()) {
        ++failures;
        return;
      }
      int now = ++in_flight;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      DynamicOptimizer opt(engine_.get());
      opt.set_context(&ctx);
      auto run = opt.Run(JoinQuery(1 + q % 5));
      --in_flight;
      if (!run.ok()) {
        ++failures;
        return;
      }
      actual[static_cast<size_t>(q)] = std::move(run->rows);
      SortRows(&actual[static_cast<size_t>(q)]);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(max_in_flight.load(),
            engine_->cluster().admission.max_concurrent_queries);
  for (int q = 0; q < kQueries; ++q) {
    EXPECT_EQ(actual[static_cast<size_t>(q)], expected[static_cast<size_t>(q)])
        << "query " << q << " diverged under concurrency";
  }
  // Every ticket released its slot and reservation.
  EXPECT_EQ(engine_->admission().running(), 0);
  EXPECT_EQ(engine_->admission().queued(), 0);
  EXPECT_EQ(engine_->memory().used(), 0u);
}

TEST_F(AdmissionTest, QueueOverflowBouncesImmediately) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 1;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->RearmAdmission();

  QueryContext first("first");
  auto holder = engine_->admission().Admit(&first);
  ASSERT_TRUE(holder.ok());

  // One waiter fills the queue...
  QueryContext queued_ctx("queued");
  std::thread waiter([&]() {
    auto t = engine_->admission().Admit(&queued_ctx);
    // Released immediately on grant (after the overflow check below).
  });
  while (engine_->admission().queued() < 1) {
    std::this_thread::yield();
  }

  // ...so the next arrival must bounce without blocking.
  QueryContext overflow_ctx("overflow");
  auto overflow = engine_->admission().Admit(&overflow_ctx);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  holder->Release();
  waiter.join();
}

TEST_F(AdmissionTest, QueueTimeoutIsResourceExhausted) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 4;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 0.05;
  engine_->RearmAdmission();

  QueryContext first("first");
  auto holder = engine_->admission().Admit(&first);
  ASSERT_TRUE(holder.ok());

  QueryContext starved("starved");
  auto result = engine_->admission().Admit(&starved);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(AdmissionTest, ZeroSlotsIsInvalidArgumentAtOnce) {
  // Zero slots could never admit anyone: Admit must refuse the config
  // instead of queueing until the timeout.
  engine_->mutable_cluster().admission.max_concurrent_queries = 0;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 0.5;
  engine_->RearmAdmission();

  QueryContext ctx("no-slots");
  auto result = engine_->admission().Admit(&ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_concurrent_queries"),
            std::string::npos)
      << result.status().message();
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(AdmissionTest, CancelWhileQueuedIsCancelled) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 1;
  engine_->mutable_cluster().admission.max_queue_depth = 4;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 60.0;
  engine_->RearmAdmission();

  QueryContext first("first");
  auto holder = engine_->admission().Admit(&first);
  ASSERT_TRUE(holder.ok());

  QueryContext victim("victim");
  std::thread canceller([&]() {
    while (engine_->admission().queued() < 1) {
      std::this_thread::yield();
    }
    victim.Cancel("impatient client");
  });
  auto result = engine_->admission().Admit(&victim);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(engine_->admission().queued(), 0);
}

TEST_F(AdmissionTest, AdmissionAttachesMemoryAndRecordsWait) {
  engine_->mutable_cluster().admission.max_concurrent_queries = 2;
  engine_->mutable_cluster().memory.engine_budget_bytes = 8 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  QueryContext ctx("admitted");
  auto ticket = engine_->admission().Admit(&ctx);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->admitted());
  EXPECT_GE(ctx.queue_wait_seconds, 0.0);
  // Query tracker now parents into the engine tracker with the per-query
  // reservation as its budget; the reservation itself is visible engine-side.
  EXPECT_EQ(ctx.memory().parent(), &engine_->memory());
  EXPECT_EQ(ctx.memory().budget(), uint64_t{1} << 20);
  EXPECT_EQ(engine_->memory().used(), uint64_t{1} << 20);
  ticket->Release();
  EXPECT_EQ(engine_->memory().used(), 0u);
  EXPECT_EQ(engine_->admission().running(), 0);
}

TEST_F(AdmissionTest, EngineBudgetLimitsAdmissions) {
  // Budget backs only two reservations: the third admission must wait and
  // (with a short timeout) give up with kResourceExhausted even though
  // concurrency slots are free.
  engine_->mutable_cluster().admission.max_concurrent_queries = 8;
  engine_->mutable_cluster().admission.queue_timeout_seconds = 0.05;
  engine_->mutable_cluster().memory.engine_budget_bytes = 2 << 20;
  engine_->mutable_cluster().memory.query_reservation_bytes = 1 << 20;
  engine_->RearmAdmission();

  QueryContext a("a"), b("b"), c("c");
  auto ta = engine_->admission().Admit(&a);
  auto tb = engine_->admission().Admit(&b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());
  auto tc = engine_->admission().Admit(&c);
  ASSERT_FALSE(tc.ok());
  EXPECT_EQ(tc.status().code(), StatusCode::kResourceExhausted);

  ta->Release();
  auto retry = engine_->admission().Admit(&c);
  EXPECT_TRUE(retry.ok());
}

}  // namespace
}  // namespace dynopt
