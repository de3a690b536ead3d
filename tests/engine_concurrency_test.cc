// Multi-session stress tests: transactional invariants under concurrency,
// with and without the monitor attached.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "common/random.h"
#include "engine/session.h"
#include "sqlcm/monitor_engine.h"

namespace sqlcm::engine {
namespace {

using common::Value;
using exec::ParamMap;

/// Classic bank-transfer conservation test: concurrent transfers between
/// accounts must preserve the total balance (2PL + undo under fire).
TEST(ConcurrencyTest, TransfersConserveTotal) {
  Database db;
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE acct (id INT, bal FLOAT, "
                             "PRIMARY KEY(id))").ok());
  constexpr int kAccounts = 16;
  constexpr double kInitial = 1000.0;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(setup->Execute("INSERT INTO acct VALUES (" +
                               std::to_string(i) + ", 1000.0)").ok());
  }

  constexpr int kThreads = 6;
  constexpr int kTransfersPerThread = 120;
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &committed, &aborted, t] {
      auto session = db.CreateSession();
      common::Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kTransfersPerThread; ++i) {
        const int64_t from = rng.UniformInt(0, kAccounts - 1);
        int64_t to = rng.UniformInt(0, kAccounts - 1);
        if (to == from) to = (to + 1) % kAccounts;
        if (!session->Begin().ok()) continue;
        ParamMap p1 = {{"k", Value::Int(from)}};
        ParamMap p2 = {{"k", Value::Int(to)}};
        auto debit = session->Execute(
            "UPDATE acct SET bal = bal - 1 WHERE id = @k", &p1);
        if (!debit.ok()) {  // deadlock victim: whole txn rolled back
          aborted.fetch_add(1);
          continue;
        }
        auto credit = session->Execute(
            "UPDATE acct SET bal = bal + 1 WHERE id = @k", &p2);
        if (!credit.ok()) {
          aborted.fetch_add(1);
          continue;
        }
        if (session->Commit().ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  auto total = setup->Execute("SELECT SUM(bal) FROM acct");
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(total->rows[0][0].double_value(), kAccounts * kInitial);
  EXPECT_GT(committed.load(), 0);
  // The lock manager must have fully drained.
  EXPECT_EQ(db.txn_manager()->lock_manager()->TotalGrantedLocks(), 0u);
  EXPECT_EQ(db.txn_manager()->active_count(), 0u);
}

TEST(ConcurrencyTest, MonitoredTransfersStayConsistent) {
  // Same conservation invariant with SQLCM active: rules must observe
  // without perturbing transactional outcomes, and the LAT totals must
  // match what actually happened.
  Database db;
  cm::MonitorEngine monitor(&db);
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE acct (id INT, bal FLOAT, "
                             "PRIMARY KEY(id))").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(setup->Execute("INSERT INTO acct VALUES (" +
                               std::to_string(i) + ", 1000.0)").ok());
  }

  cm::LatSpec lat;
  lat.name = "ByType";
  lat.group_by = {{"Query_Type", "Kind"}};
  lat.aggregates = {{cm::LatAggFunc::kCount, "", "N", false}};
  ASSERT_TRUE(monitor.DefineLat(std::move(lat)).ok());
  cm::RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(ByType)";
  ASSERT_TRUE(monitor.AddRule(feed).ok());

  constexpr int kThreads = 4;
  constexpr int kOps = 100;
  std::atomic<int64_t> updates_committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &updates_committed, t] {
      auto session = db.CreateSession();
      common::Random rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < kOps; ++i) {
        ParamMap params = {{"k", Value::Int(rng.UniformInt(0, 7))}};
        auto result = session->Execute(
            "UPDATE acct SET bal = bal + 0 WHERE id = @k", &params);
        if (result.ok()) updates_committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  cm::Lat* by_type = monitor.FindLat("ByType");
  common::Row row;
  ASSERT_TRUE(by_type->LookupByKey({Value::String("UPDATE")},
                                   db.clock()->NowMicros(), &row));
  EXPECT_EQ(row[1].int_value(), updates_committed.load());
  EXPECT_TRUE(monitor.last_error().empty()) << monitor.last_error();
}

TEST(ConcurrencyTest, PlanCacheSharedAcrossSessions) {
  Database db;
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (a INT, PRIMARY KEY(a))").ok());
  ASSERT_TRUE(setup->Execute("INSERT INTO t VALUES (1)").ok());

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures] {
      auto session = db.CreateSession();
      for (int i = 0; i < 300; ++i) {
        ParamMap params = {{"k", Value::Int(1)}};
        auto result = session->Execute("SELECT a FROM t WHERE a = @k", &params);
        if (!result.ok() || result->rows.size() != 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // One plan compiled, thousands of hits.
  EXPECT_GE(db.plan_cache()->hits(), static_cast<uint64_t>(kThreads * 300 - 1));
}

/// A compile the test holds open until Release(); Started() waits until it
/// is running, i.e. until its text is in flight in the cache.
class HeldCompile {
 public:
  explicit HeldCompile(common::Result<std::shared_ptr<CachedPlan>> result)
      : result_(std::move(result)) {}

  common::Result<std::shared_ptr<CachedPlan>> operator()() {
    started_.set_value();
    release_.get_future().wait();
    return result_;
  }
  void Started() { started_future_.wait(); }
  void Release() { release_.set_value(); }

 private:
  common::Result<std::shared_ptr<CachedPlan>> result_;
  std::promise<void> started_;
  std::future<void> started_future_ = started_.get_future();
  std::promise<void> release_;
};

std::shared_ptr<CachedPlan> MakePlan(const std::string& sql) {
  auto plan = std::make_shared<CachedPlan>();
  plan->sql_text = sql;
  return plan;
}

/// Single-flight edge cases: a waiter on a failed compile retries with its
/// own compile, and Clear() (DDL) wakes waiters instead of stranding them
/// behind a compile against the old schema, which then is not cached.
TEST(ConcurrencyTest, PlanCacheWaitersSurviveFailedCompileAndClear) {
  const std::string sql = "SELECT a FROM t";
  PlanCache cache(8);
  auto own_compile = [&sql] {
    return common::Result<std::shared_ptr<CachedPlan>>(MakePlan(sql));
  };

  HeldCompile failing(common::Status::InvalidArgument("no such table"));
  auto first = std::async(std::launch::async, [&] {
    return cache.GetOrCompile(sql, [&failing] { return failing(); });
  });
  failing.Started();
  auto waiter = std::async(std::launch::async, [&] {
    return cache.GetOrCompile(sql, own_compile);
  });
  failing.Release();
  EXPECT_FALSE(first.get().ok());
  auto retried = waiter.get();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(cache.Get(sql), *retried);
  EXPECT_EQ(cache.misses(), 2u);  // each compile counts once

  cache.Clear();
  auto stale_plan = MakePlan(sql);
  HeldCompile stale(stale_plan);
  auto old_schema = std::async(std::launch::async, [&] {
    return cache.GetOrCompile(sql, [&stale] { return stale(); });
  });
  stale.Started();
  auto blocked = std::async(std::launch::async, [&] {
    return cache.GetOrCompile(sql, own_compile);
  });
  cache.Clear();
  // The waiter must finish while the abandoned compile is still held.
  const bool woke = blocked.wait_for(std::chrono::seconds(10)) ==
                    std::future_status::ready;
  stale.Release();
  ASSERT_TRUE(woke);
  auto fresh = blocked.get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, stale_plan);
  EXPECT_EQ(*old_schema.get(), stale_plan);
  EXPECT_EQ(cache.Get(sql), *fresh);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ConcurrencyTest, ConcurrentInsertsDistinctKeys) {
  Database db;
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (a INT, b INT, "
                             "PRIMARY KEY(a))").ok());
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> errors{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &errors, t] {
      auto session = db.CreateSession();
      for (int i = 0; i < kPerThread; ++i) {
        const int key = t * kPerThread + i;
        ParamMap params = {{"k", Value::Int(key)}, {"v", Value::Int(t)}};
        auto result =
            session->Execute("INSERT INTO t VALUES (@k, @v)", &params);
        if (!result.ok()) errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  auto count = setup->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].int_value(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, ReadersRunDuringWriterTransactions) {
  // Read-committed reads (no read locks by default) never block on writers.
  Database db;
  auto setup = db.CreateSession();
  ASSERT_TRUE(setup->Execute("CREATE TABLE t (a INT, b INT, "
                             "PRIMARY KEY(a))").ok());
  ASSERT_TRUE(setup->Execute("INSERT INTO t VALUES (1, 0)").ok());

  auto writer = db.CreateSession();
  ASSERT_TRUE(writer->Begin().ok());
  ASSERT_TRUE(writer->Execute("UPDATE t SET b = 99 WHERE a = 1").ok());

  // Reader sees the in-place updated value (read committed via latches,
  // documented in DESIGN.md) and, crucially, does not block.
  auto reader = db.CreateSession();
  const int64_t start = db.clock()->NowMicros();
  auto result = reader->Execute("SELECT b FROM t WHERE a = 1");
  const int64_t elapsed = db.clock()->NowMicros() - start;
  ASSERT_TRUE(result.ok());
  EXPECT_LT(elapsed, 1'000'000);
  ASSERT_TRUE(writer->Rollback().ok());
  // After rollback the pre-image is restored.
  auto after = reader->Execute("SELECT b FROM t WHERE a = 1");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int_value(), 0);
}

}  // namespace
}  // namespace sqlcm::engine
