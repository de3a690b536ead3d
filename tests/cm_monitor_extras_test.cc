// Tests for monitor features beyond the §3 basics: byte-limited LATs,
// Timer.Alert aliasing, the per-user concurrency probe (Example 5(b)),
// probe-scope gating, file-backed action sinks, and error reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "engine/session.h"
#include "sqlcm/actions_io.h"
#include "sqlcm/monitor_engine.h"

namespace sqlcm::cm {
namespace {

using common::Value;
using exec::ParamMap;

class MonitorExtrasTest : public ::testing::Test {
 protected:
  MonitorExtrasTest() : monitor_(&db_), session_(db_.CreateSession()) {
    Exec("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))");
    for (int i = 0; i < 20; ++i) {
      Exec("INSERT INTO items VALUES (" + std::to_string(i) + ", 1.0)");
    }
  }

  void Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
  }

  engine::Database db_;
  MonitorEngine monitor_;
  std::unique_ptr<engine::Session> session_;
};

TEST(LatByteLimitTest, EvictsWhenBytesExceeded) {
  LatSpec spec;
  spec.name = "Bytes";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kFirst, "Query_Text", "Text", false},
                     {LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.ordering = {{"Dur", true}};
  spec.max_bytes = 8192;  // a handful of rows with ~1KB texts
  auto lat = std::move(*Lat::Create(std::move(spec)));

  for (int i = 1; i <= 100; ++i) {
    QueryRecord rec;
    rec.id = static_cast<uint64_t>(i);
    rec.text = std::string(1024, 'x');
    rec.duration_secs = static_cast<double>(i);
    lat->Insert(&rec, 0);
  }
  EXPECT_LT(lat->size(), 100u);
  EXPECT_LE(lat->approx_bytes(), 8192u + 2048u);  // one row of slack
  // The ordering kept the most important (longest-duration) rows.
  auto rows = lat->Snapshot(0);
  ASSERT_FALSE(rows.empty());
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 100.0);
}

TEST(LatByteLimitTest, ByteLimitRequiresOrdering) {
  LatSpec spec;
  spec.name = "Bytes";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
  spec.max_bytes = 1024;
  EXPECT_FALSE(Lat::Create(std::move(spec)).ok());
}

TEST(LatByteLimitTest, ResetClearsByteAccounting) {
  LatSpec spec;
  spec.name = "Bytes";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kFirst, "Query_Text", "Text", false}};
  spec.ordering = {{"ID", true}};
  spec.max_bytes = 1 << 20;
  auto lat = std::move(*Lat::Create(std::move(spec)));
  QueryRecord rec;
  rec.id = 1;
  rec.text = std::string(256, 'y');
  lat->Insert(&rec, 0);
  EXPECT_GT(lat->approx_bytes(), 0u);
  lat->Reset();
  EXPECT_EQ(lat->approx_bytes(), 0u);
}

// RuleSpec::rate_limit_max_actions overrides the engine-wide alert-storm
// cap per rule: a positive value replaces the cap, a negative value opts
// the rule out entirely, and 0 keeps the engine default. Suppressions are
// attributed to the owning rule's stats.
TEST(MonitorRateLimitTest, PerRuleOverridesOfEngineActionCap) {
  engine::Database db;
  MonitorEngine::Options opts;
  opts.action_rate_limit.max_actions = 1;
  opts.action_rate_limit.window_micros = 3'600'000'000;  // nothing ages out
  MonitorEngine monitor(&db, opts);
  auto session = db.CreateSession();
  ASSERT_TRUE(
      session->Execute("CREATE TABLE items (id INT, val FLOAT, PRIMARY KEY(id))")
          .ok());
  ASSERT_TRUE(session->Execute("INSERT INTO items VALUES (1, 1.0)").ok());

  RuleSpec capped;
  capped.name = "capped";
  capped.event = "Query.Commit";
  capped.action = "SendMail('capped', 'dba@x')";
  ASSERT_TRUE(monitor.AddRule(capped).ok());

  RuleSpec unlimited = capped;
  unlimited.name = "unlimited";
  unlimited.action = "SendMail('unlimited', 'dba@x')";
  unlimited.rate_limit_max_actions = -1;
  ASSERT_TRUE(monitor.AddRule(unlimited).ok());

  RuleSpec wider = capped;
  wider.name = "wider";
  wider.action = "SendMail('wider', 'dba@x')";
  wider.rate_limit_max_actions = 3;
  ASSERT_TRUE(monitor.AddRule(wider).ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session->Execute("SELECT val FROM items WHERE id = 1").ok());
  }

  int capped_mails = 0, unlimited_mails = 0, wider_mails = 0;
  for (const auto& mail : monitor.capturing_mailer()->mails()) {
    if (mail.body == "capped") ++capped_mails;
    if (mail.body == "unlimited") ++unlimited_mails;
    if (mail.body == "wider") ++wider_mails;
  }
  EXPECT_EQ(capped_mails, 1);
  EXPECT_EQ(unlimited_mails, 4);
  EXPECT_EQ(wider_mails, 3);

  for (const auto& rule : monitor.SnapshotRules()) {
    const uint64_t suppressed = rule->stats.actions_suppressed.value();
    if (rule->name == "capped") {
      EXPECT_EQ(suppressed, 3u);
    }
    if (rule->name == "unlimited") {
      EXPECT_EQ(suppressed, 0u);
    }
    if (rule->name == "wider") {
      EXPECT_EQ(suppressed, 1u);
    }
  }
}

TEST_F(MonitorExtrasTest, TimerAlertAliasAccepted) {
  ASSERT_TRUE(monitor_.CreateTimer("t1").ok());
  RuleSpec rule;
  rule.name = "alert";
  rule.event = "t1.Alert";  // paper §2.2 spelling
  rule.action = "SendMail('tick', 'dba@x')";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());
  RuleSpec generic;
  generic.name = "alert2";
  generic.event = "Timer.Alert";
  generic.action = "SendMail('tock', 'dba@x')";
  ASSERT_TRUE(monitor_.AddRule(generic).ok());

  ASSERT_TRUE(monitor_.SetTimer("t1", 0.0001, 1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(monitor_.timer_manager()->Poll(db_.clock()->NowMicros()), 1u);
  EXPECT_EQ(monitor_.capturing_mailer()->size(), 2u);
}

TEST_F(MonitorExtrasTest, PerUserMplGovernor) {
  // Example 5(b): "User X cannot have more than K queries executing".
  RuleSpec rule;
  rule.name = "mpl";
  rule.event = "Query.Start";
  rule.condition =
      "Query.User = 'batch' AND Query.Concurrent_User_Queries > 2";
  rule.action = "Query.Cancel()";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());

  // Hold two 'batch' queries in flight via lock waits, then start a third.
  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 2 WHERE id = 1").ok());

  std::atomic<int> blocked_ok{0};
  auto blocked_worker = [this, &blocked_ok] {
    auto s = db_.CreateSession();
    s->set_user("batch");
    auto result = s->Execute("UPDATE items SET val = 3 WHERE id = 1");
    if (result.ok()) blocked_ok.fetch_add(1);
  };
  std::thread w1(blocked_worker), w2(blocked_worker);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Third concurrent 'batch' query: cancelled at start by the governor.
  auto third = db_.CreateSession();
  third->set_user("batch");
  auto result = third->Execute("SELECT val FROM items WHERE id = 5");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status();

  // Other users are unaffected.
  auto other = db_.CreateSession();
  other->set_user("interactive");
  EXPECT_TRUE(other->Execute("SELECT val FROM items WHERE id = 5").ok());

  ASSERT_TRUE(holder->Commit().ok());
  w1.join();
  w2.join();
  EXPECT_EQ(blocked_ok.load(), 2);
}

TEST_F(MonitorExtrasTest, BlockedProbesGatedOnRuleNeeds) {
  // A rule that does not reference blocking probes: Time_Blocked stays 0
  // even across a real lock conflict (the monitor never gathers it).
  RuleSpec plain;
  plain.name = "plain";
  plain.event = "Query.Commit";
  plain.condition = "Query.Duration >= 0";
  plain.action = "Query.Persist(PlainLog, ID, Duration)";
  auto id = monitor_.AddRule(plain);
  ASSERT_TRUE(id.ok());

  auto holder = db_.CreateSession();
  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 9 WHERE id = 2").ok());
  std::thread waiter([this] {
    auto s = db_.CreateSession();
    EXPECT_TRUE(s->Execute("UPDATE items SET val = 8 WHERE id = 2").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(holder->Commit().ok());
  waiter.join();

  // Now add a rule that needs the probe: conflicts after this are counted.
  ASSERT_TRUE(monitor_.RemoveRule(*id).ok());
  RuleSpec blocking;
  blocking.name = "blocking";
  blocking.event = "Query.Commit";
  blocking.condition = "Query.Time_Blocked > 0.01";
  blocking.action = "Query.Persist(BlockedLog, ID, Time_Blocked)";
  ASSERT_TRUE(monitor_.AddRule(blocking).ok());

  ASSERT_TRUE(holder->Begin().ok());
  ASSERT_TRUE(holder->Execute("UPDATE items SET val = 9 WHERE id = 3").ok());
  std::thread waiter2([this] {
    auto s = db_.CreateSession();
    EXPECT_TRUE(s->Execute("UPDATE items SET val = 8 WHERE id = 3").ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(holder->Commit().ok());
  waiter2.join();

  storage::Table* blocked_log = db_.catalog()->GetTable("BlockedLog");
  ASSERT_NE(blocked_log, nullptr);
  EXPECT_EQ(blocked_log->row_count(), 1u);
}

TEST_F(MonitorExtrasTest, RuleErrorsAreRecordedNotFatal) {
  // Persist into a table whose schema doesn't match the attribute list.
  Exec("CREATE TABLE Narrow (only_col INT)");
  RuleSpec rule;
  rule.name = "bad-persist";
  rule.event = "Query.Commit";
  rule.action = "Query.Persist(Narrow, ID, Query_Text, Duration)";
  ASSERT_TRUE(monitor_.AddRule(rule).ok());
  // The statement itself still succeeds; the failure lands in last_error.
  Exec("SELECT val FROM items WHERE id = 1");
  EXPECT_FALSE(monitor_.last_error().empty());
}

TEST(FileAppendingSinkTest, WritesMailAndCommands) {
  const std::string path = ::testing::TempDir() + "/sink_test.log";
  std::remove(path.c_str());
  FileAppendingSink sink(path);
  ASSERT_TRUE(sink.SendMail("body text", "dba@example.com").ok());
  ASSERT_TRUE(sink.RunExternal("run --now").ok());
  std::ifstream in(path);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(in, line1));
  ASSERT_TRUE(std::getline(in, line2));
  EXPECT_NE(line1.find("dba@example.com"), std::string::npos);
  EXPECT_NE(line2.find("run --now"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MonitorOptionsTest, CustomActionBackends) {
  engine::Database db;
  CapturingMailer mailer;
  CapturingLauncher launcher;
  MonitorEngine::Options options;
  options.mailer = &mailer;
  options.launcher = &launcher;
  MonitorEngine monitor(&db, options);
  RuleSpec rule;
  rule.name = "mail";
  rule.event = "Query.Commit";
  rule.action = "SendMail('hi', 'x@y'); RunExternal('cmd')";
  ASSERT_TRUE(monitor.AddRule(rule).ok());
  auto session = db.CreateSession();
  ASSERT_TRUE(session->Execute("CREATE TABLE t (a INT, PRIMARY KEY(a))").ok());
  ASSERT_TRUE(session->Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(mailer.size(), 1u);
  EXPECT_EQ(launcher.size(), 1u);
  // The monitor's internal capturing sinks stay empty.
  EXPECT_EQ(monitor.capturing_mailer()->size(), 0u);
}

TEST_F(MonitorExtrasTest, AgingLatThroughRules) {
  LatSpec spec;
  spec.name = "Recent";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "RecentN", true},
                     {LatAggFunc::kCount, "", "TotalN", false}};
  spec.aging_window_micros = 50'000;  // 50ms
  spec.aging_block_micros = 10'000;
  ASSERT_TRUE(monitor_.DefineLat(std::move(spec)).ok());
  RuleSpec feed;
  feed.name = "feed";
  feed.event = "Query.Commit";
  feed.action = "Query.Insert(Recent)";
  ASSERT_TRUE(monitor_.AddRule(feed).ok());

  Exec("SELECT val FROM items WHERE id = 1");
  Exec("SELECT val FROM items WHERE id = 1");
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  Exec("SELECT val FROM items WHERE id = 1");

  auto rows = monitor_.FindLat("Recent")->Snapshot(db_.clock()->NowMicros());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int_value(), 1);  // only the recent execution
  EXPECT_EQ(rows[0][2].int_value(), 3);  // all three
}

}  // namespace
}  // namespace sqlcm::cm
