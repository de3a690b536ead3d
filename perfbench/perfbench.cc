// End-to-end monitoring benchmark: three workloads driven through the public
// engine::Session API with a cm::MonitorEngine attached (README.md in this
// directory has the metric tables and why each workload exists).
//
//   perfbench --workload point_rules|mixed_topk|hot_updates --seed N
//             --seconds S --trace 0|1 [--scale full|tiny] [--spans-out PATH]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// of a separate traced arm. Every metric is printed as "metric <name>
// <value> <unit>"; the last stdout line is the result as one JSON object.
// Exit status is 0 only when every output check and the full-fidelity guard
// pass.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "engine/database.h"
#include "engine/session.h"
#include "sqlcm/monitor_engine.h"
#include "trace.h"
#include "workload/driver.h"
#include "workload/tpch_gen.h"

namespace perfbench {
namespace {

using sqlcm::common::Random;
using sqlcm::common::Row;
using sqlcm::common::Status;
using sqlcm::common::Value;
namespace cm = sqlcm::cm;
namespace engine = sqlcm::engine;
namespace exec = sqlcm::exec;
namespace workload = sqlcm::workload;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Statement classes for engine.execute_us.<class>: `point` is an
/// autocommit point select, `join` the 3-way join, `update` and `select`
/// the two statement kinds inside a hot_updates transaction.
enum OpClass : uint8_t { kPoint, kJoin, kUpdate, kSelect, kNumOpClasses };
constexpr const char* kOpClassNames[kNumOpClasses] = {"point", "join",
                                                      "update", "select"};

struct Stmt {
  OpClass cls = kPoint;
  std::string sql;
  exec::ParamMap params;
};

/// One client request: a single autocommit statement, or (txn) BEGIN,
/// the statements, COMMIT.
struct Op {
  bool txn = false;
  std::vector<Stmt> stmts;
};
using Stream = std::vector<Op>;

struct Scale {
  workload::TpchConfig tpch;  // defaults: 25k orders, ~100k lineitem rows
  int64_t stream_ops = 40'000;  // per session; replayed cyclically
  int point_rules = 200;
  int64_t accounts = 4'096;
};

Scale MakeScale(const std::string& name, uint64_t seed) {
  Scale s;
  s.tpch.seed = seed;
  if (name == "tiny") {
    s.tpch.num_orders = 1'000;
    s.tpch.num_parts = 200;
    s.stream_ops = 2'000;
    s.point_rules = 20;
    s.accounts = 256;
  }
  return s;
}

Stmt FromItem(workload::WorkloadItem item) {
  Stmt s;
  s.cls = item.sql.find("JOIN") != std::string::npos ? kJoin : kPoint;
  s.sql = std::move(item.sql);
  s.params = std::move(item.params);
  return s;
}

Stream StreamFromItems(std::vector<workload::WorkloadItem> items) {
  Stream out;
  out.reserve(items.size());
  for (auto& item : items) {
    Op op;
    op.stmts.push_back(FromItem(std::move(item)));
    out.push_back(std::move(op));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Statements and transactions that completed while the monitor was
/// attached, per session: the ground truth for the output checks.
struct Issued {
  std::vector<int64_t> statements;
  std::vector<int64_t> txns;
  int64_t total_statements() const {
    int64_t n = 0;
    for (int64_t s : statements) n += s;
    return n;
  }
  int64_t total_txns() const {
    int64_t n = 0;
    for (int64_t t : txns) n += t;
    return n;
  }
};

struct CheckList {
  bool ok = true;
  void Expect(bool pass, const std::string& what) {
    std::printf("check %s %s\n", pass ? "pass" : "FAIL", what.c_str());
    ok = ok && pass;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual int sessions() const = 0;
  virtual bool async() const { return false; }
  /// Extra tables beyond TPC-H (created before the monitor attaches).
  virtual Status LoadExtra(engine::Database*, const Scale&) {
    return Status::OK();
  }
  /// LAT definitions and rules; `define`/`add` are the timed calls.
  virtual Status DefineMonitor(
      const std::function<Status(cm::LatSpec)>& define,
      const std::function<Status(const cm::RuleSpec&)>& add) = 0;
  virtual std::vector<Stream> Generate(const Scale& scale,
                                       uint64_t seed) const = 0;
  /// Checks monitor state against what the generator issued. `db` is still
  /// usable; the monitor has been drained.
  virtual void Check(engine::Database* db, engine::Session* session,
                     cm::MonitorEngine* monitor, const Issued& issued,
                     CheckList* checks) const = 0;
};

cm::LatSpec MakeLat(std::string name, std::vector<cm::LatGroupColumn> group,
                    std::vector<cm::LatAggColumn> aggs) {
  cm::LatSpec spec;
  spec.name = std::move(name);
  spec.group_by = std::move(group);
  spec.aggregates = std::move(aggs);
  return spec;
}

cm::RuleSpec Rule(std::string name, std::string event, std::string condition,
                  std::string action) {
  cm::RuleSpec r;
  r.name = std::move(name);
  r.event = std::move(event);
  r.condition = std::move(condition);
  r.action = std::move(action);
  return r;
}

/// Sum of one integer column over all rows of a LAT.
int64_t SumColumn(const cm::Lat* lat, size_t column, int64_t now_micros) {
  int64_t sum = 0;
  for (const Row& row : lat->Snapshot(now_micros)) {
    sum += row[column].int_value();
  }
  return sum;
}

/// `prefix` followed by `n` (appended, not operator+: GCC 12 raises a false
/// -Wrestrict on "literal" + std::string).
std::string Numbered(const char* prefix, size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

/// Application name of session `s` (the mixed_topk per-Application check).
std::string AppName(size_t s) { return Numbered("app", s); }

/// Paper §6.2.1 (E2): many rules on short selects. The paper runs one
/// stream; here 3 sessions each run one, because a single thread's speed on
/// a shared 4-vCPU host swings by about 1.6x in phases of tens of seconds
/// (README.md), more than any bound a run-to-run comparison can use.
class PointRules final : public Workload {
 public:
  PointRules(const Scale& scale, uint64_t seed) {
    // Conjuncts drawn Zipf-skewed (weight 1/rank) from a pool of always-true
    // probe comparisons, so rules share some predicates but not all.
    static const char* kAtoms[] = {
        "Query.Duration >= 0",       "Query.ID > 0",
        "Query.Estimated_Cost >= 0", "Query.Session_ID > 0",
        "Query.Times_Blocked >= 0",  "Query.Start_Time >= 0",
        "Query.Time_Blocked >= 0",   "Query.Number_of_instances > 0",
    };
    constexpr size_t kNumAtoms = sizeof(kAtoms) / sizeof(kAtoms[0]);
    Random rng(seed * 0x9e3779b97f4a7c15ull + 11);
    for (int r = 0; r < scale.point_rules; ++r) {
      std::array<double, kNumAtoms> weight;
      for (size_t i = 0; i < kNumAtoms; ++i) weight[i] = 1.0 / double(i + 1);
      const int conjuncts = static_cast<int>(rng.UniformInt(1, 5));
      std::string cond;
      for (int c = 0; c < conjuncts; ++c) {
        double total = 0;
        for (double w : weight) total += w;
        double x = rng.NextDouble() * total;
        size_t pick = 0;
        for (size_t i = 0; i < kNumAtoms; ++i) {
          if (weight[i] == 0) continue;
          pick = i;  // the last unused atom absorbs rounding overshoot
          if (x < weight[i]) break;
          x -= weight[i];
        }
        weight[pick] = 0;  // distinct conjuncts within one rule
        if (!cond.empty()) cond += " AND ";
        cond += kAtoms[pick];
      }
      const bool rejecting = r % 4 == 3;
      if (rejecting) cond += " AND Query.Duration > 10";
      conditions_.push_back(cond);
      rejecting_.push_back(rejecting);
    }
  }

  const char* name() const override { return "point_rules"; }
  int sessions() const override { return 3; }

  Status DefineMonitor(
      const std::function<Status(cm::LatSpec)>& define,
      const std::function<Status(const cm::RuleSpec&)>& add) override {
    for (size_t r = 0; r < conditions_.size(); ++r) {
      // Keeps the last 10 query IDs: every insert past the 10th evicts.
      cm::LatSpec lat = MakeLat(
          LatName(r), {{"ID", ""}},
          {{cm::LatAggFunc::kLast, "Duration", "Dur", false},
           {cm::LatAggFunc::kLast, "Logical_Signature", "Sig", false}});
      lat.ordering = {{"ID", true}};
      lat.max_rows = 10;
      if (Status s = define(std::move(lat)); !s.ok()) return s;
      if (Status s = add(Rule(Numbered("r", r), "Query.Commit",
                              conditions_[r],
                              "Query.Insert(" + LatName(r) + ")"));
          !s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

  std::vector<Stream> Generate(const Scale& scale,
                               uint64_t seed) const override {
    std::vector<Stream> streams;
    for (int s = 0; s < sessions(); ++s) {
      streams.push_back(StreamFromItems(workload::GeneratePointSelectWorkload(
          scale.tpch, scale.stream_ops,
          seed * 1000 + static_cast<uint64_t>(s) + 1)));
    }
    return streams;
  }

  void Check(engine::Database*, engine::Session*, cm::MonitorEngine* monitor,
             const Issued& issued, CheckList* checks) const override {
    const int64_t statements = issued.total_statements();
    int64_t always_true = 0;
    bool lat_rows_ok = true;
    for (size_t r = 0; r < conditions_.size(); ++r) {
      const cm::Lat* lat = monitor->FindLat(LatName(r));
      const size_t want =
          rejecting_[r] ? 0 : static_cast<size_t>(std::min<int64_t>(
                                  10, statements));
      if (!rejecting_[r]) ++always_true;
      if (lat == nullptr || lat->size() != want) lat_rows_ok = false;
    }
    checks->Expect(static_cast<int64_t>(monitor->rules_fired()) ==
                       statements * always_true,
                   "rules_fired " + std::to_string(monitor->rules_fired()) +
                       " == statements " + std::to_string(statements) +
                       " x always-true rules " + std::to_string(always_true));
    checks->Expect(lat_rows_ok,
                   "always-true LATs hold 10 rows, rejecting LATs are empty");
  }

 private:
  static std::string LatName(size_t r) { return Numbered("L", r); }

  std::vector<std::string> conditions_;
  std::vector<bool> rejecting_;
};

/// Paper §6.2.2 (E3): a DBA's top-k task on a mixed select/join workload,
/// evaluated off the query thread. 2 sessions and the monitor worker leave
/// one of 4 vCPUs free: with all 4 busy, the figures followed the scheduler
/// more than the program.
class MixedTopk final : public Workload {
 public:
  const char* name() const override { return "mixed_topk"; }
  int sessions() const override { return 2; }
  bool async() const override { return true; }

  Status DefineMonitor(
      const std::function<Status(cm::LatSpec)>& define,
      const std::function<Status(const cm::RuleSpec&)>& add) override {
    cm::LatSpec top = MakeLat(
        "Top10", {{"ID", ""}},
        {{cm::LatAggFunc::kLast, "Duration", "Dur", false}});
    top.ordering = {{"Dur", true}};
    top.max_rows = 10;
    cm::LatSpec sig = MakeLat(
        "SigStats", {{"Logical_Signature", "Sig"}},
        {{cm::LatAggFunc::kCount, "", "N", false},
         {cm::LatAggFunc::kCount, "", "RecentN", true},
         {cm::LatAggFunc::kAvg, "Duration", "AvgDur", true},
         {cm::LatAggFunc::kQuantile, "Duration", "P95Dur", false, 0.95}});
    sig.aging_window_micros = 10'000'000;
    sig.aging_block_micros = 1'000'000;
    cm::LatSpec app = MakeLat(
        "AppStats", {{"Application", "App"}},
        {{cm::LatAggFunc::kCount, "", "N", false},
         {cm::LatAggFunc::kSum, "Duration", "TotalDur", false},
         {cm::LatAggFunc::kMax, "Duration", "MaxDur", false}});
    cm::LatSpec outliers = MakeLat(
        "Outliers", {{"ID", ""}},
        {{cm::LatAggFunc::kLast, "Duration", "Dur", false}});
    outliers.ordering = {{"Dur", true}};
    outliers.max_rows = 100;
    for (cm::LatSpec* spec : {&top, &sig, &app, &outliers}) {
      if (Status s = define(std::move(*spec)); !s.ok()) return s;
    }
    for (const cm::RuleSpec& rule :
         {Rule("top10", "Query.Commit", "", "Query.Insert(Top10)"),
          Rule("sig_stats", "Query.Commit", "", "Query.Insert(SigStats)"),
          Rule("app_stats", "Query.Commit", "", "Query.Insert(AppStats)"),
          Rule("outlier", "Query.Commit",
               "Query.Duration > 5 * SigStats.AvgDur",
               "Query.Insert(Outliers)")}) {
      if (Status s = add(rule); !s.ok()) return s;
    }
    return Status::OK();
  }

  std::vector<Stream> Generate(const Scale& scale,
                               uint64_t seed) const override {
    std::vector<Stream> streams;
    for (int s = 0; s < sessions(); ++s) {
      workload::MixedWorkloadConfig config;
      config.num_point_selects = scale.stream_ops;
      config.num_join_selects = scale.stream_ops / 200;
      config.seed = seed * 1000 + static_cast<uint64_t>(s) + 1;
      streams.push_back(
          StreamFromItems(workload::GenerateMixedWorkload(scale.tpch, config)));
    }
    return streams;
  }

  void Check(engine::Database* db, engine::Session*,
             cm::MonitorEngine* monitor, const Issued& issued,
             CheckList* checks) const override {
    const int64_t now = db->clock()->NowMicros();
    std::unordered_map<std::string, int64_t> per_app;
    for (const Row& row : monitor->FindLat("AppStats")->Snapshot(now)) {
      per_app[row[0].ToDisplayString()] = row[1].int_value();
    }
    bool apps_ok = per_app.size() == issued.statements.size();
    for (size_t s = 0; s < issued.statements.size(); ++s) {
      auto it = per_app.find(AppName(s));
      apps_ok = apps_ok && it != per_app.end() &&
                it->second == issued.statements[s];
    }
    checks->Expect(apps_ok,
                   "per-Application COUNT equals each session's statements");
    const int64_t sig_total = SumColumn(monitor->FindLat("SigStats"), 1, now);
    checks->Expect(sig_total == issued.total_statements(),
                   "signature COUNTs sum " + std::to_string(sig_total) +
                       " == statements " +
                       std::to_string(issued.total_statements()));
    checks->Expect(monitor->FindLat("Top10")->size() ==
                       static_cast<size_t>(
                           std::min<int64_t>(10, issued.total_statements())),
                   "Top10 holds 10 rows");
  }

};

/// Writes beside reads (paper Example 2): short transactions contending on
/// a hot set of accounts, with transaction and blocking rules.
class HotUpdates final : public Workload {
 public:
  static constexpr int64_t kHotSet = 16;
  static constexpr double kInitialBalance = 1000.0;

  const char* name() const override { return "hot_updates"; }
  int sessions() const override { return 3; }

  Status LoadExtra(engine::Database* db, const Scale& scale) override {
    auto session = db->CreateSession();
    auto created = session->Execute(
        "CREATE TABLE accounts (id INT, balance FLOAT, PRIMARY KEY(id))");
    if (!created.ok()) return created.status();
    for (int64_t id = 0; id < scale.accounts; ++id) {
      exec::ParamMap params = {{"k", Value::Int(id)},
                               {"b", Value::Double(kInitialBalance)}};
      auto r = session->Execute("INSERT INTO accounts VALUES (@k, @b)",
                                &params);
      if (!r.ok()) return r.status();
    }
    accounts_ = scale.accounts;
    return Status::OK();
  }

  Status DefineMonitor(
      const std::function<Status(cm::LatSpec)>& define,
      const std::function<Status(const cm::RuleSpec&)>& add) override {
    cm::LatSpec blocker = MakeLat(
        "BlockerLat", {{"Logical_Signature", "Sig"}},
        {{cm::LatAggFunc::kCount, "", "N", false},
         {cm::LatAggFunc::kSum, "Wait_Secs", "Waited", false}});
    blocker.object_class = cm::MonitoredClass::kBlocker;
    cm::LatSpec txn = MakeLat(
        "TxnLat", {{"Logical_Signature", "Sig"}},
        {{cm::LatAggFunc::kCount, "", "N", false},
         {cm::LatAggFunc::kAvg, "Duration", "AvgDur", false}});
    txn.object_class = cm::MonitoredClass::kTransaction;
    cm::LatSpec query = MakeLat(
        "QueryLat", {{"Logical_Signature", "Sig"}},
        {{cm::LatAggFunc::kCount, "", "N", false},
         {cm::LatAggFunc::kMax, "Time_Blocked", "MaxBlocked", false}});
    for (cm::LatSpec* spec : {&blocker, &txn, &query}) {
      if (Status s = define(std::move(*spec)); !s.ok()) return s;
    }
    for (const cm::RuleSpec& rule :
         {Rule("blocking", "Query.Block_Released", "",
               "Blocker.Insert(BlockerLat)"),
          Rule("txns", "Transaction.Commit", "",
               "Transaction.Insert(TxnLat)"),
          Rule("queries", "Query.Commit", "", "Query.Insert(QueryLat)")}) {
      if (Status s = add(rule); !s.ok()) return s;
    }
    return Status::OK();
  }

  std::vector<Stream> Generate(const Scale& scale,
                               uint64_t seed) const override {
    std::vector<Stream> streams;
    for (int s = 0; s < sessions(); ++s) {
      Random rng(seed * 1000 + static_cast<uint64_t>(s) + 1);
      auto selects = workload::GeneratePointSelectWorkload(
          scale.tpch, scale.stream_ops, rng.Next());
      Stream stream;
      stream.reserve(static_cast<size_t>(scale.stream_ops));
      for (int64_t i = 0; i < scale.stream_ops; ++i) {
        // Two distinct accounts, updated in ascending key order so no
        // deadlock is possible; half the time one of them is hot.
        int64_t a = rng.OneIn(2) ? rng.UniformInt(0, kHotSet - 1)
                                 : rng.UniformInt(0, scale.accounts - 1);
        int64_t b = rng.UniformInt(0, scale.accounts - 2);
        if (b >= a) ++b;
        if (a > b) std::swap(a, b);
        // A transfer of 1 between the two keeps SUM(balance) fixed.
        const double delta = rng.OneIn(2) ? 1.0 : -1.0;
        Op op;
        op.txn = true;
        op.stmts.push_back(
            {kUpdate, kUpdateSql,
             {{"k", Value::Int(a)}, {"d", Value::Double(delta)}}});
        op.stmts.push_back(
            {kUpdate, kUpdateSql,
             {{"k", Value::Int(b)}, {"d", Value::Double(-delta)}}});
        Stmt select = FromItem(std::move(selects[static_cast<size_t>(i)]));
        select.cls = kSelect;
        op.stmts.push_back(std::move(select));
        stream.push_back(std::move(op));
      }
      streams.push_back(std::move(stream));
    }
    return streams;
  }

  void Check(engine::Database* db, engine::Session* session,
             cm::MonitorEngine* monitor, const Issued& issued,
             CheckList* checks) const override {
    const int64_t now = db->clock()->NowMicros();
    const int64_t txns = SumColumn(monitor->FindLat("TxnLat"), 1, now);
    checks->Expect(txns == issued.total_txns(),
                   "transaction-LAT COUNTs " + std::to_string(txns) +
                       " == committed transactions " +
                       std::to_string(issued.total_txns()));
    const int64_t queries = SumColumn(monitor->FindLat("QueryLat"), 1, now);
    checks->Expect(queries == issued.total_statements(),
                   "query-LAT COUNTs " + std::to_string(queries) +
                       " == statements " +
                       std::to_string(issued.total_statements()));
    // Last: this statement itself is monitored.
    auto sum = session->Execute("SELECT SUM(balance) FROM accounts");
    const double want = kInitialBalance * static_cast<double>(accounts_);
    const bool sum_ok = sum.ok() && sum->rows.size() == 1 &&
                        sum->rows[0][0].AsDouble() == want;
    checks->Expect(sum_ok, "SUM(balance) unchanged");
  }

 private:
  static constexpr char kUpdateSql[] =
      "UPDATE accounts SET balance = balance + @d WHERE id = @k";
  int64_t accounts_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Scale& scale, uint64_t seed) {
  if (name == "point_rules") return std::make_unique<PointRules>(scale, seed);
  if (name == "mixed_topk") return std::make_unique<MixedTopk>();
  if (name == "hot_updates") return std::make_unique<HotUpdates>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// One database with its sessions and (once attached) its monitor.
struct Env {
  std::unique_ptr<engine::Database> db;
  std::vector<std::unique_ptr<engine::Session>> sessions;
  std::unique_ptr<cm::MonitorEngine> monitor;
  double load_s = 0;
  double monitor_s = 0;  // MonitorEngine construction + rules_s
  double rules_s = 0;    // time inside DefineLat + AddRule
  Issued issued;         // since the monitor attached
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void LoadData(Env* env, Workload* w, const Scale& scale, Tracer* tracer) {
  const int64_t start = NowNs();
  env->db = std::make_unique<engine::Database>();
  if (Status s = workload::LoadTpch(env->db.get(), scale.tpch); !s.ok()) {
    Die("tpch load: " + s.ToString());
  }
  if (Status s = w->LoadExtra(env->db.get(), scale); !s.ok()) {
    Die("load: " + s.ToString());
  }
  const int64_t end = NowNs();
  env->load_s = Seconds(end - start);
  if (tracer != nullptr) {
    tracer->Leaf(tracer->local(), kSpanLoad, start, end, 0);
  }
  for (int s = 0; s < w->sessions(); ++s) {
    env->sessions.push_back(env->db->CreateSession());
    env->sessions.back()->set_application(AppName(s));
  }
  env->issued.statements.assign(env->sessions.size(), 0);
  env->issued.txns.assign(env->sessions.size(), 0);
}

void AttachMonitor(Env* env, Workload* w, Tracer* tracer) {
  const int64_t start = NowNs();
  cm::MonitorEngine::Options options;
  // Full fidelity: the governor never sheds (the guard below verifies it).
  options.governor.overhead_budget = 0;
  options.async_rule_eval = w->async();
  options.monitor_threads = 1;
  env->monitor = std::make_unique<cm::MonitorEngine>(env->db.get(), options);
  int64_t in_calls = 0;
  auto timed = [&](uint8_t kind, auto&& call) {
    const int64_t t0 = NowNs();
    Status s = call();
    const int64_t t1 = NowNs();
    in_calls += t1 - t0;
    if (tracer != nullptr) tracer->Leaf(tracer->local(), kind, t0, t1, 0);
    return s;
  };
  Status s = w->DefineMonitor(
      [&](cm::LatSpec spec) {
        return timed(kSpanDefineLat, [&] {
          return env->monitor->DefineLat(std::move(spec));
        });
      },
      [&](const cm::RuleSpec& rule) {
        return timed(kSpanAddRule, [&] {
          auto id = env->monitor->AddRule(rule);
          return id.ok() ? Status::OK() : id.status();
        });
      });
  if (!s.ok()) Die("monitor set-up: " + s.ToString());
  // Plans compiled without the monitor carry no signatures.
  env->db->plan_cache()->Clear();
  env->rules_s = Seconds(in_calls);
  env->monitor_s = Seconds(NowNs() - start);
}

// ---------------------------------------------------------------------------
// Closed-loop arms
// ---------------------------------------------------------------------------

struct SessionTally {
  int64_t ops = 0;
  int64_t failed = 0;
  int64_t statements = 0;  // statements that completed
  int64_t txns = 0;        // transactions that committed
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> done_ns;  // completion time of each op
};

struct ArmResult {
  int64_t ops = 0;
  int64_t failed = 0;
  double wall_s = 0;  // first op until DrainEventQueue returns
  double drain_ms = 0;
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> done_ns;  // parallel to latency_ns
  double ops_per_s() const { return wall_s > 0 ? double(ops) / wall_s : 0; }
  void Add(const ArmResult& o) {
    ops += o.ops;
    failed += o.failed;
    wall_s += o.wall_s;
    drain_ms += o.drain_ms;
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    done_ns.insert(done_ns.end(), o.done_ns.begin(), o.done_ns.end());
  }
  double mean_latency_us() const {
    double sum = 0;
    for (int64_t l : latency_ns) sum += static_cast<double>(l);
    return latency_ns.empty() ? 0 : sum / double(latency_ns.size()) / 1e3;
  }
};

/// Runs one op; returns false when it failed (error status, deadlock or
/// timeout). With a tracer, records the op and its statements as spans.
bool RunOp(engine::Session* session, const Op& op, Tracer* tracer,
           SessionTally* tally) {
  Tracer::Local* tl = tracer != nullptr ? &tracer->local() : nullptr;
  auto execute = [&](const Stmt& stmt) {
    if (tl != nullptr) tracer->Open(*tl);
    const int64_t t0 = tl != nullptr ? NowNs() : 0;
    const bool ok = session->Execute(stmt.sql, &stmt.params).ok();
    if (tl != nullptr) tracer->Close(*tl, kSpanExecute, t0, NowNs(), stmt.cls);
    if (ok) ++tally->statements;
    return ok;
  };
  if (!op.txn) return execute(op.stmts[0]);

  if (tl != nullptr) tracer->Open(*tl);
  const int64_t t0 = tl != nullptr ? NowNs() : 0;
  bool ok = session->Begin().ok();
  for (size_t i = 0; ok && i < op.stmts.size(); ++i) ok = execute(op.stmts[i]);
  if (ok) {
    ok = session->Commit().ok();
  } else if (session->in_transaction()) {
    (void)session->Rollback();
  }
  if (tl != nullptr) tracer->Close(*tl, kSpanOp, t0, NowNs(), 0);
  if (ok) ++tally->txns;
  return ok;
}

/// With a tracer, 1 op in kTraceEvery per session is traced: all spans of
/// every op would take hundreds of MiB on the fastest workloads.
constexpr int64_t kTraceEvery = 4;

/// Every session replays its stream closed-loop (next op only after the
/// previous one returned) for `seconds`; the calling thread drives session
/// 0. `cursor` keeps each stream's position across arms.
ArmResult RunArm(Env* env, const std::vector<Stream>& streams,
                 std::vector<size_t>* cursor, double seconds,
                 Tracer* tracer) {
  const size_t n = env->sessions.size();
  std::vector<SessionTally> tallies(n);
  std::atomic<bool> go{false};
  int64_t deadline = 0;
  auto body = [&](size_t s) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const Stream& stream = streams[s];
    SessionTally& tally = tallies[s];
    size_t& pos = (*cursor)[s];
    tally.latency_ns.reserve(1 << 16);
    tally.done_ns.reserve(1 << 16);
    for (;;) {
      const Op& op = stream[pos];
      pos = (pos + 1) % stream.size();
      const int64_t t0 = NowNs();
      Tracer* sampled = tally.ops % kTraceEvery == 0 ? tracer : nullptr;
      const bool ok = RunOp(env->sessions[s].get(), op, sampled, &tally);
      const int64_t t1 = NowNs();
      tally.latency_ns.push_back(t1 - t0);
      tally.done_ns.push_back(t1);
      ++tally.ops;
      if (!ok) ++tally.failed;
      if (t1 >= deadline) break;
    }
  };
  std::vector<std::thread> threads;
  for (size_t s = 1; s < n; ++s) threads.emplace_back(body, s);
  const int64_t start = NowNs();
  deadline = start + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  body(0);
  for (auto& t : threads) t.join();
  const int64_t drain_start = NowNs();
  if (env->monitor != nullptr) env->monitor->DrainEventQueue();
  const int64_t end = NowNs();
  if (tracer != nullptr) {
    tracer->Leaf(tracer->local(), kSpanDrain, drain_start, end, 0);
  }

  ArmResult r;
  r.wall_s = Seconds(end - start);
  r.start_ns = start;
  r.deadline_ns = deadline;
  r.drain_ms = static_cast<double>(end - drain_start) / 1e6;
  for (size_t s = 0; s < n; ++s) {
    r.ops += tallies[s].ops;
    r.failed += tallies[s].failed;
    r.latency_ns.insert(r.latency_ns.end(), tallies[s].latency_ns.begin(),
                        tallies[s].latency_ns.end());
    r.done_ns.insert(r.done_ns.end(), tallies[s].done_ns.begin(),
                     tallies[s].done_ns.end());
    if (env->db->monitor_hooks() != nullptr) {
      env->issued.statements[s] += tallies[s].statements;
      env->issued.txns[s] += tallies[s].txns;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of an unsorted sample (sorted in place).
double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * double(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Linearly interpolated quantile of a sample, as numpy's default.
double Interpolated(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

/// The ops that completed in one window, and their latency.
struct Window {
  int64_t ops;
  double p50_us;
  double p99_us;
};

/// Cuts an arm's timed span (start to deadline) into windows of
/// `window_s` and measures each from the ops that completed inside it. The
/// ops that end past the deadline, one per session, fall in none.
std::vector<Window> Windows(const ArmResult& r, double window_s) {
  const int64_t width = static_cast<int64_t>(window_s * 1e9);
  const size_t n = static_cast<size_t>((r.deadline_ns - r.start_ns) / width);
  std::vector<std::vector<int64_t>> latency(n);
  for (size_t i = 0; i < r.done_ns.size(); ++i) {
    const int64_t offset = r.done_ns[i] - r.start_ns;
    const size_t k = static_cast<size_t>(offset / width);
    if (offset >= 0 && k < n) latency[k].push_back(r.latency_ns[i]);
  }
  std::vector<Window> out;
  for (std::vector<int64_t>& l : latency) {
    if (l.empty()) continue;
    out.push_back({static_cast<int64_t>(l.size()), Quantile(&l, 0.50) / 1e3,
                   Quantile(&l, 0.99) / 1e3});
  }
  return out;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    std::printf("metric %s %.6f %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The result object: the last line of stdout.
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Full-fidelity guard: a run in which the monitor shed, dropped, skipped or
/// failed anything measured a degraded monitor and is invalid.
bool GuardHolds(const cm::MonitorEngine& monitor) {
  const cm::MonitorMetrics& m = monitor.metrics();
  const std::pair<const char*, uint64_t> counters[] = {
      {"events_sampled_out", m.events_sampled_out.value()},
      {"queue_dropped", m.queue_dropped.value()},
      {"queue_shed", m.queue_shed.value()},
      {"breaker_skips", m.breaker_skips.value()},
      {"errors_total", m.errors_total.value()},
  };
  bool ok = true;
  for (const auto& [name, value] : counters) {
    std::printf("guard %s %" PRIu64 "\n", name, value);
    ok = ok && value == 0;
  }
  const std::string last_error = monitor.last_error();
  std::printf("guard last_error \"%s\"\n", last_error.c_str());
  return ok && last_error.empty();
}

/// Monitor counters, read before and after each traced arm.
struct MonitorCounters {
  uint64_t events = 0, fired = 0, evaluations = 0;
  uint64_t pred_evals = 0, pred_memo_hits = 0;
  uint64_t enqueued = 0, batches = 0, batch_events = 0;
  uint64_t lat_inserts = 0, lat_evictions = 0, lat_heap_skips = 0;
  uint64_t lat_latches = 0, lat_contention = 0;

  /// Adds after - before, field by field.
  void AddDelta(const MonitorCounters& before, const MonitorCounters& after) {
    for (uint64_t MonitorCounters::*f :
         {&MonitorCounters::events, &MonitorCounters::fired,
          &MonitorCounters::evaluations, &MonitorCounters::pred_evals,
          &MonitorCounters::pred_memo_hits, &MonitorCounters::enqueued,
          &MonitorCounters::batches, &MonitorCounters::batch_events,
          &MonitorCounters::lat_inserts, &MonitorCounters::lat_evictions,
          &MonitorCounters::lat_heap_skips, &MonitorCounters::lat_latches,
          &MonitorCounters::lat_contention}) {
      this->*f += after.*f - before.*f;
    }
  }

  static MonitorCounters Read(const cm::MonitorEngine& monitor) {
    const cm::MonitorMetrics& m = monitor.metrics();
    MonitorCounters c;
    c.events = m.events_processed.value();
    c.fired = m.rules_fired.value();
    for (const auto& rule : monitor.SnapshotRules()) {
      c.evaluations += rule->stats.evaluations.value();
    }
    c.pred_evals = m.predindex_evals.value();
    c.pred_memo_hits = m.predindex_memo_hits.value();
    c.enqueued = m.queue_enqueued.value();
    c.batches = m.queue_batches.value();
    c.batch_events = m.queue_batch_events.value();
    for (const auto& lat : monitor.SnapshotLats()) {
      const cm::LatStats& s = lat->stats();
      c.lat_inserts += s.inserts.value();
      c.lat_evictions += s.evictions.value();
      c.lat_heap_skips += s.heap_skips.value();
      c.lat_latches += s.latch_acquisitions.value();
      c.lat_contention += s.latch_contention.value();
    }
    return c;
  }
};

/// Per-layer figures derived from the traced ops' spans; returns the hook
/// time per op in microseconds.
double ReportSpans(const Tracer& tracer, Report* report) {
  std::array<std::vector<int64_t>, kNumOpClasses> execute;
  std::array<std::vector<int64_t>, cm::kNumMonitorHooks> hooks;
  std::vector<int64_t> lock_wait_us;
  std::unordered_map<uint64_t, int64_t> hook_ns_under;  // by parent span
  int64_t execute_ns = 0, hook_ns = 0, ops = 0;
  std::vector<const Span*> spans = tracer.Collect();
  for (const Span* s : spans) {
    const int64_t dur = s->end_ns - s->start_ns;
    if ((s->kind == kSpanOp || s->kind == kSpanExecute) && s->parent_id == 0) {
      ++ops;
    }
    if (s->kind == kSpanExecute) {
      execute[static_cast<size_t>(s->aux)].push_back(dur);
      execute_ns += dur;
    } else if (IsHookSpan(s->kind)) {
      const size_t h = s->kind - kSpanHookBase;
      hooks[h].push_back(dur);
      hook_ns += dur;
      hook_ns_under[s->parent_id] += dur;
      if (h == static_cast<size_t>(cm::MonitorHook::kBlockReleased)) {
        lock_wait_us.push_back(s->aux);
      }
    }
  }
  int64_t hook_ns_in_execute = 0;
  for (const Span* s : spans) {
    if (s->kind != kSpanExecute) continue;
    auto it = hook_ns_under.find(s->span_id);
    if (it != hook_ns_under.end()) hook_ns_in_execute += it->second;
  }
  for (size_t c = 0; c < kNumOpClasses; ++c) {
    const std::string base = std::string("engine.execute_us.") +
                             kOpClassNames[c];
    std::printf("samples %s %zu\n", base.c_str(), execute[c].size());
    report->Add(base + ".p50", Quantile(&execute[c], 0.50) / 1e3, "us");
    report->Add(base + ".p99", Quantile(&execute[c], 0.99) / 1e3, "us");
  }
  const double per_op = 1.0 / std::max<double>(1, static_cast<double>(ops));
  report->Add("engine.self_us_per_op",
              static_cast<double>(execute_ns - hook_ns_in_execute) / 1e3 *
                  per_op,
              "us");
  for (size_t h = 0; h < cm::kNumMonitorHooks; ++h) {
    const auto hook = static_cast<cm::MonitorHook>(h);
    if (hook == cm::MonitorHook::kQueryCancel ||
        hook == cm::MonitorHook::kQueryRollback ||
        hook == cm::MonitorHook::kTxnRollback) {
      // No workload cancels or rolls back; a call here is a failed op.
      std::printf("calls %s %zu\n", cm::MonitorHookName(hook),
                  hooks[h].size());
      continue;
    }
    const std::string base =
        std::string("sqlcm.hook.") +
        cm::MonitorHookName(static_cast<cm::MonitorHook>(h));
    report->Add(base + ".calls", static_cast<double>(hooks[h].size()),
                "count");
    report->Add(base + ".p50_us", Quantile(&hooks[h], 0.50) / 1e3, "us");
    report->Add(base + ".p99_us", Quantile(&hooks[h], 0.99) / 1e3, "us");
  }
  const double hook_us_per_op = static_cast<double>(hook_ns) / 1e3 * per_op;
  report->Add("sqlcm.hook_us_per_op", hook_us_per_op, "us");
  int64_t wait_total = 0;
  for (int64_t w : lock_wait_us) wait_total += w;
  report->Add("txn.blocked.calls", static_cast<double>(lock_wait_us.size()),
              "count");
  report->Add("txn.lock_wait_us.p50", Quantile(&lock_wait_us, 0.50), "us");
  report->Add("txn.lock_wait_us.p99", Quantile(&lock_wait_us, 0.99), "us");
  report->Add("txn.lock_wait_us.total", static_cast<double>(wait_total), "us");
  return hook_us_per_op;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scale = "full";
  std::string spans_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--scale") {
      a.scale = value;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !(a.seconds > 0) ||
      (a.trace != 0 && a.trace != 1) ||
      (a.scale != "full" && a.scale != "tiny")) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "[--scale full|tiny] [--spans-out PATH]");
  }
  return a;
}

/// Short unmeasured arm: warms the plan cache, page-ins and LATs.
double WarmupSeconds(double seconds) {
  return std::clamp(seconds * 0.05, 0.1, 1.0);
}

/// Untraced run: the end-to-end metrics.
int RunUntraced(const Args& args, const Scale& scale, Workload* w,
                const std::vector<Stream>& streams) {
  // This host's speed switches between phases lasting seconds to minutes
  // (README.md, "Run-to-run spread"). The measured time is cut into
  // repetitions, each on a fresh set-up whose time is one setup_s sample,
  // and each repetition into windows, and every figure is read from the
  // windows of the whole run. p50 is their median. A stall (a preempted
  // thread, a slow wake-up from a lock wait) only slows ops down, and hits
  // throughput and the tail first, so throughput and p99 are the windows'
  // quartile on the fast side. All quartiles and every repetition are
  // printed.
  constexpr int kReps = 10;
  const double rep_s = args.seconds / kReps;
  const double window_s = std::min(0.5, rep_s);
  std::vector<double> setups, rates, p50s, p99s;
  double busy_s = 0, wall_s = 0;
  std::vector<size_t> cursor(streams.size(), 0);
  int64_t ops = 0, failed = 0;
  int64_t min_window_ops = INT64_MAX;
  CheckList checks;
  bool guard = true;
  for (int rep = 0; rep < kReps; ++rep) {
    Env env;
    LoadData(&env, w, scale, nullptr);
    AttachMonitor(&env, w, nullptr);
    setups.push_back(env.load_s + env.monitor_s);
    RunArm(&env, streams, &cursor, std::clamp(rep_s * 0.1, 0.05, 0.5),
           nullptr);  // warms the plan cache and fills the LATs
    ArmResult r = RunArm(&env, streams, &cursor, rep_s, nullptr);
    for (const Window& x : Windows(r, window_s)) {
      rates.push_back(double(x.ops) / window_s);
      p50s.push_back(x.p50_us);
      p99s.push_back(x.p99_us);
      min_window_ops = std::min(min_window_ops, x.ops);
    }
    busy_s += r.wall_s - r.drain_ms / 1e3;
    wall_s += r.wall_s;
    std::printf("rep %d setup_s %.4f rules_s %.4f ops %" PRId64
                " ops_per_s %.1f p50_us %.3f p99_us %.3f drain_ms %.3f\n",
                rep, setups.back(), env.rules_s, r.ops, r.ops_per_s(),
                Quantile(&r.latency_ns, 0.50) / 1e3,
                Quantile(&r.latency_ns, 0.99) / 1e3, r.drain_ms);
    ops += r.ops;
    failed += r.failed;
    guard = GuardHolds(*env.monitor) && guard;
    w->Check(env.db.get(), env.sessions[0].get(), env.monitor.get(),
             env.issued, &checks);
  }
  // Time spent draining what the monitor left queued is charged to
  // throughput: window rates are scaled by the share of time not draining.
  for (double& rate : rates) rate *= Ratio(busy_s, wall_s);
  for (const auto& [name, v] :
       {std::pair{"ops_per_s", &rates}, {"op_p50_us", &p50s},
        {"op_p99_us", &p99s}}) {
    const double q25 = Interpolated(*v, 0.25);
    const double q50 = Interpolated(*v, 0.50);
    const double q75 = Interpolated(*v, 0.75);
    std::printf("windows %s n %zu q25 %.3f q50 %.3f q75 %.3f iqr_frac %.4f\n",
                name, v->size(), q25, q50, q75, Ratio(q75 - q25, q50));
  }
  // At least 10 samples lie beyond each window's p99 when it has 1,000.
  std::printf("samples op_latency total %" PRId64 " per_window_min %" PRId64
              "\n",
              ops, rates.empty() ? 0 : min_window_ops);
  std::printf("failed_frac %.6f\n", Ratio(double(failed), double(ops)));

  Report report;
  report.Add("ops_per_s", Interpolated(rates, 0.75), "ops/s");
  report.Add("op_p50_us", Interpolated(p50s, 0.50), "us");
  report.Add("op_p99_us", Interpolated(p99s, 0.25), "us");
  report.Add("setup_s", Median(setups), "s");
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  if (!guard) {
    std::fprintf(stderr, "perfbench: full-fidelity guard failed\n");
    return 3;
  }
  report.PrintJson(checks.ok && failed == 0, ops, failed);
  return checks.ok ? 0 : 1;
}

/// Traced run: no-monitor, untraced and traced arms on one data set; the
/// per-layer metrics.
int RunTraced(const Args& args, const Scale& scale, Workload* w,
              const std::vector<Stream>& streams) {
  Tracer tracer;
  Env env;
  std::vector<size_t> cursor(streams.size(), 0);

  LoadData(&env, w, scale, &tracer);
  AttachMonitor(&env, w, &tracer);
  RunArm(&env, streams, &cursor, WarmupSeconds(args.seconds), nullptr);

  // The arms alternate in rounds so that throughput phases (README.md) fall
  // on all three alike. Hooks are swapped only while no session runs.
  constexpr int kRounds = 4;
  const double round_s = args.seconds / kRounds;
  TracingHooks tracing(env.monitor.get(), &tracer);
  ArmResult nomon, untraced, traced;
  MonitorCounters delta;
  for (int round = 0; round < kRounds; ++round) {
    env.db->set_monitor_hooks(nullptr);
    nomon.Add(RunArm(&env, streams, &cursor, round_s * 0.25, nullptr));
    env.db->set_monitor_hooks(env.monitor.get());
    untraced.Add(RunArm(&env, streams, &cursor, round_s * 0.3, nullptr));
    const MonitorCounters before = MonitorCounters::Read(*env.monitor);
    env.db->set_monitor_hooks(&tracing);
    traced.Add(RunArm(&env, streams, &cursor, round_s * 0.45, &tracer));
    env.db->set_monitor_hooks(env.monitor.get());
    delta.AddDelta(before, MonitorCounters::Read(*env.monitor));
  }

  CheckList checks;
  const bool guard = GuardHolds(*env.monitor);
  w->Check(env.db.get(), env.sessions[0].get(), env.monitor.get(), env.issued,
           &checks);

  const int64_t ops = nomon.ops + untraced.ops + traced.ops;
  const int64_t failed = nomon.failed + untraced.failed + traced.failed;
  std::printf("arm nomon ops %" PRId64 " ops_per_s %.1f mean_us %.3f\n",
              nomon.ops, nomon.ops_per_s(), nomon.mean_latency_us());
  std::printf("arm untraced ops %" PRId64 " ops_per_s %.1f mean_us %.3f\n",
              untraced.ops, untraced.ops_per_s(), untraced.mean_latency_us());
  std::printf("arm traced ops %" PRId64 " ops_per_s %.1f mean_us %.3f\n",
              traced.ops, traced.ops_per_s(), traced.mean_latency_us());
  std::printf("failed_frac %.6f\n", Ratio(double(failed), double(ops)));

  Report report;
  const double hook_us = ReportSpans(tracer, &report);
  report.Add("engine.nomon_ops_per_s", nomon.ops_per_s(), "ops/s");
  // Since the plan-cache clear when the monitor attached.
  const double plan_hits = double(env.db->plan_cache()->hits());
  const double plan_misses = double(env.db->plan_cache()->misses());
  report.Add("engine.plan_cache.hit_ratio",
             Ratio(plan_hits, plan_hits + plan_misses), "ratio");
  report.Add("engine.plan_cache.misses", plan_misses, "count");

  const double fired = double(delta.fired);
  const double evals = double(delta.pred_evals);
  const double memo = double(delta.pred_memo_hits);
  const double latches = double(delta.lat_latches);
  const double batches = double(delta.batches);
  report.Add("sqlcm.events", double(delta.events), "count");
  report.Add("sqlcm.rules_fired", fired, "count");
  report.Add("sqlcm.fire_ratio", Ratio(fired, double(delta.evaluations)),
             "ratio");
  report.Add("sqlcm.predindex.evals", evals, "count");
  report.Add("sqlcm.predindex.share_ratio", Ratio(memo, evals + memo),
             "ratio");
  report.Add("sqlcm.lat.inserts", double(delta.lat_inserts), "count");
  report.Add("sqlcm.lat.evictions", double(delta.lat_evictions), "count");
  report.Add("sqlcm.lat.heap_skips", double(delta.lat_heap_skips), "count");
  report.Add("sqlcm.lat.latch_acquisitions", latches, "count");
  report.Add("sqlcm.lat.contention_ratio",
             Ratio(double(delta.lat_contention), latches), "ratio");
  report.Add("sqlcm.queue.enqueued", double(delta.enqueued), "count");
  report.Add("sqlcm.queue.batches", batches, "count");
  report.Add("sqlcm.queue.mean_batch",
             Ratio(double(delta.batch_events), batches), "count");
  report.Add("sqlcm.queue.drain_ms", traced.drain_ms / kRounds, "ms");
  report.Add("setup.load_s", env.load_s, "s");
  report.Add("setup.rules_s", env.rules_s, "s");

  // The monitor's whole cost per op against the no-monitor arm, and the
  // part of it the hooks do not account for (reported, not gated).
  const double added = untraced.mean_latency_us() - nomon.mean_latency_us();
  report.Add("sqlcm.added_us_per_op", added, "us");
  report.Add("sqlcm.unexplained_us_per_op", added - hook_us, "us");
  report.Add("trace.overhead_frac",
             1.0 - Ratio(traced.ops_per_s(), untraced.ops_per_s()), "ratio");

  if (!args.spans_out.empty()) {
    if (!tracer.WriteCsv(args.spans_out)) Die("cannot write " + args.spans_out);
    std::printf("spans written to %s\n", args.spans_out.c_str());
  }
  if (!guard) {
    std::fprintf(stderr, "perfbench: full-fidelity guard failed\n");
    return 3;
  }
  report.PrintJson(checks.ok && failed == 0, ops, failed);
  return checks.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const Scale scale = MakeScale(args.scale, args.seed);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, scale, args.seed);
  if (w == nullptr) Die("unknown workload " + args.workload);
  std::printf("workload %s seed %" PRIu64 " seconds %.3f trace %d scale %s "
              "sessions %d\n",
              w->name(), args.seed, args.seconds, args.trace,
              args.scale.c_str(), w->sessions());
  const std::vector<Stream> streams = w->Generate(scale, args.seed);
  return args.trace == 0 ? RunUntraced(args, scale, w.get(), streams)
                         : RunTraced(args, scale, w.get(), streams);
}
