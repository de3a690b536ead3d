// Multi-threaded LAT stress over the sharded directory (§6.1): concurrent
// inserts, evictions, snapshots, resets and checkpoint/restore racing across
// shard boundaries. CI runs this binary under ThreadSanitizer (the
// `concurrency` filter of the tsan job), so the assertions here are mostly
// "invariants hold"; the interleavings themselves are the test.
//
// Also proves the determinism contract of LatSpec::shard_count: the shard
// count changes contention behaviour only, never aggregate results.
#include "sqlcm/lat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/catalog.h"

namespace sqlcm::cm {
namespace {

using common::Row;
using common::Value;

QueryRecord MakeQuery(const std::string& sig, double duration) {
  QueryRecord rec;
  rec.logical_signature = sig;
  rec.duration_secs = duration;
  rec.text = "q";
  rec.id = 1;
  return rec;
}

LatSpec CountSumSpec(const std::string& name, size_t shard_count) {
  LatSpec spec;
  spec.name = name;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "S", false}};
  spec.shard_count = shard_count;
  return spec;
}

// ---------------------------------------------------------------------------
// Determinism: shard count never changes results
// ---------------------------------------------------------------------------

std::vector<Row> SortedByKey(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].string_value() < b[0].string_value();
  });
  return rows;
}

TEST(LatShardDeterminismTest, AggregatesIndependentOfShardCount) {
  auto one = *Lat::Create(CountSumSpec("one", 1));
  auto many = *Lat::Create(CountSumSpec("many", 8));
  EXPECT_EQ(one->shard_count(), 1u);
  EXPECT_EQ(many->shard_count(), 8u);

  common::Random rng(7);
  for (int i = 0; i < 2000; ++i) {
    auto rec = MakeQuery("sig" + std::to_string(rng.Uniform(64)),
                         static_cast<double>(rng.UniformInt(0, 100)) / 4.0);
    one->Insert(&rec, 0);
    many->Insert(&rec, 0);
  }

  ASSERT_EQ(one->size(), many->size());
  const auto rows1 = SortedByKey(one->Snapshot(0));
  const auto rows8 = SortedByKey(many->Snapshot(0));
  ASSERT_EQ(rows1.size(), rows8.size());
  for (size_t i = 0; i < rows1.size(); ++i) {
    ASSERT_EQ(rows1[i].size(), rows8[i].size());
    EXPECT_EQ(rows1[i][0].string_value(), rows8[i][0].string_value());
    EXPECT_EQ(rows1[i][1].int_value(), rows8[i][1].int_value());
    EXPECT_DOUBLE_EQ(rows1[i][2].AsDouble(), rows8[i][2].AsDouble());
  }
}

TEST(LatShardDeterminismTest, EvictionOrderIndependentOfShardCount) {
  // Eviction must pick the globally least-important row even though each
  // shard keeps its own heap — so a size-limited LAT retains exactly the
  // same top-k set at any shard count.
  auto make = [](size_t shard_count) {
    LatSpec spec;
    spec.name = "top";
    spec.group_by = {{"ID", ""}};
    spec.aggregates = {{LatAggFunc::kMax, "Duration", "Dur", false}};
    spec.ordering = {{"Dur", true}};
    spec.max_rows = 12;
    spec.shard_count = shard_count;
    return *Lat::Create(std::move(spec));
  };
  auto one = make(1);
  auto many = make(8);

  common::Random rng(11);
  for (int i = 1; i <= 500; ++i) {
    QueryRecord rec;
    rec.id = static_cast<uint64_t>(i);
    // Unique durations -> an unambiguous top-12 set.
    rec.duration_secs =
        static_cast<double>(i) + static_cast<double>(rng.Uniform(50)) * 1000.0;
    one->Insert(&rec, 0);
    many->Insert(&rec, 0);
  }
  const auto rows1 = one->Snapshot(0);
  const auto rows8 = many->Snapshot(0);
  ASSERT_EQ(rows1.size(), 12u);
  ASSERT_EQ(rows8.size(), 12u);
  for (size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_EQ(rows1[i][0].int_value(), rows8[i][0].int_value()) << "rank " << i;
    EXPECT_DOUBLE_EQ(rows1[i][1].AsDouble(), rows8[i][1].AsDouble());
  }
}

// ---------------------------------------------------------------------------
// Cross-shard races
// ---------------------------------------------------------------------------

TEST(LatConcurrencyTest, InsertSnapshotResetRace) {
  auto spec = CountSumSpec("race", 8);
  auto lat = *Lat::Create(std::move(spec));

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&lat, t] {
      common::Random rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerWriter; ++i) {
        auto rec = MakeQuery("sig" + std::to_string(rng.Uniform(32)), 1.0);
        lat->Insert(&rec, 0);
      }
    });
  }
  // Reader thread: snapshots and point lookups racing the writers.
  threads.emplace_back([&lat, &done] {
    Row row;
    while (!done.load(std::memory_order_acquire)) {
      const auto rows = lat->Snapshot(0);
      ASSERT_LE(rows.size(), 32u);
      for (const Row& r : rows) {
        ASSERT_EQ(r.size(), 3u);
        ASSERT_GE(r[1].int_value(), 1);
      }
      lat->LookupByKey({Value::String("sig0")}, 0, &row);
    }
  });
  // Reset thread: periodically drops everything mid-stream.
  threads.emplace_back([&lat, &done] {
    int resets = 0;
    while (!done.load(std::memory_order_acquire) && resets < 50) {
      lat->Reset();
      ++resets;
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Post-race coherence: counters balance and a final Reset empties it.
  EXPECT_LE(lat->size(), 32u);
  EXPECT_EQ(lat->Snapshot(0).size(), lat->size());
  lat->Reset();
  EXPECT_EQ(lat->size(), 0u);
  EXPECT_EQ(lat->approx_bytes(), 0u);
  auto rec = MakeQuery("fresh", 2.0);
  lat->Insert(&rec, 0);
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&rec, 0, &row));
  EXPECT_EQ(row[1].int_value(), 1);
}

TEST(LatConcurrencyTest, EvictionRaceAcrossShards) {
  LatSpec spec;
  spec.name = "evict";
  spec.group_by = {{"ID", ""}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "D", false}};
  spec.ordering = {{"D", true}};
  spec.max_rows = 24;
  spec.shard_count = 8;
  auto lat = *Lat::Create(std::move(spec));
  std::atomic<size_t> evictions{0};
  lat->set_evict_callback([&](Row row) {
    ASSERT_EQ(row.size(), 2u);
    evictions.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr int kThreads = 6;
  constexpr int kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord rec;
        rec.id = static_cast<uint64_t>(t * kPerThread + i + 1);
        rec.duration_secs = static_cast<double>(rec.id % 4093);
        lat->Insert(&rec, 0);
      }
    });
  }
  // A racing resetter makes eviction contend with wholesale teardown.
  threads.emplace_back([&lat] {
    for (int i = 0; i < 20; ++i) {
      lat->Reset();
      std::this_thread::yield();
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_LE(lat->size(), 24u);
  EXPECT_EQ(lat->Snapshot(0).size(), lat->size());
  EXPECT_GT(evictions.load(), 0u);
}

TEST(LatConcurrencyTest, ByteBudgetRace) {
  LatSpec spec;
  spec.name = "bytes";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false}};
  spec.ordering = {{"N", true}};
  spec.max_bytes = 4096;
  spec.shard_count = 4;
  auto lat = *Lat::Create(std::move(spec));

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < 3000; ++i) {
        auto rec = MakeQuery(
            "thread" + std::to_string(t) + "_key" + std::to_string(i % 512),
            1.0);
        lat->Insert(&rec, 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  // The budget may overshoot transiently but must hold once quiesced
  // (one more insert runs the eviction loop to completion).
  auto rec = MakeQuery("final", 1.0);
  lat->Insert(&rec, 0);
  EXPECT_LE(lat->approx_bytes(), 4096u + 512u);  // one row of slack
  EXPECT_GE(lat->size(), 1u);
}

TEST(LatConcurrencyTest, CheckpointRestoreRace) {
  storage::Catalog catalog;
  auto schema = catalog::TableSchema::Create(
      "snap",
      {{"Sig", catalog::ColumnType::kString},
       {"N", catalog::ColumnType::kInt},
       {"S", catalog::ColumnType::kDouble},
       {"ts", catalog::ColumnType::kInt}},
      {});
  storage::Table* table = *catalog.CreateTable(std::move(*schema));

  auto lat = *Lat::Create(CountSumSpec("ckpt", 8));
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&lat, t] {
      for (int i = 0; i < 4000; ++i) {
        auto rec = MakeQuery("sig" + std::to_string((t * 7 + i) % 48), 0.5);
        lat->Insert(&rec, 0);
      }
    });
  }
  // Checkpointer: persists the live LAT and restores into a fresh one while
  // writers keep mutating rows across every shard.
  threads.emplace_back([&lat, table, &done] {
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(lat->PersistTo(table, /*timestamp=*/1, 0).ok());
      auto restored = *Lat::Create(CountSumSpec("restored", 2));
      ASSERT_TRUE(restored->SeedFrom(*table, 0).ok());
      // The restore is a coherent point-in-time image: every seeded group
      // has a positive count.
      for (const Row& row : restored->Snapshot(0)) {
        ASSERT_GE(row[1].int_value(), 1);
      }
      table->Truncate();
      std::this_thread::yield();
    }
  });
  for (int t = 0; t < 3; ++t) threads[static_cast<size_t>(t)].join();
  done.store(true, std::memory_order_release);
  threads.back().join();

  // Quiesced totals are exact: 3 writers x 4000 inserts.
  int64_t total = 0;
  for (const Row& row : lat->Snapshot(0)) total += row[1].int_value();
  EXPECT_EQ(total, 3 * 4000);
}

// ImportState links each restored row into the directory before placing
// it, so writers folding into the same groups race the import's byte
// accounting. The row's byte share must be read under its row latch (the
// shared write step); TSan flags the read otherwise.
TEST(LatConcurrencyTest, ImportStateRacesWritersUnderByteBudget) {
  LatSpec spec;
  spec.name = "import";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kLast, "Query_Text", "LastText", false}};
  spec.ordering = {{"N", true}};
  spec.max_bytes = size_t{1} << 30;  // accounting on, never binding
  spec.shard_count = 4;
  constexpr int kGroups = 32;
  constexpr int kWriters = 3;
  constexpr int kInserts = 600;

  auto source = *Lat::Create(spec);
  for (int g = 0; g < kGroups; ++g) {
    auto rec = MakeQuery("sig" + std::to_string(g), 1.0);
    source->Insert(&rec, 0);
  }
  const std::vector<Row> records = source->ExportState();

  for (int round = 0; round < 8; ++round) {
    auto lat = *Lat::Create(spec);
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&lat, t] {
        for (int i = 0; i < kInserts; ++i) {
          auto rec = MakeQuery("sig" + std::to_string((t * 5 + i) % kGroups),
                               0.5);
          rec.text = std::string(static_cast<size_t>(i % 40), 'x');
          lat->Insert(&rec, 0);
        }
      });
    }
    ASSERT_TRUE(lat->ImportState(records, 0).ok());
    for (auto& w : writers) w.join();

    // Every group exists once; each holds its writers' inserts plus the
    // imported count when the import won the race for it.
    const std::vector<Row> rows = lat->Snapshot(0);
    ASSERT_EQ(rows.size(), static_cast<size_t>(kGroups));
    int64_t total = 0;
    for (const Row& row : rows) total += row[1].int_value();
    EXPECT_GE(total, kWriters * kInserts);
    EXPECT_LE(total, kWriters * kInserts + kGroups);
    EXPECT_GT(lat->approx_bytes(), 0u);
  }
}

TEST(LatConcurrencyTest, HeapSkipOnUnchangedOrderingKey) {
  LatSpec spec;
  spec.name = "skip";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kMax, "Duration", "MaxDur", false}};
  spec.ordering = {{"MaxDur", true}};
  spec.max_rows = 4;
  auto lat = *Lat::Create(std::move(spec));

  auto hi = MakeQuery("a", 5.0);
  auto lo = MakeQuery("a", 3.0);
  lat->Insert(&hi, 0);  // creates the row: full heap maintenance
  EXPECT_EQ(lat->stats().heap_skips.value(), 0u);
  lat->Insert(&lo, 0);  // MAX unchanged -> ordering key unchanged -> skip
  EXPECT_EQ(lat->stats().heap_skips.value(), 1u);
  lat->Insert(&hi, 0);  // still unchanged
  EXPECT_EQ(lat->stats().heap_skips.value(), 2u);
  auto higher = MakeQuery("a", 9.0);
  lat->Insert(&higher, 0);  // key changes -> maintenance runs
  EXPECT_EQ(lat->stats().heap_skips.value(), 2u);

  // The skipped maintenance must not have stranded the row: it still
  // evicts in the right order.
  Row row;
  ASSERT_TRUE(lat->LookupForObject(&hi, 0, &row));
  EXPECT_DOUBLE_EQ(row[1].AsDouble(), 9.0);
}

TEST(LatConcurrencyTest, ShardCountEnvOverrideAndClamp) {
  // spec.shard_count is rounded up to a power of two and clamped.
  auto spec = CountSumSpec("clamp", 5);
  auto lat = *Lat::Create(std::move(spec));
  EXPECT_EQ(lat->shard_count(), 8u);

  auto big = CountSumSpec("big", 100000);
  auto lat2 = *Lat::Create(std::move(big));
  EXPECT_EQ(lat2->shard_count(), 1024u);
}

}  // namespace
}  // namespace sqlcm::cm
