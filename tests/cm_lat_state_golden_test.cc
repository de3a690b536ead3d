// Golden pins for the LAT raw-state codec.
//
// CheckpointLat files (snapshot v2, and v3 when sketch cells are present)
// and federation delta payloads are read back by later builds, so their
// bytes are a format. These tests rebuild one fixed LAT state and compare
// the checkpoint files and the encoded delta with literal copies written by
// an earlier build; round-trip tests alone would still pass if the encoding
// changed on both sides at once. The literals must also restore: a snapshot
// written by an older build loads into this one and re-checkpoints to the
// same bytes.
//
// The state covers an aging-block list, %-escaped tagged strings holding
// the codec's own delimiters, CSV metacharacters in the group key, a
// QUANTILE sketch cell and a DISTINCT (HLL) sketch cell.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/database.h"
#include "fed/delta.h"
#include "sqlcm/lat.h"
#include "sqlcm/monitor_engine.h"

namespace sqlcm::cm {
namespace {

using common::Row;
using common::Value;

constexpr char kGoldenV2File[] =
    "#sqlcm-snapshot v=2 crc=82818ff3 len=926\n"
    "Sig,N#count,N#sum,N#sumsq,N#any,N#min,N#max,N#first,N#last,N#block"
    "s,Sd#count,Sd#sum,Sd#sumsq,Sd#any,Sd#min,Sd#max,Sd#first,Sd#last,S"
    "d#blocks,LastText#count,LastText#sum,LastText#sumsq,LastText#any,L"
    "astText#min,LastText#max,LastText#first,LastText#last,LastText#blo"
    "cks,AgSum#count,AgSum#sum,AgSum#sumsq,AgSum#any,AgSum#min,AgSum#ma"
    "x,AgSum#first,AgSum#last,AgSum#blocks,AgMaxText#count,AgMaxText#su"
    "m,AgMaxText#sumsq,AgMaxText#any,AgMaxText#min,AgMaxText#max,AgMaxT"
    "ext#first,AgMaxText#last,AgMaxText#blocks,persist_ts\n"
    "\"sig,\"\"1\"\":a;b%c\",4,4,4,TRUE,I1,I1,I1,I1,,4,1e+100,1e+200,TRUE,D-0"
    ".125,D1e+100,D0.25,D1e+100,,4,0,0,TRUE,S100%25%3Bdone,\"Sx,\"\"y\"\"\",S"
    "a%3Ab%3Bc%25d,Splain,,0,0,0,FALSE,N,N,N,N,0:1:0.25:0.0625:1:D0.25:"
    "D0.25;1000:2:2.375:6.265625:1:D-0.125:D2.5;3000:1:1e+100:1e+200:1:"
    "D1e+100:D1e+100,0,0,0,FALSE,N,N,N,N,\"0:1:0:0:1:Sa%3Ab%3Bc%25d:Sa%3"
    "Ab%3Bc%25d;1000:2:0:0:1:S100%25%3Bdone:Sx,\"\"y\"\";3000:1:0:0:1:Splai"
    "n:Splain\",3300\n";

constexpr char kGoldenV3File[] =
    "#sqlcm-snapshot v=3 crc=32d836a0 len=449\n"
    "Sig,N#count,N#sum,N#sumsq,N#any,N#min,N#max,N#first,N#last,N#block"
    "s,P50#count,P50#sum,P50#sumsq,P50#any,P50#min,P50#max,P50#first,P5"
    "0#last,P50#blocks,P50#sketch,DText#count,DText#sum,DText#sumsq,DTe"
    "xt#any,DText#min,DText#max,DText#first,DText#last,DText#blocks,DTe"
    "xt#sketch,persist_ts\n"
    "\"sig,\"\"1\"\":a;b%c\",4,4,4,TRUE,I1,I1,I1,I1,,4,0,0,FALSE,N,N,N,N,,Q1 "
    "0 0 1 3 -103:1 -69:1 46:1 11513:1,4,0,0,FALSE,N,N,N,N,,H1 4 000100"
    "00020200000000010000000000,3300\n";

constexpr char kGoldenDelta[] =
    "#sqlcm-fed v=1 crc=64b06e66 len=745\n"
    "node=golden\n"
    "epoch=1\n"
    "ts=3300\n"
    "incarnation=7\n"
    "lat=Golden2 records=1\n"
    "F,Ssig%2C\"1\":a;b%25c,I4,D4,D4,B1,SI1,SI1,SI1,SI1,S,I4,D1e+100,D1e+"
    "200,B1,SD-0.125,SD1e+100,SD0.25,SD1e+100,S,I4,D0,D0,B1,SS100%2525%"
    "253Bdone,SSx%2C\"y\",SSa%253Ab%253Bc%2525d,SSplain,S,I0,D0,D0,B0,SN,"
    "SN,SN,SN,S0:1:0.25:0.0625:1:D0.25:D0.25;1000:2:2.375:6.265625:1:D-"
    "0.125:D2.5;3000:1:1e+100:1e+200:1:D1e+100:D1e+100,I0,D0,D0,B0,SN,S"
    "N,SN,SN,S0:1:0:0:1:Sa%253Ab%253Bc%2525d:Sa%253Ab%253Bc%2525d;1000:"
    "2:0:0:1:S100%2525%253Bdone:Sx%2C\"y\";3000:1:0:0:1:Splain:Splain\n"
    "lat=Golden3 records=1\n"
    "F,Ssig%2C\"1\":a;b%25c,I4,D4,D4,B1,SI1,SI1,SI1,SI1,S,I4,D0,D0,B0,SN,"
    "SN,SN,SN,S,SQ1%200%200%201%203%20-103:1%20-69:1%2046:1%2011513:1,I"
    "4,D0,D0,B0,SN,SN,SN,SN,S,SH1%204%200001000002020000000001000000000"
    "0\n";

/// v2: classic moments, tagged strings and aging blocks (t = 4Δ).
LatSpec GoldenV2Spec() {
  LatSpec spec;
  spec.name = "Golden2";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kStdev, "Duration", "Sd", false},
                     {LatAggFunc::kLast, "Query_Text", "LastText", false},
                     {LatAggFunc::kSum, "Duration", "AgSum", true},
                     {LatAggFunc::kMax, "Query_Text", "AgMaxText", true}};
  spec.aging_window_micros = 4000;
  spec.aging_block_micros = 1000;
  spec.shard_count = 1;
  return spec;
}

/// v3: sketch cells (a 16-register HLL keeps the literal short).
LatSpec GoldenV3Spec() {
  LatSpec spec;
  spec.name = "Golden3";
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kQuantile, "Duration", "P50", false, 0.5},
                     {LatAggFunc::kDistinct, "Query_Text", "DText", false}};
  spec.shard_count = 1;
  spec.distinct_precision = 4;
  return spec;
}

constexpr int64_t kCheckpointMicros = 3300;

/// A monitor with both golden LATs defined on a mock clock that reads
/// kCheckpointMicros (the persist_ts every checkpoint row carries).
struct GoldenMonitor {
  static engine::Database::Options DbOptions(common::Clock* clock) {
    engine::Database::Options options;
    options.clock = clock;
    return options;
  }

  GoldenMonitor() : db(DbOptions(&clock)), monitor(&db) {
    EXPECT_TRUE(monitor.DefineLat(GoldenV2Spec()).ok());
    EXPECT_TRUE(monitor.DefineLat(GoldenV3Spec()).ok());
    clock.Advance(kCheckpointMicros);
  }

  /// The fixed state: four probes of one group across three aging blocks.
  void Fill() {
    struct Probe {
      int64_t now_micros;
      double duration;
      const char* text;
    };
    const Probe probes[] = {{500, 0.25, "a:b;c%d"},
                            {1700, 2.5, "x,\"y\""},
                            {1900, -0.125, "100%;done"},
                            {3200, 1e100, "plain"}};
    for (const Probe& p : probes) {
      QueryRecord q;
      q.logical_signature = "sig,\"1\":a;b%c";
      q.duration_secs = p.duration;
      q.text = p.text;
      monitor.FindLat("Golden2")->Insert(&q, p.now_micros);
      monitor.FindLat("Golden3")->Insert(&q, p.now_micros);
    }
  }

  common::MockClock clock{0};
  engine::Database db;
  MonitorEngine monitor;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class LatStateGoldenTest : public ::testing::Test {
 protected:
  std::string PathFor(const std::string& lat) {
    const std::string path =
        ::testing::TempDir() + "/lat_state_golden_" + lat + ".snap";
    std::remove(path.c_str());
    std::remove((path + ".bak").c_str());
    return path;
  }
};

TEST_F(LatStateGoldenTest, CheckpointFilesMatchGolden) {
  GoldenMonitor node;
  node.Fill();
  const std::string v2 = PathFor("v2");
  const std::string v3 = PathFor("v3");
  ASSERT_TRUE(node.monitor.CheckpointLat("Golden2", v2).ok());
  ASSERT_TRUE(node.monitor.CheckpointLat("Golden3", v3).ok());
  EXPECT_EQ(ReadFile(v2), kGoldenV2File);
  EXPECT_EQ(ReadFile(v3), kGoldenV3File);
}

// Spot checks on the exported records themselves, so a failure names the
// codec cell that moved.
TEST_F(LatStateGoldenTest, ExportedRecordsPinCodecCells) {
  GoldenMonitor node;
  node.Fill();
  Lat* v2 = node.monitor.FindLat("Golden2");
  const std::vector<std::string> names = v2->StateColumnNames();
  const std::vector<Row> records = v2->ExportState();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].size(), names.size());
  const auto cell = [&](const std::string& name) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return records[0][i].string_value();
    }
    return std::string("<missing>");
  };
  EXPECT_EQ(cell("Sig"), "sig,\"1\":a;b%c");
  EXPECT_EQ(cell("LastText#min"), "S100%25%3Bdone");
  EXPECT_EQ(cell("LastText#first"), "Sa%3Ab%3Bc%25d");
  EXPECT_EQ(cell("AgSum#blocks"),
            "0:1:0.25:0.0625:1:D0.25:D0.25;"
            "1000:2:2.375:6.265625:1:D-0.125:D2.5;"
            "3000:1:1e+100:1e+200:1:D1e+100:D1e+100");

  Lat* v3 = node.monitor.FindLat("Golden3");
  const std::vector<std::string> names3 = v3->StateColumnNames();
  const std::vector<Row> records3 = v3->ExportState();
  ASSERT_EQ(records3.size(), 1u);
  ASSERT_EQ(names3[19], "P50#sketch");
  EXPECT_EQ(records3[0][19].string_value(),
            "Q1 0 0 1 3 -103:1 -69:1 46:1 11513:1");
  ASSERT_EQ(names3[29], "DText#sketch");
  EXPECT_EQ(records3[0][29].string_value(),
            "H1 4 00010000020200000000010000000000");
}

TEST_F(LatStateGoldenTest, FreshDeltaPayloadMatchesGolden) {
  GoldenMonitor node;
  node.Fill();
  fed::Delta delta;
  delta.node_id = "golden";
  delta.epoch = 1;
  delta.created_micros = kCheckpointMicros;
  delta.incarnation = 7;
  for (const char* name : {"Golden2", "Golden3"}) {
    Lat* lat = node.monitor.FindLat(name);
    fed::LatSection section;
    section.lat_name = name;
    for (const Row& record : lat->ExportState()) {
      Row diffed;
      auto mode = lat->DiffStateRecord(record, nullptr, &diffed);
      ASSERT_TRUE(mode.ok()) << mode.status().ToString();
      ASSERT_EQ(*mode, Lat::StateDeltaMode::kFresh);
      section.records.push_back({*mode, std::move(diffed)});
    }
    delta.lats.push_back(std::move(section));
  }
  EXPECT_EQ(fed::EncodeDelta(delta), kGoldenDelta);
}

// Snapshots written by an earlier build restore losslessly: the restored
// LATs answer like the originals and checkpoint back to the same bytes.
TEST_F(LatStateGoldenTest, GoldenSnapshotsRestoreAndRecheckpoint) {
  GoldenMonitor original;
  original.Fill();
  GoldenMonitor restored;
  for (const auto& [name, golden] :
       {std::pair<const char*, const char*>{"Golden2", kGoldenV2File},
        std::pair<const char*, const char*>{"Golden3", kGoldenV3File}}) {
    const std::string in = PathFor(std::string(name) + "_in");
    std::ofstream(in, std::ios::binary) << golden;
    ASSERT_TRUE(restored.monitor.RestoreLat(name, in).ok()) << name;

    const Row key = {Value::String("sig,\"1\":a;b%c")};
    Row want, got;
    ASSERT_TRUE(original.monitor.FindLat(name)->LookupByKey(
        key, kCheckpointMicros, &want));
    ASSERT_TRUE(restored.monitor.FindLat(name)->LookupByKey(
        key, kCheckpointMicros, &got));
    ASSERT_EQ(got.size(), want.size());
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].ToString(), want[c].ToString()) << name << " col " << c;
    }

    const std::string out = PathFor(std::string(name) + "_out");
    ASSERT_TRUE(restored.monitor.CheckpointLat(name, out).ok());
    EXPECT_EQ(ReadFile(out), golden) << name;
  }
}

}  // namespace
}  // namespace sqlcm::cm
