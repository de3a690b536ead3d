// Unit tests for the federated monitoring plane (src/fed): delta codec,
// crash-safe spool, node export protocol (baseline / durable-epoch
// eligibility gate / Open repair), sender retry + poison quarantine, and
// the aggregator's exactly-once-effect dedup, journal and checkpoint.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fault.h"
#include "engine/session.h"
#include "fed/aggregator.h"
#include "fed/delta.h"
#include "fed/fleet_views.h"
#include "fed/node.h"
#include "fed/sender.h"
#include "fed/spool.h"
#include "sqlcm/lat.h"

namespace sqlcm::fed {
namespace {

using common::FaultKind;
using common::FaultRegistry;
using common::Row;
using common::Status;
using common::Value;
using cm::Lat;
using cm::LatAggFunc;
using cm::LatSpec;
using cm::QueryRecord;
using StateDeltaMode = cm::Lat::StateDeltaMode;

LatSpec FedSpec(const std::string& name = "FleetQ") {
  LatSpec spec;
  spec.name = name;
  spec.object_class = cm::MonitoredClass::kQuery;
  spec.group_by = {{"Logical_Signature", "Sig"}};
  spec.aggregates = {{LatAggFunc::kCount, "", "N", false},
                     {LatAggFunc::kSum, "Duration", "SumDur", false},
                     {LatAggFunc::kAvg, "Duration", "AvgDur", false},
                     {LatAggFunc::kStdev, "Duration", "SdDur", false},
                     {LatAggFunc::kMin, "Duration", "MinDur", false},
                     {LatAggFunc::kMax, "Duration", "MaxDur", false},
                     {LatAggFunc::kCount, "", "AgN", true},
                     {LatAggFunc::kSum, "Duration", "AgSum", true}};
  spec.aging_window_micros = 10'000;
  spec.aging_block_micros = 1'000;
  return spec;
}

std::unique_ptr<Lat> MakeLat(const std::string& name = "FleetQ") {
  auto lat = Lat::Create(FedSpec(name));
  EXPECT_TRUE(lat.ok()) << lat.status().ToString();
  return std::move(*lat);
}

void InsertQuery(Lat* lat, const std::string& sig, double duration,
                 int64_t now_micros) {
  QueryRecord rec;
  rec.logical_signature = sig;
  rec.text = "q:" + sig;
  rec.duration_secs = duration;
  lat->Insert(&rec, now_micros);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fed_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

class FedTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Get()->Reset(); }
  void TearDown() override { FaultRegistry::Get()->Reset(); }
};

TEST_F(FedTest, DeltaCodecRoundTripsTrickyCells) {
  Delta delta;
  delta.node_id = "node a,with%delims\n";
  delta.epoch = 42;
  delta.created_micros = 1234567;
  LatSection section;
  section.lat_name = "My Lat, eh?";
  section.records.push_back(
      {StateDeltaMode::kIncremental,
       {Value::String("sig,1 %"), Value::Int(7), Value::Double(0.1),
        Value::Double(-1e300), Value::Bool(true), Value::Null(),
        Value::String(""), Value::String("0:3:1.5:2.25:1:S1:S2;"),
        Value::Int(-9)}});
  section.records.push_back(
      {StateDeltaMode::kFresh,
       {Value::String("sig2"), Value::Int(0), Value::Double(5e-324),
        Value::Double(0.0), Value::Bool(false), Value::Null(),
        Value::String("x\ny"), Value::String(""), Value::Int(1)}});
  delta.lats.push_back(section);

  const std::string encoded = EncodeDelta(delta);
  auto decoded = DecodeDelta(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->node_id, delta.node_id);
  EXPECT_EQ(decoded->epoch, delta.epoch);
  EXPECT_EQ(decoded->created_micros, delta.created_micros);
  ASSERT_EQ(decoded->lats.size(), 1u);
  EXPECT_EQ(decoded->lats[0].lat_name, section.lat_name);
  ASSERT_EQ(decoded->lats[0].records.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    const DeltaRecord& want = section.records[r];
    const DeltaRecord& got = decoded->lats[0].records[r];
    EXPECT_EQ(got.mode, want.mode);
    ASSERT_EQ(got.cells.size(), want.cells.size());
    for (size_t c = 0; c < want.cells.size(); ++c) {
      EXPECT_EQ(got.cells[c].kind(), want.cells[c].kind()) << r << "/" << c;
      if (!want.cells[c].is_null()) {
        EXPECT_EQ(got.cells[c].Compare(want.cells[c]), 0) << r << "/" << c;
      }
    }
  }

  // Any body corruption flips the CRC and is rejected before decoding.
  std::string corrupt = encoded;
  corrupt[corrupt.size() / 2] ^= 1;
  EXPECT_TRUE(DecodeDelta(corrupt).status().IsParseError());
  // Truncation is caught by the length check.
  EXPECT_TRUE(
      DecodeDelta(encoded.substr(0, encoded.size() - 3)).status()
          .IsParseError());
}

TEST_F(FedTest, SpoolDiscardsTempfilesAndQuarantines) {
  const std::string dir = FreshDir("spool");
  {
    auto spool = DeltaSpool::Open(dir);
    ASSERT_TRUE(spool.ok()) << spool.status().ToString();
    ASSERT_TRUE((*spool)->Put(2, "epoch two").ok());
    ASSERT_TRUE((*spool)->Put(1, "epoch one").ok());
    // A crashed writer mid-publish: torn tempfile, epoch never durable.
    FaultRegistry::Get()->Arm(kFaultFedSpoolWrite,
                              {FaultKind::kCrashRename, 1.0, 1});
    EXPECT_TRUE((*spool)->Put(3, "epoch three").IsIOError());
  }
  auto spool = DeltaSpool::Open(dir);
  ASSERT_TRUE(spool.ok()) << spool.status().ToString();
  EXPECT_EQ((*spool)->List(), (std::vector<int64_t>{1, 2}));
  auto payload = (*spool)->ReadEpoch(1);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, "epoch one");
  ASSERT_TRUE((*spool)->Quarantine(2).ok());
  EXPECT_EQ((*spool)->List(), (std::vector<int64_t>{1}));
  EXPECT_EQ((*spool)->quarantined(), 1u);
  ASSERT_TRUE((*spool)->Remove(1).ok());
  ASSERT_TRUE((*spool)->Remove(1).ok());  // idempotent
  EXPECT_TRUE((*spool)->List().empty());
}

TEST_F(FedTest, NodeExportsIncrementsAndHeartbeats) {
  const std::string dir = FreshDir("node_export");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  InsertQuery(lat.get(), "a", 3.0, clock.NowMicros());

  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  auto epoch = (*node)->ExportEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 1);
  EXPECT_EQ((*node)->durable_epoch(), 1);

  auto payload = (*node)->spool()->ReadEpoch(1);
  ASSERT_TRUE(payload.ok());
  auto delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->node_id, "n1");
  ASSERT_EQ(delta->lats.size(), 1u);
  ASSERT_EQ(delta->lats[0].records.size(), 1u);

  // Nothing changed: the next epoch is a pure heartbeat.
  epoch = (*node)->ExportEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 2);
  payload = (*node)->spool()->ReadEpoch(2);
  ASSERT_TRUE(payload.ok());
  delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->lats.empty());

  // New activity ships as an incremental record whose count is the
  // increment (1 insert), not the cumulative 3.
  InsertQuery(lat.get(), "a", 5.0, clock.NowMicros());
  epoch = (*node)->ExportEpoch();
  ASSERT_TRUE(epoch.ok());
  payload = (*node)->spool()->ReadEpoch(3);
  ASSERT_TRUE(payload.ok());
  delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->lats.size(), 1u);
  ASSERT_EQ(delta->lats[0].records.size(), 1u);
  EXPECT_EQ(delta->lats[0].records[0].mode, StateDeltaMode::kIncremental);
  // Record layout: group cells, then the COUNT aggregate's #count cell.
  EXPECT_EQ(delta->lats[0].records[0].cells[1].int_value(), 1);
}

TEST_F(FedTest, ResetShipsFreshIncarnation) {
  const std::string dir = FreshDir("node_fresh");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->ExportEpoch().ok());

  // An unambiguous incarnation flip: baseline count 2, reset, 1 insert —
  // the additive count regressed, so the whole cumulative record ships.
  InsertQuery(lat.get(), "a", 1.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());  // baseline count now 2
  lat->Reset();
  InsertQuery(lat.get(), "a", 4.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  auto payload = (*node)->spool()->ReadEpoch(3);
  ASSERT_TRUE(payload.ok());
  auto delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->lats.size(), 1u);
  ASSERT_EQ(delta->lats[0].records.size(), 1u);
  EXPECT_EQ(delta->lats[0].records[0].mode, StateDeltaMode::kFresh);
  EXPECT_EQ(delta->lats[0].records[0].cells[1].int_value(), 1);
}

TEST_F(FedTest, BaselineFaultGatesEligibilityAndOpenRepairs) {
  const std::string dir = FreshDir("node_gate");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  {
    auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE((*node)->ExportEpoch().ok());
    EXPECT_EQ((*node)->durable_epoch(), 1);

    FaultRegistry::Get()->Arm(kFaultFedBaselineWrite,
                              {FaultKind::kIOError, 1.0, -1});
    InsertQuery(lat.get(), "b", 3.0, clock.NowMicros());
    auto epoch = (*node)->ExportEpoch();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, 2);
    // Published but not eligible: durable stayed behind.
    EXPECT_EQ((*node)->durable_epoch(), 1);
    EXPECT_EQ((*node)->stats().baseline_write_failures.value(), 1u);
    // "Crash" here: node destroyed with epoch 2 spooled, baseline at 1.
  }
  FaultRegistry::Get()->Reset();
  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  // Open() folded spooled epoch 2 back into the baseline and rewrote it.
  EXPECT_EQ((*node)->durable_epoch(), 2);
  EXPECT_EQ((*node)->last_exported_epoch(), 2);
  EXPECT_EQ((*node)->stats().repaired_epochs.value(), 1u);
  // The repaired baseline reflects epoch 2, so the next export ships only
  // genuinely new activity (a heartbeat here).
  auto epoch = (*node)->ExportEpoch();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(*epoch, 3);
  auto payload = (*node)->spool()->ReadEpoch(3);
  ASSERT_TRUE(payload.ok());
  auto delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->lats.empty());
}

/// Transport that fails the first `failures` deliveries with IOError, then
/// records every payload it accepts.
struct FlakyTransport : DeltaTransport {
  int failures = 0;
  std::vector<std::string> delivered;
  Status Deliver(std::string_view payload) override {
    if (failures > 0) {
      --failures;
      return Status::IOError("flaky");
    }
    delivered.emplace_back(payload);
    return Status::OK();
  }
};

TEST_F(FedTest, SenderRetriesWithBackoffAndDrains) {
  const std::string dir = FreshDir("sender_retry");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  ASSERT_TRUE((*node)->ExportEpoch().ok());

  FlakyTransport transport;
  transport.failures = 2;
  DeltaSender::Options options;
  options.clock = &clock;
  DeltaSender sender(node->get(), &transport, options);
  const int64_t before = clock.NowMicros();
  auto acked = sender.Pump();
  ASSERT_TRUE(acked.ok()) << acked.status().ToString();
  EXPECT_EQ(*acked, 2);
  EXPECT_EQ(transport.delivered.size(), 2u);
  EXPECT_EQ(sender.stats().send_retries.value(), 2u);
  EXPECT_GT(clock.NowMicros(), before);  // backoff consumed (virtual) time
  EXPECT_TRUE((*node)->spool()->List().empty());
}

TEST_F(FedTest, SenderHonoursEligibilityGate) {
  const std::string dir = FreshDir("sender_gate");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  FaultRegistry::Get()->Arm(kFaultFedBaselineWrite,
                            {FaultKind::kIOError, 1.0, -1});
  InsertQuery(lat.get(), "b", 3.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  ASSERT_EQ((*node)->durable_epoch(), 1);

  FlakyTransport transport;
  DeltaSender sender(node->get(), &transport, {.clock = &clock});
  auto acked = sender.Pump();
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(*acked, 1);  // only the durable epoch shipped
  EXPECT_EQ((*node)->spool()->List(), (std::vector<int64_t>{2}));
}

TEST_F(FedTest, SenderQuarantinesPoisonAndLosesAcks) {
  const std::string dir = FreshDir("sender_poison");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  auto node = FedNode::Open({"n1", dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->ExportEpoch().ok());

  struct PoisonTransport : DeltaTransport {
    Status Deliver(std::string_view) override {
      return Status::ParseError("bad payload");
    }
  } poison;
  DeltaSender sender(node->get(), &poison, {.clock = &clock});
  auto acked = sender.Pump();
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(*acked, 0);
  EXPECT_EQ(sender.stats().poison_quarantined.value(), 1u);
  EXPECT_TRUE((*node)->spool()->List().empty());
  EXPECT_EQ((*node)->spool()->quarantined(), 1u);

  // Lost ack: delivery succeeds, removal is skipped, epoch re-sends.
  InsertQuery(lat.get(), "b", 3.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  FlakyTransport ok_transport;
  DeltaSender sender2(node->get(), &ok_transport, {.clock = &clock});
  FaultRegistry::Get()->Arm(kFaultFedAck, {FaultKind::kIOError, 1.0, 1});
  acked = sender2.Pump();
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(*acked, 0);
  EXPECT_EQ(sender2.stats().acks_lost.value(), 1u);
  EXPECT_EQ(ok_transport.delivered.size(), 1u);
  acked = sender2.Pump();  // re-send, this time the ack lands
  ASSERT_TRUE(acked.ok());
  EXPECT_EQ(*acked, 1);
  EXPECT_EQ(ok_transport.delivered.size(), 2u);
}

std::string Heartbeat(const std::string& node_id, int64_t epoch,
                      int64_t created_micros, int64_t incarnation = 0) {
  Delta delta;
  delta.node_id = node_id;
  delta.epoch = epoch;
  delta.created_micros = created_micros;
  delta.incarnation = incarnation;
  return EncodeDelta(delta);
}

TEST_F(FedTest, DeltaCodecRoundTripsIncarnation) {
  Delta delta;
  delta.node_id = "n1";
  delta.epoch = 4;
  delta.created_micros = 99;
  delta.incarnation = 0x1234;
  auto decoded = DecodeDelta(EncodeDelta(delta));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->incarnation, 0x1234);

  // Pre-nonce payloads have no incarnation line; they decode to 0.
  std::string body = "node=n1\nepoch=4\nts=99\n";
  auto legacy = DecodeDelta(WrapChecksummed(kFedMagic, body));
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->incarnation, 0);
  EXPECT_EQ(legacy->epoch, 4);
}

TEST_F(FedTest, SameCountResetShipsFreshViaGeneration) {
  // The blind spot: Reset, then re-accumulate to a state byte-identical to
  // the shipped baseline. Count arithmetic sees "no change"; the reset
  // generation snapshot forces a full mode-F ship so the new incarnation's
  // observations still count fleet-wide.
  const std::string node_dir = FreshDir("same_count_node");
  const std::string agg_dir = FreshDir("same_count_agg");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  auto fleet = MakeLat();
  auto node = FedNode::Open({"n1", node_dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_NE((*node)->incarnation(), 0);
  auto agg = FleetAggregator::Open({.dir = agg_dir, .clock = &clock},
                                   {fleet.get()});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();

  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  InsertQuery(lat.get(), "a", 3.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  auto payload = (*node)->spool()->ReadEpoch(1);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE((*agg)->Ingest(*payload).ok());

  // Reset and replay the identical inserts at the identical clock.
  lat->Reset();
  InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
  InsertQuery(lat.get(), "a", 3.0, clock.NowMicros());
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  payload = (*node)->spool()->ReadEpoch(2);
  ASSERT_TRUE(payload.ok());
  auto delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->incarnation, (*node)->incarnation());
  ASSERT_EQ(delta->lats.size(), 1u);
  ASSERT_EQ(delta->lats[0].records.size(), 1u);
  EXPECT_EQ(delta->lats[0].records[0].mode, StateDeltaMode::kFresh);
  EXPECT_EQ(delta->lats[0].records[0].cells[1].int_value(), 2);
  ASSERT_TRUE((*agg)->Ingest(*payload).ok());

  // Both incarnations' observations are in the fleet rollup: N = 4.
  Row fleet_row;
  ASSERT_TRUE(fleet->LookupByKey({Value::String("a")}, clock.NowMicros(),
                                 &fleet_row));
  EXPECT_EQ(fleet_row[1].int_value(), 4);

  // Identical state, no reset: the next epoch is a pure heartbeat again
  // (the generation snapshot advanced with the export, so mode-F forcing
  // does not stick).
  ASSERT_TRUE((*node)->ExportEpoch().ok());
  payload = (*node)->spool()->ReadEpoch(3);
  ASSERT_TRUE(payload.ok());
  delta = DecodeDelta(*payload);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->lats.empty());
}

TEST_F(FedTest, AggregatorCountsIncarnationRestarts) {
  const std::string dir = FreshDir("agg_restarts");
  common::MockClock clock(1000);
  auto agg = FleetAggregator::Open({.dir = dir, .clock = &clock}, {});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  const int64_t now = clock.NowMicros();
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 1, now, 5)).ok());
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 2, now, 5)).ok());
  EXPECT_EQ((*agg)->SnapshotNodes()[0].restarts, 0u);
  // New nonce = the node restarted, even though epochs keep climbing.
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 3, now, 9)).ok());
  EXPECT_EQ((*agg)->SnapshotNodes()[0].restarts, 1u);
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 4, now, 9)).ok());
  // Legacy senders (nonce 0) never trip the detector.
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 5, now)).ok());
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 6, now, 9)).ok());
  EXPECT_EQ((*agg)->SnapshotNodes()[0].restarts, 1u);
  EXPECT_EQ((*agg)->stats().node_restarts.value(), 1u);

  // The detector state survives checkpoint + restart: nonce 9 is
  // remembered, so re-seeing it counts nothing and a new nonce counts one.
  ASSERT_TRUE((*agg)->Checkpoint().ok());
  auto agg2 = FleetAggregator::Open({.dir = dir, .clock = &clock}, {});
  ASSERT_TRUE(agg2.ok()) << agg2.status().ToString();
  EXPECT_EQ((*agg2)->SnapshotNodes()[0].restarts, 1u);
  ASSERT_TRUE((*agg2)->Ingest(Heartbeat("n1", 7, now, 9)).ok());
  EXPECT_EQ((*agg2)->SnapshotNodes()[0].restarts, 1u);
  ASSERT_TRUE((*agg2)->Ingest(Heartbeat("n1", 8, now, 11)).ok());
  EXPECT_EQ((*agg2)->SnapshotNodes()[0].restarts, 2u);
}

TEST_F(FedTest, AggregatorDedupsReordersAndDropsLate) {
  const std::string dir = FreshDir("agg_dedup");
  common::MockClock clock(1'000'000);
  FleetAggregator::Options options;
  options.dir = dir;
  options.clock = &clock;
  options.late_window_micros = 500'000;
  auto agg = FleetAggregator::Open(options, {});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();

  const int64_t now = clock.NowMicros();
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 1, now)).ok());
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 3, now)).ok());  // reorder gap
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 1, now)).ok());  // duplicate
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 2, now)).ok());  // fills gap
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 3, now)).ok());  // duplicate
  // Late: created long before the window.
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 5, now - 600'000)).ok());
  // Re-sending the late epoch is a duplicate, not a second drop.
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 5, now - 600'000)).ok());

  auto nodes = (*agg)->SnapshotNodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0].node_id, "n1");
  EXPECT_EQ(nodes[0].hwm, 3);  // 1,2,3 contiguous; 5 applied above
  EXPECT_EQ(nodes[0].last_epoch, 5);
  EXPECT_EQ(nodes[0].applied, 3u);
  EXPECT_EQ(nodes[0].duplicates, 3u);
  EXPECT_EQ(nodes[0].reorders, 1u);  // epoch 2 arrived after 3
  EXPECT_EQ(nodes[0].late_dropped, 1u);
  EXPECT_EQ(nodes[0].state, std::string("up"));

  // Decode failures are counted and surfaced as permanent errors.
  EXPECT_TRUE((*agg)->Ingest("not a delta").IsParseError());
  EXPECT_EQ((*agg)->stats().decode_failures.value(), 1u);

  // Health decays with heartbeat age.
  clock.Advance(options.stale_after_micros + 1);
  EXPECT_EQ((*agg)->SnapshotNodes()[0].state, std::string("stale"));
  clock.Advance(options.dead_after_micros);
  EXPECT_EQ((*agg)->SnapshotNodes()[0].state, std::string("dead"));
}

TEST_F(FedTest, AggregatorJournalAndCheckpointSurviveRestart) {
  const std::string node_dir = FreshDir("agg_restart_node");
  const std::string agg_dir = FreshDir("agg_restart_agg");
  common::MockClock clock(1000);
  auto lat = MakeLat();
  auto node = FedNode::Open({"n1", node_dir, &clock, nullptr}, {lat.get()});
  ASSERT_TRUE(node.ok());

  auto expect_fleet_matches = [&](FleetAggregator* agg, Lat* fleet) {
    auto stats = agg->SnapshotLats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].lat, "FleetQ");
    const int64_t now = clock.NowMicros();
    for (const char* sig : {"a", "b"}) {
      Row want, got;
      const bool in_src = lat->LookupByKey({Value::String(sig)}, now, &want);
      const bool in_fleet =
          fleet->LookupByKey({Value::String(sig)}, now, &got);
      ASSERT_EQ(in_src, in_fleet) << sig;
      if (!in_src) continue;
      ASSERT_EQ(got.size(), want.size());
      for (size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(got[c].ToString(), want[c].ToString())
            << sig << " column " << fleet->column_names()[c];
      }
    }
  };

  auto fleet1 = MakeLat();
  {
    auto agg = FleetAggregator::Open({.dir = agg_dir, .clock = &clock},
                                     {fleet1.get()});
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    DeltaSender sender(node->get(), agg->get(), {.clock = &clock});
    InsertQuery(lat.get(), "a", 2.0, clock.NowMicros());
    InsertQuery(lat.get(), "b", 8.0, clock.NowMicros());
    ASSERT_TRUE((*node)->ExportEpoch().ok());
    ASSERT_TRUE(sender.Pump().ok());
    ASSERT_TRUE((*agg)->Checkpoint().ok());
    InsertQuery(lat.get(), "a", 5.0, clock.NowMicros());
    ASSERT_TRUE((*node)->ExportEpoch().ok());
    ASSERT_TRUE(sender.Pump().ok());  // journaled after the checkpoint
    expect_fleet_matches(agg->get(), fleet1.get());
    // Aggregator "crashes" here: no second checkpoint.
  }
  auto fleet2 = MakeLat();
  auto agg = FleetAggregator::Open({.dir = agg_dir, .clock = &clock},
                                   {fleet2.get()});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  expect_fleet_matches(agg->get(), fleet2.get());
  auto nodes = (*agg)->SnapshotNodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0].hwm, 2);
  // A post-restart re-send of either epoch is a pure no-op.
  auto payload = Heartbeat("n1", 2, clock.NowMicros());
  ASSERT_TRUE((*agg)->Ingest(payload).ok());
  EXPECT_EQ((*agg)->SnapshotNodes()[0].duplicates, 1u);
  expect_fleet_matches(agg->get(), fleet2.get());
}

TEST_F(FedTest, IngestFaultIsRetryableWithNoEffect) {
  const std::string dir = FreshDir("agg_fault");
  common::MockClock clock(1000);
  auto fleet = MakeLat();
  auto agg = FleetAggregator::Open({.dir = dir, .clock = &clock},
                                   {fleet.get()});
  ASSERT_TRUE(agg.ok());
  FaultRegistry::Get()->Arm(kFaultFedIngest, {FaultKind::kIOError, 1.0, 1});
  const std::string payload = Heartbeat("n1", 1, clock.NowMicros());
  EXPECT_TRUE((*agg)->Ingest(payload).IsIOError());
  EXPECT_TRUE((*agg)->SnapshotNodes().empty());  // no effect
  ASSERT_TRUE((*agg)->Ingest(payload).ok());     // retry succeeds
  EXPECT_EQ((*agg)->SnapshotNodes().size(), 1u);
}

TEST_F(FedTest, FleetViewsAnswerSql) {
  const std::string dir = FreshDir("fleet_views");
  common::MockClock clock(1000);
  auto fleet = MakeLat();
  auto agg = FleetAggregator::Open({.dir = dir, .clock = &clock},
                                   {fleet.get()});
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n1", 1, clock.NowMicros())).ok());
  ASSERT_TRUE((*agg)->Ingest(Heartbeat("n2", 1, clock.NowMicros())).ok());

  engine::Database db;
  FleetViews views(agg->get(), &db);
  auto session = db.CreateSession();
  auto nodes = session->Execute("SELECT node_id, state, hwm FROM "
                                "sqlcm_fleet_nodes ORDER BY node_id");
  ASSERT_TRUE(nodes.ok()) << nodes.status();
  ASSERT_EQ(nodes->rows.size(), 2u);
  EXPECT_EQ(nodes->rows[0][0].string_value(), "n1");
  EXPECT_EQ(nodes->rows[0][1].string_value(), "up");
  EXPECT_EQ(nodes->rows[0][2].int_value(), 1);
  auto stats = session->Execute("SELECT lat, rows FROM sqlcm_fleet_stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->rows.size(), 1u);
  EXPECT_EQ(stats->rows[0][0].string_value(), "FleetQ");
}

}  // namespace
}  // namespace sqlcm::fed
