#include "fed/node.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault.h"
#include "common/string_util.h"
#include "fed/delta.h"
#include "storage/table_io.h"

namespace sqlcm::fed {

using common::Result;
using common::Row;
using common::Status;
using StateDeltaMode = cm::Lat::StateDeltaMode;

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IOError("mkdir('" + dir + "'): " + std::strerror(errno));
}

Row GroupKeyOf(const Row& record, size_t group_width) {
  return Row(record.begin(), record.begin() + static_cast<long>(group_width));
}

/// Nonzero nonce distinct across in-process re-Opens (the counter) and
/// across process restarts (the wall micros). 0 is reserved for "unknown"
/// on the wire, so legacy deltas stay distinguishable.
int64_t DeriveIncarnation(common::Clock* clock) {
  static std::atomic<int64_t> g_open_seq{0};
  const int64_t seq = g_open_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const int64_t nonce =
      (clock->NowMicros() << 16) ^ seq;  // wraparound is fine for a nonce
  return nonce != 0 ? nonce : 1;
}

}  // namespace

FedNode::FedNode(Options options, std::vector<cm::Lat*> lats)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : common::SystemClock::Get()) {
  lats_.reserve(lats.size());
  for (cm::Lat* lat : lats) {
    lats_.push_back({lat, {}, lat->reset_generation()});
  }
}

Result<std::unique_ptr<FedNode>> FedNode::Open(Options options,
                                               std::vector<cm::Lat*> lats) {
  if (options.node_id.empty()) {
    return Status::InvalidArgument("federation node needs a node_id");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("federation node needs a directory");
  }
  auto node = std::unique_ptr<FedNode>(
      new FedNode(std::move(options), std::move(lats)));
  node->incarnation_ = node->options_.incarnation != 0
                           ? node->options_.incarnation
                           : DeriveIncarnation(node->clock_);
  SQLCM_RETURN_IF_ERROR(EnsureDir(node->options_.dir));
  SQLCM_ASSIGN_OR_RETURN(node->spool_,
                         DeltaSpool::Open(node->options_.dir + "/spool"));
  SQLCM_RETURN_IF_ERROR(node->LoadBaseline());
  SQLCM_RETURN_IF_ERROR(node->RepairFromSpool());
  return node;
}

Status FedNode::LoadBaseline() {
  std::ifstream in(baseline_path(), std::ios::binary);
  if (!in.is_open()) return Status::OK();  // first boot: empty baseline
  std::ostringstream content;
  content << in.rdbuf();
  if (in.bad()) {
    return Status::IOError("read('" + baseline_path() + "') failed");
  }
  SQLCM_ASSIGN_OR_RETURN(const Delta baseline, DecodeDelta(content.str()));
  for (const LatSection& section : baseline.lats) {
    for (AttachedLat& attached : lats_) {
      if (attached.lat->name() != section.lat_name) continue;
      const size_t group_width = attached.lat->group_width();
      for (const DeltaRecord& record : section.records) {
        attached.baseline[GroupKeyOf(record.cells, group_width)] =
            record.cells;
      }
      break;
    }
  }
  last_exported_epoch_ = baseline.epoch;
  durable_epoch_.store(baseline.epoch, std::memory_order_release);
  return Status::OK();
}

Status FedNode::RepairFromSpool() {
  const int64_t durable = durable_epoch_.load(std::memory_order_acquire);
  int64_t max_epoch = last_exported_epoch_;
  for (const int64_t epoch : spool_->List()) {
    max_epoch = std::max(max_epoch, epoch);
    if (epoch <= durable) continue;  // already reflected in the baseline
    // Published after the last baseline write: fold it back in so future
    // diffs do not re-ship its increments once it is sent and acked.
    auto payload = spool_->ReadEpoch(epoch);
    Result<Delta> delta =
        payload.ok() ? DecodeDelta(*payload)
                     : Result<Delta>(payload.status());
    if (!delta.ok()) {
      // Unreadable published epoch: its data is lost either way, but the
      // node must not keep trying to send it. Quarantine and move on (the
      // baseline then simply re-ships whatever of its data still lives in
      // the LAT with a later epoch).
      (void)spool_->Quarantine(epoch);
      continue;
    }
    for (const LatSection& section : delta->lats) {
      for (AttachedLat& attached : lats_) {
        if (attached.lat->name() != section.lat_name) continue;
        const size_t group_width = attached.lat->group_width();
        for (const DeltaRecord& record : section.records) {
          Row key = GroupKeyOf(record.cells, group_width);
          auto base = attached.baseline.find(key);
          if (record.mode == StateDeltaMode::kFresh ||
              base == attached.baseline.end()) {
            // Fresh records replace; an incremental record without a
            // baseline row means the group was new this epoch (its diff is
            // the whole record), so adopting it verbatim is the combine.
            attached.baseline[std::move(key)] = record.cells;
            continue;
          }
          SQLCM_ASSIGN_OR_RETURN(
              Row combined,
              attached.lat->CombineStateRecords(base->second, record.cells,
                                                record.mode));
          base->second = std::move(combined);
        }
        break;
      }
    }
    stats_.repaired_epochs.Inc();
  }
  last_exported_epoch_ = max_epoch;
  if (max_epoch > durable) {
    // Best effort: a failed rewrite keeps the repaired epochs ineligible
    // until the next successful baseline write (every ExportEpoch retries).
    if (!WriteBaseline().ok()) stats_.baseline_write_failures.Inc();
  }
  return Status::OK();
}

Status FedNode::WriteBaseline() {
  if (common::FaultFires(kFaultFedBaselineWrite)) {
    return Status::IOError("fault injected: baseline write for node " +
                           options_.node_id);
  }
  Delta baseline;
  baseline.node_id = options_.node_id;
  baseline.epoch = last_exported_epoch_;
  baseline.created_micros = clock_->NowMicros();
  baseline.incarnation = incarnation_;
  for (const AttachedLat& attached : lats_) {
    if (attached.baseline.empty()) continue;
    LatSection section;
    section.lat_name = attached.lat->name();
    section.records.reserve(attached.baseline.size());
    for (const auto& [_, record] : attached.baseline) {
      section.records.push_back({StateDeltaMode::kFresh, record});
    }
    baseline.lats.push_back(std::move(section));
  }
  SQLCM_RETURN_IF_ERROR(
      storage::WriteFileAtomic(baseline_path(), EncodeDelta(baseline)));
  durable_epoch_.store(last_exported_epoch_, std::memory_order_release);
  return Status::OK();
}

Result<int64_t> FedNode::ExportEpoch() {
  const int64_t start_micros = clock_->NowMicros();
  const int64_t epoch = last_exported_epoch_ + 1;
  Delta delta;
  delta.node_id = options_.node_id;
  delta.epoch = epoch;
  delta.created_micros = start_micros;
  delta.incarnation = incarnation_;
  std::vector<BaselineMap> next_baselines(lats_.size());
  std::vector<uint64_t> next_generations(lats_.size());
  uint64_t shipped = 0;
  for (size_t i = 0; i < lats_.size(); ++i) {
    cm::Lat* lat = lats_[i].lat;
    // A Reset since the last export invalidates the baseline: a diff
    // against it would under-ship (or ship nothing when the new counts
    // happen to match), so every group goes out mode-F this epoch.
    next_generations[i] = lat->reset_generation();
    const bool force_fresh =
        next_generations[i] != lats_[i].reset_generation;
    LatSection section;
    section.lat_name = lat->name();
    for (Row& record : lat->ExportState()) {
      Row key = GroupKeyOf(record, lat->group_width());
      const auto base = force_fresh ? lats_[i].baseline.end()
                                    : lats_[i].baseline.find(key);
      Row diffed;
      SQLCM_ASSIGN_OR_RETURN(
          const StateDeltaMode mode,
          lat->DiffStateRecord(
              record,
              base != lats_[i].baseline.end() ? &base->second : nullptr,
              &diffed));
      if (mode != StateDeltaMode::kNone) {
        section.records.push_back({mode, std::move(diffed)});
        ++shipped;
      }
      next_baselines[i][std::move(key)] = std::move(record);
    }
    if (!section.records.empty()) delta.lats.push_back(std::move(section));
  }
  // Publish first: a failure here consumes no epoch number and leaves the
  // baseline untouched, so the caller can simply try again later.
  SQLCM_RETURN_IF_ERROR(spool_->Put(epoch, EncodeDelta(delta)));
  for (size_t i = 0; i < lats_.size(); ++i) {
    lats_[i].baseline = std::move(next_baselines[i]);
    lats_[i].reset_generation = next_generations[i];
  }
  last_exported_epoch_ = epoch;
  stats_.epochs_exported.Inc();
  stats_.records_shipped.Inc(shipped);
  if (!WriteBaseline().ok()) {
    // The epoch is published but not yet eligible to send; the next
    // successful baseline write (or Open() repair after a crash) frees it.
    stats_.baseline_write_failures.Inc();
  }
  const int64_t end_micros = clock_->NowMicros();
  stats_.export_micros.Record(end_micros - start_micros);
  if (options_.spans != nullptr && options_.spans->enabled()) {
    obs::Span span;
    span.span_id = span_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    span.ref = common::Fnv1a64(options_.node_id);
    span.start_nanos = start_micros * 1000;
    span.duration_nanos = (end_micros - start_micros) * 1000;
    span.kind = obs::SpanKind::kShip;
    span.detail = static_cast<uint8_t>(delta.lats.size());
    options_.spans->Record(span);
  }
  return epoch;
}

void FedNode::RegisterMetrics(obs::MetricsRegistry* registry) const {
  const std::string base = "fed.node." + options_.node_id + ".";
  registry->RegisterCounter(base + "epochs_exported",
                            &stats_.epochs_exported);
  registry->RegisterCounter(base + "records_shipped",
                            &stats_.records_shipped);
  registry->RegisterCounter(base + "baseline_write_failures",
                            &stats_.baseline_write_failures);
  registry->RegisterCounter(base + "repaired_epochs",
                            &stats_.repaired_epochs);
  registry->RegisterHistogram(base + "export", &stats_.export_micros);
}

}  // namespace sqlcm::fed
