// Bounded multi-producer event-trace ring for the monitor engine: one
// fixed-size record per dispatched event, on the shared stamped-ring
// protocol (stamped_ring.h). The qualifier is stored truncated to
// kMaxQualifierBytes, plus the hash of the full text.
#ifndef SQLCM_OBS_TRACE_RING_H_
#define SQLCM_OBS_TRACE_RING_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/stamped_ring.h"

namespace sqlcm::obs {

struct TraceEvent {
  uint64_t seq = 0;           // global event index (0-based)
  int64_t ts_micros = 0;      // event timestamp
  uint8_t kind = 0;           // sqlcm::cm::EventKind, stored untyped
  std::string qualifier;      // truncated to kMaxQualifierBytes
  uint64_t qualifier_hash = 0;  // FNV-1a of the *full* qualifier
  uint32_t rules_fired = 0;   // rules whose actions ran for this event
  int64_t dispatch_micros = 0;  // wall time spent dispatching the event
};

class TraceRing {
 public:
  static constexpr size_t kMaxQualifierBytes = 24;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(size_t capacity = 1024) : ring_(capacity) {}

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// No-op when disabled. Lock-free, wait-free apart from the stamp CAS.
  void Record(uint8_t kind, std::string_view qualifier, uint32_t rules_fired,
              int64_t ts_micros, int64_t dispatch_micros);

  /// The most recent min(capacity, total recorded) events, oldest first.
  /// Slots mid-write or reclaimed by a concurrent lap are skipped.
  std::vector<TraceEvent> Snapshot() const;

  uint64_t total_recorded() const { return ring_.total_recorded(); }
  /// Slots a Snapshot() had to discard because a concurrent writer touched
  /// them mid-read (torn) or still owned them (mid-write). Cumulative across
  /// all snapshots; surfaced in sqlcm_engine_stats so a reader can tell how
  /// lossy its view of a busy ring is.
  uint64_t snapshot_drops() const { return ring_.snapshot_drops(); }
  size_t capacity() const { return ring_.capacity(); }

 private:
  // Words: ts, dispatch, qualifier hash, rules_fired|kind<<32|len<<40,
  // then the truncated qualifier bytes.
  StampedRing<7> ring_;
  std::atomic<bool> enabled_{false};
};

}  // namespace sqlcm::obs

#endif  // SQLCM_OBS_TRACE_RING_H_
