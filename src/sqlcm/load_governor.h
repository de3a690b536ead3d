// Graceful degradation under overload (robustness layer).
//
// The paper's premise is that monitoring must be cheap enough to leave on
// in production (§1: "the overhead ... is low enough"). The LoadGovernor
// enforces that promise at runtime: it watches the fraction of wall-clock
// time spent inside monitor hooks over a sliding window, and when the
// fraction exceeds the configured budget it walks down a shed ladder, each
// level giving up a little fidelity to win back overhead:
//
//   level 0  full fidelity
//   level 1  detailed per-action timing off (saves clock reads)
//   level 2  span plane off (sqlcm_trace_spans and sqlcm_event_trace)
//   level 3  LAT aging-block pruning deferred (expired blocks accumulate
//            up to a cap, then merge; reads stay exact)
//   level 4  rule evaluation sampled 1-in-2^sample_shift events
//
// When the measured overhead drops back below budget * recover_ratio the
// governor climbs back up one level per window (hysteresis prevents
// flapping). Levels and shed counts are visible in sqlcm_engine_stats; see
// docs/ROBUSTNESS.md.
#ifndef SQLCM_SQLCM_LOAD_GOVERNOR_H_
#define SQLCM_SQLCM_LOAD_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

namespace sqlcm::cm {

class LoadGovernor {
 public:
  struct Options {
    /// Target ceiling for (hook time / wall time). 0 disables governing.
    double overhead_budget = 0.05;
    /// Recover (drop a level) when overhead < budget * recover_ratio.
    double recover_ratio = 0.5;
    /// Sliding-window length for the overhead estimate.
    int64_t window_micros = 100'000;
    /// Windows with fewer hook samples than this are not judged.
    int min_hooks_per_window = 16;
    int max_level = kLevelSampleEvents;
    /// At kLevelSampleEvents, evaluate rules for 1 in 2^sample_shift events.
    int sample_shift = 3;
  };

  enum Level : int {
    kLevelFull = 0,
    kLevelNoDetailedTiming = 1,
    kLevelNoTrace = 2,
    kLevelShedAging = 3,
    kLevelSampleEvents = 4,
  };

  LoadGovernor() = default;
  explicit LoadGovernor(Options options) : options_(options) {}

  /// Called whenever a shed level transition happens (with the governor's
  /// internal lock NOT held). Used by the engine to propagate level changes
  /// into LATs / trace / timing flags. Set before traffic starts.
  void SetLevelListener(std::function<void(int old_level, int new_level)> fn) {
    listener_ = std::move(fn);
  }

  /// Feeds one hook execution into the overhead estimate and rolls the
  /// window when it is full. Hot path: two relaxed atomic adds; the window
  /// roll takes a try-lock so concurrent hooks never queue behind it.
  void RecordHook(int64_t hook_micros, int64_t now_micros);

  int level() const { return level_.load(std::memory_order_relaxed); }
  bool shed_detailed_timing() const { return level() >= kLevelNoDetailedTiming; }
  bool shed_trace() const { return level() >= kLevelNoTrace; }
  bool shed_aging() const { return level() >= kLevelShedAging; }
  bool sample_events() const { return level() >= kLevelSampleEvents; }

  /// True when the event with this sequence number should get full rule
  /// evaluation. Always true below kLevelSampleEvents.
  bool AdmitEvent(uint64_t event_seq) const {
    if (!sample_events()) return true;
    return (event_seq & ((1u << options_.sample_shift) - 1)) == 0;
  }

  /// Pins the shed level (tests, benchmarks, operator override). Fires the
  /// listener like a measured transition would.
  void ForceLevel(int level);
  /// Returns to measured (automatic) level selection.
  void ClearForce();
  bool forced() const { return forced_.load(std::memory_order_relaxed); }

  /// Overhead fraction measured in the last completed window.
  double last_overhead_fraction() const;
  uint64_t level_raises() const { return raises_.load(std::memory_order_relaxed); }
  uint64_t level_drops() const { return drops_.load(std::memory_order_relaxed); }

  const Options& options() const { return options_; }

 private:
  void TransitionTo(int new_level, bool count);

  Options options_;
  std::function<void(int, int)> listener_;

  std::atomic<int> level_{kLevelFull};
  std::atomic<bool> forced_{false};
  std::atomic<uint64_t> raises_{0};
  std::atomic<uint64_t> drops_{0};

  std::atomic<int64_t> busy_micros_{0};
  std::atomic<int64_t> hook_count_{0};
  std::atomic<int64_t> window_start_micros_{0};

  mutable std::mutex roll_mutex_;
  double last_fraction_ = 0.0;
};

}  // namespace sqlcm::cm

#endif  // SQLCM_SQLCM_LOAD_GOVERNOR_H_
