// Span tracing for the traced benchmark arm, recorded from outside the
// program: the benchmark times its own calls into Session / MonitorEngine,
// and TracingHooks times every hook and lock callback by wrapping the
// monitor.
//
// A span is one timed call. Spans of one client op share its trace id, the
// id of the op's root span, which has parent 0. Set-up and drain spans have
// trace id 0. Each thread appends to its own buffer, so recording takes no
// lock; buffers are read only after the threads that fill them have been
// joined.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/monitor_hooks.h"
#include "sqlcm/monitor_engine.h"
#include "sqlcm/monitor_metrics.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span timed. Hook kinds are kSpanHookBase + cm::MonitorHook index.
enum SpanKind : uint8_t {
  kSpanOp = 0,       // one client op: a statement or BEGIN..COMMIT
  kSpanExecute,      // one Session::Execute call
  kSpanLoad,         // TPC-H (+ accounts) load
  kSpanDefineLat,    // MonitorEngine::DefineLat
  kSpanAddRule,      // MonitorEngine::AddRule
  kSpanDrain,        // MonitorEngine::DrainEventQueue
  kSpanHookBase,
};

const char* SpanKindName(uint8_t kind);

inline bool IsHookSpan(uint8_t kind) { return kind >= kSpanHookBase; }

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// OnBlockReleased: wait_micros. Op/Execute spans: the op class.
  int64_t aux = 0;
  uint8_t kind = 0;
};

class Tracer {
 public:
  /// Per-thread recording state; spans nest at most a few levels deep.
  struct Local {
    uint32_t thread_index = 0;
    uint64_t next_seq = 1;
    uint64_t trace_id = 0;
    std::vector<uint64_t> open;  // span ids of the open spans, innermost last
    std::deque<Span> spans;

    uint64_t NewSpanId() {
      return (static_cast<uint64_t>(thread_index) << 40) | next_seq++;
    }
    uint64_t parent() const { return open.empty() ? 0 : open.back(); }
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's buffer (created on first use).
  Local& local();

  /// Opens a span under the thread's innermost open span. A span opened
  /// with none open is a root: its id is the trace id of everything under it.
  void Open(Local& l) {
    const uint64_t id = l.NewSpanId();
    if (l.open.empty()) l.trace_id = id;
    l.open.push_back(id);
  }
  /// Closes the innermost open span, recording it.
  void Close(Local& l, uint8_t kind, int64_t start_ns, int64_t end_ns,
             int64_t aux) {
    const uint64_t id = l.open.back();
    l.open.pop_back();
    l.spans.push_back(
        {l.trace_id, id, l.parent(), start_ns, end_ns, aux, kind});
  }
  /// Records a leaf span under the thread's innermost open span.
  void Leaf(Local& l, uint8_t kind, int64_t start_ns, int64_t end_ns,
            int64_t aux) {
    l.spans.push_back({l.open.empty() ? 0 : l.trace_id, l.NewSpanId(),
                       l.parent(), start_ns, end_ns, aux, kind});
  }

  /// All spans recorded so far. Call only while no thread records.
  std::vector<const Span*> Collect() const;
  /// Writes every span as CSV. Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards locals_
  std::vector<std::unique_ptr<Local>> locals_;
};

/// Decorates a MonitorEngine: forwards every hook and lock callback to it
/// and, while the calling thread has a traced op open, records the call as a
/// span of that op.
/// Attach with Database::set_monitor_hooks after the engine is constructed;
/// detach (set the engine back) before destroying this object.
class TracingHooks final : public sqlcm::engine::MonitorHooks,
                           public sqlcm::txn::LockEventObserver {
 public:
  TracingHooks(sqlcm::cm::MonitorEngine* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  TracingHooks(const TracingHooks&) = delete;
  TracingHooks& operator=(const TracingHooks&) = delete;

  void OnStatementCompiled(sqlcm::engine::CachedPlan* plan) override;
  void OnQueryStart(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryCommit(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryCancel(const sqlcm::engine::QueryInfo& info) override;
  void OnQueryRollback(const sqlcm::engine::QueryInfo& info) override;
  void OnTransactionBegin(uint64_t session_id,
                          sqlcm::txn::TxnId txn_id) override;
  void OnTransactionCommit(uint64_t session_id, sqlcm::txn::TxnId txn_id,
                           int64_t duration_micros) override;
  void OnTransactionRollback(uint64_t session_id, sqlcm::txn::TxnId txn_id,
                             int64_t duration_micros) override;
  sqlcm::txn::LockEventObserver* lock_event_observer() override {
    return this;
  }

  void OnBlocked(sqlcm::txn::TxnId blocked, sqlcm::txn::TxnId blocker,
                 const sqlcm::txn::ResourceId& resource) override;
  void OnBlockReleased(sqlcm::txn::TxnId blocked, sqlcm::txn::TxnId blocker,
                       const sqlcm::txn::ResourceId& resource,
                       int64_t wait_micros) override;

 private:
  template <typename F>
  void Timed(sqlcm::cm::MonitorHook hook, int64_t aux, F&& call) {
    Tracer::Local& l = tracer_->local();
    if (l.open.empty()) {
      call();
      return;
    }
    const int64_t start = NowNs();
    call();
    const int64_t end = NowNs();
    tracer_->Leaf(l,
                  static_cast<uint8_t>(kSpanHookBase +
                                       static_cast<size_t>(hook)),
                  start, end, aux);
  }

  sqlcm::cm::MonitorEngine* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
