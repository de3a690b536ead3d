#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace cm = sqlcm::cm;
namespace engine = sqlcm::engine;
namespace txn = sqlcm::txn;

const char* SpanKindName(uint8_t kind) {
  switch (kind) {
    case kSpanOp: return "op";
    case kSpanExecute: return "execute";
    case kSpanLoad: return "load";
    case kSpanDefineLat: return "define_lat";
    case kSpanAddRule: return "add_rule";
    case kSpanDrain: return "drain_event_queue";
    default:
      return cm::MonitorHookName(
          static_cast<cm::MonitorHook>(kind - kSpanHookBase));
  }
}

Tracer::Local& Tracer::local() {
  // One Tracer lives per process run; the owner check keeps a thread from
  // reusing a buffer that belonged to an earlier Tracer object.
  thread_local const Tracer* owner = nullptr;
  thread_local Local* cached = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    locals_.push_back(std::make_unique<Local>());
    cached = locals_.back().get();
    cached->thread_index = static_cast<uint32_t>(locals_.size());
    owner = this;
  }
  return *cached;
}

std::vector<const Span*> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Span*> out;
  for (const auto& l : locals_) {
    for (const Span& s : l->spans) out.push_back(&s);
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace_id,span_id,parent_id,name,start_ns,end_ns,aux\n");
  for (const Span* s : Collect()) {
    std::fprintf(f,
                 "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64
                 ",%" PRId64 "\n",
                 s->trace_id, s->span_id, s->parent_id, SpanKindName(s->kind),
                 s->start_ns, s->end_ns, s->aux);
  }
  return std::fclose(f) == 0;
}

void TracingHooks::OnStatementCompiled(engine::CachedPlan* plan) {
  Timed(cm::MonitorHook::kStatementCompiled, 0,
        [&] { inner_->OnStatementCompiled(plan); });
}
void TracingHooks::OnQueryStart(const engine::QueryInfo& info) {
  Timed(cm::MonitorHook::kQueryStart, 0, [&] { inner_->OnQueryStart(info); });
}
void TracingHooks::OnQueryCommit(const engine::QueryInfo& info) {
  Timed(cm::MonitorHook::kQueryCommit, 0,
        [&] { inner_->OnQueryCommit(info); });
}
void TracingHooks::OnQueryCancel(const engine::QueryInfo& info) {
  Timed(cm::MonitorHook::kQueryCancel, 0,
        [&] { inner_->OnQueryCancel(info); });
}
void TracingHooks::OnQueryRollback(const engine::QueryInfo& info) {
  Timed(cm::MonitorHook::kQueryRollback, 0,
        [&] { inner_->OnQueryRollback(info); });
}
void TracingHooks::OnTransactionBegin(uint64_t session_id, txn::TxnId txn_id) {
  Timed(cm::MonitorHook::kTxnBegin, 0,
        [&] { inner_->OnTransactionBegin(session_id, txn_id); });
}
void TracingHooks::OnTransactionCommit(uint64_t session_id, txn::TxnId txn_id,
                                       int64_t duration_micros) {
  Timed(cm::MonitorHook::kTxnCommit, 0, [&] {
    inner_->OnTransactionCommit(session_id, txn_id, duration_micros);
  });
}
void TracingHooks::OnTransactionRollback(uint64_t session_id,
                                         txn::TxnId txn_id,
                                         int64_t duration_micros) {
  Timed(cm::MonitorHook::kTxnRollback, 0, [&] {
    inner_->OnTransactionRollback(session_id, txn_id, duration_micros);
  });
}
void TracingHooks::OnBlocked(txn::TxnId blocked, txn::TxnId blocker,
                             const txn::ResourceId& resource) {
  Timed(cm::MonitorHook::kBlocked, 0,
        [&] { inner_->OnBlocked(blocked, blocker, resource); });
}
void TracingHooks::OnBlockReleased(txn::TxnId blocked, txn::TxnId blocker,
                                   const txn::ResourceId& resource,
                                   int64_t wait_micros) {
  Timed(cm::MonitorHook::kBlockReleased, wait_micros, [&] {
    inner_->OnBlockReleased(blocked, blocker, resource, wait_micros);
  });
}

}  // namespace perfbench
