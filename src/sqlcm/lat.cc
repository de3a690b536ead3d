#include "sqlcm/lat.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/fault.h"
#include "common/string_util.h"

namespace sqlcm::cm {

using common::Result;
using common::Row;
using common::Status;
using common::Value;
using common::ValueKind;

const char* LatAggFuncName(LatAggFunc func) {
  switch (func) {
    case LatAggFunc::kCount: return "COUNT";
    case LatAggFunc::kSum: return "SUM";
    case LatAggFunc::kAvg: return "AVG";
    case LatAggFunc::kStdev: return "STDEV";
    case LatAggFunc::kMin: return "MIN";
    case LatAggFunc::kMax: return "MAX";
    case LatAggFunc::kFirst: return "FIRST";
    case LatAggFunc::kLast: return "LAST";
    case LatAggFunc::kQuantile: return "QUANTILE";
    case LatAggFunc::kDistinct: return "DISTINCT";
  }
  return "?";
}

Result<LatAggFunc> ParseLatAggFunc(std::string_view name) {
  using common::EqualsIgnoreCase;
  if (EqualsIgnoreCase(name, "COUNT")) return LatAggFunc::kCount;
  if (EqualsIgnoreCase(name, "SUM")) return LatAggFunc::kSum;
  if (EqualsIgnoreCase(name, "AVG") || EqualsIgnoreCase(name, "AVERAGE")) {
    return LatAggFunc::kAvg;
  }
  if (EqualsIgnoreCase(name, "STDEV")) return LatAggFunc::kStdev;
  if (EqualsIgnoreCase(name, "MIN")) return LatAggFunc::kMin;
  if (EqualsIgnoreCase(name, "MAX")) return LatAggFunc::kMax;
  if (EqualsIgnoreCase(name, "FIRST")) return LatAggFunc::kFirst;
  if (EqualsIgnoreCase(name, "LAST")) return LatAggFunc::kLast;
  if (EqualsIgnoreCase(name, "QUANTILE") ||
      EqualsIgnoreCase(name, "PERCENTILE")) {
    return LatAggFunc::kQuantile;
  }
  if (EqualsIgnoreCase(name, "DISTINCT") ||
      EqualsIgnoreCase(name, "COUNT_DISTINCT")) {
    return LatAggFunc::kDistinct;
  }
  return Status::NotFound("unknown LAT aggregation function '" +
                          std::string(name) + "'");
}

namespace {

bool NeedsNumericInput(LatAggFunc func) {
  return func == LatAggFunc::kSum || func == LatAggFunc::kAvg ||
         func == LatAggFunc::kStdev || func == LatAggFunc::kQuantile;
}

/// splitmix64 finalizer: decorrelates HashRow's low bits before they are
/// reused as both the shard selector and the directory key.
uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Resolves LatSpec::shard_count: explicit spec value, else the
/// SQLCM_LAT_SHARDS environment override, else 4 stripes per hardware
/// thread (≥16: containers often under-report concurrency, and idle
/// stripes cost ~100 bytes each).
size_t ResolveShardCount(size_t requested) {
  size_t n = requested;
  if (n == 0) {
    if (const char* env = std::getenv("SQLCM_LAT_SHARDS")) {
      n = static_cast<size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  if (n == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    n = std::max<size_t>(16, 4 * hw);
  }
  return NextPowerOfTwo(std::clamp<size_t>(n, 1, 1024));
}

/// Thread-local scratch row for group keys: the Insert/Lookup hot path
/// refills it instead of allocating a fresh Row per call. Each use is
/// complete before any callback that could re-enter a LAT runs.
Row& ScratchKey() {
  thread_local Row key;
  return key;
}

}  // namespace

Result<std::unique_ptr<Lat>> Lat::Create(LatSpec spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("LAT must have a name");
  }
  if (spec.object_class == MonitoredClass::kEvicted) {
    return Status::InvalidArgument(
        "LATs over evicted rows are not supported; persist them instead");
  }
  if (spec.group_by.empty()) {
    return Status::InvalidArgument("LAT '" + spec.name +
                                   "' needs at least one grouping column");
  }
  if ((spec.max_rows > 0 || spec.max_bytes > 0) && spec.ordering.empty()) {
    return Status::InvalidArgument(
        "LAT '" + spec.name +
        "' declares a size limit but no ordering columns for eviction");
  }
  const bool any_aging = std::any_of(spec.aggregates.begin(),
                                     spec.aggregates.end(),
                                     [](const LatAggColumn& c) { return c.aging; });
  if (any_aging) {
    if (spec.aging_window_micros <= 0 || spec.aging_block_micros <= 0 ||
        spec.aging_block_micros > spec.aging_window_micros) {
      return Status::InvalidArgument(
          "LAT '" + spec.name +
          "' has aging aggregates but invalid aging window/block sizes");
    }
  }

  auto lat = std::unique_ptr<Lat>(new Lat(std::move(spec)));
  const LatSpec& s = lat->spec_;
  const ObjectSchema& schema = ObjectSchema::Get();
  lat->lower_name_ = common::ToLower(s.name);
  lat->shard_count_ = ResolveShardCount(s.shard_count);
  lat->shards_ = std::make_unique<Shard[]>(lat->shard_count_);
  if (any_aging) {
    // §4.3 bound ⌈2t/Δ⌉, with enough slack (t/Δ + 3) that when the cap
    // triggers the two oldest blocks are provably outside the window — so
    // FoldValue's merge never changes what AggValue reads.
    const int64_t t = s.aging_window_micros;
    const int64_t d = s.aging_block_micros;
    lat->max_aging_blocks_ =
        static_cast<size_t>(std::max((2 * t + d - 1) / d, t / d + 3));
  }

  for (const LatGroupColumn& col : s.group_by) {
    const int attr = schema.FindAttribute(s.object_class, col.attribute);
    if (attr < 0) {
      return Status::NotFound("LAT '" + s.name + "': class " +
                              MonitoredClassName(s.object_class) +
                              " has no attribute '" + col.attribute + "'");
    }
    const AttributeDef& def = schema.attributes(s.object_class)[attr];
    lat->group_getters_.push_back(def.getter);
    lat->column_names_.push_back(col.alias.empty() ? col.attribute : col.alias);
    lat->column_kinds_.push_back(def.kind);
  }
  for (const LatAggColumn& col : s.aggregates) {
    AttributeGetter getter = nullptr;
    ValueKind input_kind = ValueKind::kInt;
    if (!col.attribute.empty()) {
      const int attr = schema.FindAttribute(s.object_class, col.attribute);
      if (attr < 0) {
        return Status::NotFound("LAT '" + s.name + "': class " +
                                MonitoredClassName(s.object_class) +
                                " has no attribute '" + col.attribute + "'");
      }
      const AttributeDef& def = schema.attributes(s.object_class)[attr];
      getter = def.getter;
      input_kind = def.kind;
    } else if (col.func != LatAggFunc::kCount) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': " + LatAggFuncName(col.func) +
          " needs an input attribute");
    }
    if (NeedsNumericInput(col.func) && input_kind != ValueKind::kInt &&
        input_kind != ValueKind::kDouble) {
      return Status::TypeError("LAT '" + s.name + "': " +
                               LatAggFuncName(col.func) +
                               " requires a numeric attribute, got '" +
                               col.attribute + "'");
    }
    if (col.aging &&
        (col.func == LatAggFunc::kFirst || col.func == LatAggFunc::kLast)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': FIRST/LAST have no aging variant");
    }
    if (col.aging && LatAggFuncIsSketch(col.func)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': " + LatAggFuncName(col.func) +
          " has no aging variant (per-block sketches are not supported)");
    }
    if (col.func == LatAggFunc::kQuantile &&
        !(col.quantile >= 0.0 && col.quantile <= 1.0)) {
      return Status::InvalidArgument(
          "LAT '" + s.name + "': QUANTILE rank fraction must be in [0, 1]");
    }
    lat->agg_getters_.push_back(getter);
    std::string name = col.alias;
    if (name.empty()) {
      name = std::string(LatAggFuncName(col.func)) +
             (col.attribute.empty() ? "" : "_" + col.attribute);
    }
    lat->column_names_.push_back(std::move(name));
    ValueKind out_kind;
    switch (col.func) {
      case LatAggFunc::kCount:
        out_kind = ValueKind::kInt;
        break;
      case LatAggFunc::kSum:
      case LatAggFunc::kAvg:
      case LatAggFunc::kStdev:
      case LatAggFunc::kQuantile:
        out_kind = ValueKind::kDouble;
        break;
      case LatAggFunc::kDistinct:
        out_kind = ValueKind::kInt;
        break;
      default:
        out_kind = input_kind;
    }
    lat->column_kinds_.push_back(out_kind);
  }

  // State-record geometry: per-aggregate base offsets (sketch-bearing
  // aggregates carry a 10th `#sketch` codec cell).
  lat->distinct_precision_ = std::clamp(s.distinct_precision, 4, 16);
  size_t state_offset = lat->group_width();
  for (const LatAggColumn& col : s.aggregates) {
    lat->state_agg_base_.push_back(state_offset);
    state_offset += LatAggFuncIsSketch(col.func) ? 10 : 9;
    if (LatAggFuncIsSketch(col.func)) lat->has_sketch_ = true;
  }
  lat->state_width_ = state_offset;

  // Column names must be unique.
  for (size_t i = 0; i < lat->column_names_.size(); ++i) {
    for (size_t j = i + 1; j < lat->column_names_.size(); ++j) {
      if (common::EqualsIgnoreCase(lat->column_names_[i],
                                   lat->column_names_[j])) {
        return Status::InvalidArgument("LAT '" + s.name +
                                       "': duplicate column name '" +
                                       lat->column_names_[i] + "'");
      }
    }
  }

  for (const LatOrdering& ord : s.ordering) {
    const int idx = lat->FindColumn(ord.column);
    if (idx < 0) {
      return Status::NotFound("LAT '" + s.name + "': ordering column '" +
                              ord.column + "' does not exist");
    }
    lat->ordering_columns_.push_back(idx);
  }
  return lat;
}

int Lat::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < column_names_.size(); ++i) {
    if (common::EqualsIgnoreCase(column_names_[i], name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

uint64_t Lat::HashGroupKey(const Row& key) const {
  return MixHash(static_cast<uint64_t>(common::HashRow(key)));
}

std::shared_ptr<Lat::LatRow> Lat::FindInShardLocked(const Shard& shard,
                                                    uint64_t hash,
                                                    const Row& key) const {
  auto it = shard.map.find(hash);
  if (it == shard.map.end()) return nullptr;
  for (const std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (common::RowEq()((*p)->group_key, key)) return *p;
  }
  return nullptr;
}

std::shared_ptr<Lat::LatRow> Lat::FindOrCreateLocked(Shard* shard,
                                                     uint64_t hash,
                                                     const Row& key,
                                                     bool* created) {
  auto [it, _] = shard->map.try_emplace(hash);
  for (const std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (common::RowEq()((*p)->group_key, key)) {
      *created = false;
      return *p;
    }
  }
  auto row = std::make_shared<LatRow>();
  row->hash = hash;
  row->group_key = key;
  row->aggs.resize(spec_.aggregates.size());
  row->next = std::move(it->second);
  it->second = row;
  *created = true;
  return row;
}

std::shared_ptr<Lat::LatRow> Lat::UnlinkLocked(Shard* shard, LatRow* row) {
  auto it = shard->map.find(row->hash);
  if (it == shard->map.end()) return nullptr;
  std::shared_ptr<LatRow> unlinked;
  for (std::shared_ptr<LatRow>* p = &it->second; *p != nullptr;
       p = &(*p)->next) {
    if (p->get() == row) {
      unlinked = *p;
      std::shared_ptr<LatRow> next = std::move((*p)->next);
      *p = std::move(next);
      break;
    }
  }
  if (it->second == nullptr) shard->map.erase(it);
  return unlinked;
}

void Lat::FoldValue(AggState* state, const LatAggColumn& col, Value v,
                    int64_t now_micros) {
  if (LatAggFuncIsSketch(col.func)) {
    // Sketch aggregates keep only count + sketch (count drives the
    // federation delta's fresh/changed detection; the scalar moments stay
    // zero so the classic codec cells remain cheap).
    ++state->count;
    if (col.func == LatAggFunc::kQuantile) {
      if (v.is_numeric()) {
        if (state->qsketch == nullptr) {
          state->qsketch = std::make_unique<QuantileSketch>();
        }
        state->qsketch->Add(v.AsDouble());
        const int ups =
            state->qsketch->CollapseToBudget(spec_.quantile_sketch_bytes);
        if (ups > 0) stats_.sketch_collapses.Inc(static_cast<uint64_t>(ups));
      }
    } else if (!v.is_null()) {
      if (state->hll == nullptr) {
        state->hll = std::make_unique<HllSketch>(distinct_precision_);
      }
      state->hll->AddHash(DistinctValueHash(v));
    }
    return;
  }
  if (col.aging) {
    // Locate (or open) the block for `now`, then prune and cap the deque.
    if (state->blocks == nullptr) {
      state->blocks = std::make_unique<std::deque<AgingBlock>>();
    }
    std::deque<AgingBlock>& blocks = *state->blocks;
    const int64_t block_start =
        now_micros - (now_micros % spec_.aging_block_micros);
    if (blocks.empty() || blocks.back().block_start != block_start) {
      AgingBlock block;
      block.block_start = block_start;
      blocks.push_back(std::move(block));
    }
    // Overload shedding defers pruning only. Rotation (above) must always
    // run: a fresh value folded into a stale-labelled block would be
    // silently dropped by AggValue's horizon filter. With pruning deferred
    // the deque would grow one block per Δ without bound; the cap folds
    // the oldest block into its neighbour instead. At the cap both front
    // blocks are already outside the window (it includes t/Δ + 3 slack), so
    // the merge only coarsens expired history and is invisible to reads.
    TrimBlocks(&blocks, now_micros,
               /*prune=*/!shed_aging_.load(std::memory_order_relaxed));
    AgingBlock& block = blocks.back();
    ++block.count;
    if (v.is_numeric()) {
      const double d = v.AsDouble();
      block.sum += d;
      block.sumsq += d * d;
    }
    if (!v.is_null()) {
      if (!block.any || v.Compare(block.min) < 0) block.min = v;
      if (!block.any || v.Compare(block.max) > 0) block.max = v;
      block.any = true;
    }
    return;
  }
  ++state->count;
  if (v.is_numeric()) {
    const double d = v.AsDouble();
    state->sum += d;
    state->sumsq += d * d;
  }
  if (!v.is_null()) {
    if (!state->any) state->first = v;
    if (!state->any || v.Compare(state->min) < 0) state->min = v;
    if (!state->any || v.Compare(state->max) > 0) state->max = v;
    state->any = true;
    state->last = std::move(v);  // last use; avoids a copy for strings
  } else if (!state->any && col.func == LatAggFunc::kFirst) {
    // FIRST retains the first inserted value even when NULL.
    state->first = v;
  }
}

Value Lat::AggValue(const AggState& state, const LatAggColumn& col,
                    int64_t now_micros) const {
  int64_t count = state.count;
  double sum = state.sum;
  double sumsq = state.sumsq;
  Value min = state.min, max = state.max;
  bool any = state.any;
  if (col.aging) {
    // An unallocated block deque and a deque whose blocks have all aged
    // out are the same empty window: both fall through to the shared
    // switch with count = 0 / any = false, so every aggregate's
    // empty-window answer (COUNT 0, STDEV 0, SUM/AVG/MIN/MAX NULL) comes
    // from exactly one code path. (A duplicated early return here once
    // disagreed with the aged-out path for aging STDEV, and the
    // duplication itself was the bug class.)
    AgingBlock window;
    if (state.blocks != nullptr) {
      for (const AgingBlock& block : *state.blocks) {
        if (!BlockExpired(block, now_micros)) FoldBlock(&window, block);
      }
    }
    count = window.count;
    sum = window.sum;
    sumsq = window.sumsq;
    any = window.any;
    min = std::move(window.min);
    max = std::move(window.max);
  }
  switch (col.func) {
    case LatAggFunc::kCount:
      return Value::Int(count);
    case LatAggFunc::kSum:
      return count > 0 ? Value::Double(sum) : Value::Null();
    case LatAggFunc::kAvg:
      return count > 0 ? Value::Double(sum / static_cast<double>(count))
                       : Value::Null();
    case LatAggFunc::kStdev: {
      if (count < 2) return Value::Double(0);
      const double n = static_cast<double>(count);
      const double variance = std::max(0.0, (sumsq - sum * sum / n) / (n - 1));
      return Value::Double(std::sqrt(variance));
    }
    case LatAggFunc::kMin:
      return any ? min : Value::Null();
    case LatAggFunc::kMax:
      return any ? max : Value::Null();
    case LatAggFunc::kFirst:
      return state.first;
    case LatAggFunc::kLast:
      return state.last;
    case LatAggFunc::kQuantile:
      // NULL until a numeric value has been folded (NaN/NULL inputs do not
      // enter the sketch), mirroring SUM/AVG's empty answer.
      return state.qsketch != nullptr && !state.qsketch->empty()
                 ? Value::Double(state.qsketch->Quantile(col.quantile))
                 : Value::Null();
    case LatAggFunc::kDistinct:
      // 0 (not NULL) for an empty set, matching COUNT's convention.
      return Value::Int(state.hll != nullptr ? state.hll->Estimate() : 0);
  }
  return Value::Null();
}

Row Lat::MaterializeLocked(const LatRow& row, int64_t now_micros) const {
  Row out = row.group_key;
  out.reserve(num_columns());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    out.push_back(AggValue(row.aggs[a], spec_.aggregates[a], now_micros));
  }
  return out;
}

Row Lat::OrderingKeyLocked(const LatRow& row, int64_t now_micros) const {
  Row key;
  key.reserve(ordering_columns_.size());
  const size_t groups = group_width();
  for (int col : ordering_columns_) {
    const size_t c = static_cast<size_t>(col);
    if (c < groups) {
      key.push_back(row.group_key[c]);
    } else {
      const size_t a = c - groups;
      key.push_back(AggValue(row.aggs[a], spec_.aggregates[a], now_micros));
    }
  }
  return key;
}

bool Lat::LessImportant(const Row& a, const Row& b) const {
  for (size_t i = 0; i < spec_.ordering.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    // DESC ordering: smaller value = less important (evicted first).
    // ASC ordering: larger value = less important.
    return spec_.ordering[i].descending ? c < 0 : c > 0;
  }
  return false;
}

size_t Lat::ApproxRowBytesLocked(const LatRow& row) {
  size_t bytes = sizeof(LatRow);
  for (const Value& v : row.group_key) bytes += v.ApproxBytes();
  for (const AggState& state : row.aggs) {
    bytes += sizeof(AggState);
    bytes += state.min.ApproxBytes() + state.max.ApproxBytes() +
             state.first.ApproxBytes() + state.last.ApproxBytes();
    if (state.blocks != nullptr) {
      bytes += state.blocks->size() * sizeof(AgingBlock);
    }
    if (state.qsketch != nullptr) bytes += state.qsketch->ApproxBytes();
    if (state.hll != nullptr) bytes += state.hll->ApproxBytes();
  }
  return bytes;
}

template <typename Fn>
void Lat::ForEachFilledRow(Fn&& fn) const {
  std::vector<std::shared_ptr<LatRow>> rows;
  rows.reserve(size());
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    for (const auto& [_, head] : shard.map) {
      for (std::shared_ptr<LatRow> row = head; row != nullptr;
           row = row->next) {
        rows.push_back(row);
      }
    }
  }
  for (const auto& row : rows) {
    std::lock_guard<common::SpinLatch> row_guard(row->latch);
    if (row->filled) fn(*row);
  }
}

void Lat::SketchFootprint(size_t* sketch_bytes, size_t* sketch_cells) const {
  size_t bytes = 0;
  size_t cells = 0;
  if (has_sketch_) {
    ForEachFilledRow([&](const LatRow& row) {
      for (const AggState& state : row.aggs) {
        if (state.qsketch != nullptr) {
          bytes += state.qsketch->ApproxBytes();
          cells += state.qsketch->bucket_count();
        }
        if (state.hll != nullptr) {
          bytes += state.hll->ApproxBytes();
          cells += state.hll->register_count();
        }
      }
    });
  }
  if (sketch_bytes != nullptr) *sketch_bytes = bytes;
  if (sketch_cells != nullptr) *sketch_cells = cells;
}

namespace {

/// Latch guard for the write paths. With `stats` set (the insert paths)
/// every acquisition is counted, and a failed try_lock (another thread
/// holds the latch, we must spin) counts as contention; with null stats it
/// is a plain lock.
class CountedLatchGuard {
 public:
  CountedLatchGuard(common::SpinLatch& latch, LatStats* stats)
      : latch_(latch) {
    if (stats == nullptr) {
      latch_.lock();
      return;
    }
    stats->latch_acquisitions.Inc();
    if (!latch_.try_lock()) {
      stats->latch_contention.Inc();
      latch_.lock();
    } else if (common::FaultFires(kFaultLatLatch)) {
      // Injected stall: account an uncontended acquisition as contention so
      // tests can drive the contention path without real thread races.
      stats->latch_contention.Inc();
    }
  }
  ~CountedLatchGuard() { latch_.unlock(); }
  CountedLatchGuard(const CountedLatchGuard&) = delete;
  CountedLatchGuard& operator=(const CountedLatchGuard&) = delete;

 private:
  common::SpinLatch& latch_;
};

}  // namespace

std::shared_ptr<Lat::LatRow> Lat::GetOrCreateRow(const Row& key,
                                                 LatStats* latch_stats) {
  const uint64_t hash = HashGroupKey(key);
  Shard& shard = ShardFor(hash);
  std::shared_ptr<LatRow> row;
  bool created = false;
  {
    CountedLatchGuard map_guard(shard.map_latch, latch_stats);
    row = FindOrCreateLocked(&shard, hash, key, &created);
  }
  if (created) total_rows_.fetch_add(1, std::memory_order_acq_rel);
  return row;
}

template <typename Fold>
void Lat::FoldAndPlace(const std::shared_ptr<LatRow>& row,
                       LatStats* latch_stats, Evict evict,
                       int64_t evict_micros, Fold&& fold) {
  const bool bounded = spec_.max_rows > 0 || spec_.max_bytes > 0;
  Row ordering_key;
  size_t row_bytes = 0;
  bool place = false;
  {
    CountedLatchGuard row_guard(row->latch, latch_stats);
    const int64_t order_micros = fold(*row);
    row->filled = true;
    if (bounded) {
      ordering_key = OrderingKeyLocked(*row, order_micros);
      if (spec_.max_bytes > 0) row_bytes = ApproxRowBytesLocked(*row);
      // With no byte accounting to refresh and an unchanged ordering key
      // (common for MIN/MAX/FIRST orderings) the heap position is already
      // right and the budgets did not move: skip the heap latch entirely.
      place = spec_.max_bytes > 0 ||
              !row->in_heap.load(std::memory_order_acquire) ||
              !common::RowEq()(ordering_key, row->ordering_cache);
      if (place) {
        row->ordering_cache = ordering_key;
      } else {
        stats_.heap_skips.Inc();
      }
    }
  }
  if (!bounded) return;
  if (place) {
    MaintainHeap(&ShardFor(row->hash), row, std::move(ordering_key),
                 row_bytes);
  }
  if (evict != Evict::kDeferred) {
    EvictOverBudget(evict_micros, evict == Evict::kNotify);
  }
}

void Lat::Insert(const void* record, int64_t now_micros) {
  stats_.inserts.Inc();
  // Probe with the thread-local scratch key: no Row allocation on the hit
  // path, and the directory compares against it lazily (hash first, values
  // only on a chain hit).
  Row& key = ScratchKey();
  key.clear();
  for (AttributeGetter getter : group_getters_) key.push_back(getter(record));
  const std::shared_ptr<LatRow> row = GetOrCreateRow(key, &stats_);
  FoldAndPlace(row, &stats_, Evict::kNotify, now_micros, [&](LatRow& r) {
    for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
      Value v = agg_getters_[a] != nullptr ? agg_getters_[a](record)
                                           : Value::Int(1);
      FoldValue(&r.aggs[a], spec_.aggregates[a], std::move(v), now_micros);
    }
    return now_micros;
  });
}

void Lat::InsertBatch(const LatBatchItem* items, size_t count) {
  if (count == 0) return;
  if (count == 1) {
    Insert(items[0].record, items[0].now_micros);
    return;
  }
  stats_.inserts.Inc(count);

  // Phase 1 (latch-free): probe group keys and hashes for every item.
  std::vector<Row> keys(count);
  std::vector<uint64_t> hashes(count);
  for (size_t i = 0; i < count; ++i) {
    Row& key = keys[i];
    key.reserve(group_getters_.size());
    for (AttributeGetter getter : group_getters_) {
      key.push_back(getter(items[i].record));
    }
    hashes[i] = HashGroupKey(key);
  }

  // Phase 2: resolve rows shard by shard — items stable-sorted by shard so
  // each touched shard's map latch is taken exactly once for its whole run.
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  const uint64_t shard_mask = shard_count_ - 1;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (hashes[a] & shard_mask) < (hashes[b] & shard_mask);
  });
  std::vector<std::shared_ptr<LatRow>> rows(count);
  int64_t created_rows = 0;
  for (size_t pos = 0; pos < count;) {
    const uint64_t shard_idx = hashes[order[pos]] & shard_mask;
    Shard& shard = shards_[shard_idx];
    size_t end = pos;
    CountedLatchGuard map_guard(shard.map_latch, &stats_);
    while (end < count && (hashes[order[end]] & shard_mask) == shard_idx) {
      const size_t i = order[end];
      bool created = false;
      rows[i] = FindOrCreateLocked(&shard, hashes[i], keys[i], &created);
      if (created) ++created_rows;
      ++end;
    }
    pos = end;
  }
  if (created_rows > 0) {
    total_rows_.fetch_add(created_rows, std::memory_order_acq_rel);
  }

  // Phase 3: fold per distinct group — one row latch per group, that
  // group's items in arrival order so FIRST/LAST match a sequential replay.
  // Bounded LATs enforce the budget once, after the last group is placed
  // (every new group was already counted in phase 2).
  std::unordered_map<LatRow*, size_t> row_index;
  row_index.reserve(count);
  std::vector<std::shared_ptr<LatRow>> distinct;
  std::vector<std::vector<size_t>> row_items;
  for (size_t i = 0; i < count; ++i) {
    auto [it, inserted] = row_index.try_emplace(rows[i].get(), distinct.size());
    if (inserted) {
      distinct.push_back(rows[i]);
      row_items.emplace_back();
    }
    row_items[it->second].push_back(i);
  }
  for (size_t r = 0; r < distinct.size(); ++r) {
    const Evict evict =
        r + 1 == distinct.size() ? Evict::kNotify : Evict::kDeferred;
    FoldAndPlace(distinct[r], &stats_, evict, items[count - 1].now_micros,
                 [&](LatRow& row) {
                   int64_t row_now = 0;
                   for (size_t i : row_items[r]) {
                     for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
                       Value v = agg_getters_[a] != nullptr
                                     ? agg_getters_[a](items[i].record)
                                     : Value::Int(1);
                       FoldValue(&row.aggs[a], spec_.aggregates[a],
                                 std::move(v), items[i].now_micros);
                     }
                     row_now = items[i].now_micros;
                   }
                   return row_now;
                 });
  }
}

void Lat::MaintainHeap(Shard* shard, const std::shared_ptr<LatRow>& row,
                       Row ordering_key, size_t row_bytes) {
  CountedLatchGuard heap_guard(shard->heap_latch, &stats_);
  if (row->evicted) {
    // Racing update to a row already chosen for eviction: drop it.
    return;
  }
  row->ordering_key = std::move(ordering_key);
  if (spec_.max_bytes > 0) {
    // Unsigned wrap-around of the delta is fine: the global sum stays
    // coherent because every delta is eventually balanced.
    total_bytes_.fetch_add(row_bytes - row->approx_bytes,
                           std::memory_order_acq_rel);
    row->approx_bytes = row_bytes;
  }
  if (row->heap_index == SIZE_MAX) {
    HeapInsertLocked(shard, row.get());
    row->in_heap.store(true, std::memory_order_release);
  } else {
    HeapRepositionLocked(shard, row.get());
  }
}

void Lat::EvictOverBudget(int64_t now_micros, bool notify) {
  if (!OverBudget()) return;

  std::vector<std::shared_ptr<LatRow>> victims;
  {
    // The evict latch serializes budget enforcement so concurrent inserters
    // do not over-evict; the common (non-evicting) insert never touches it.
    std::lock_guard<common::SpinLatch> evict_guard(evict_latch_);
    while (OverBudget()) {
      // Pick the globally least-important row: compare shard heap roots
      // (one short heap-latch hold per shard; the evict latch keeps rows
      // from leaving heaps underneath us, so the chosen root can only have
      // been repositioned by a concurrent update).
      size_t best_shard = SIZE_MAX;
      Row best_key;
      for (size_t s = 0; s < shard_count_; ++s) {
        std::lock_guard<common::SpinLatch> heap_guard(shards_[s].heap_latch);
        if (shards_[s].heap.empty()) continue;
        const Row& root_key = shards_[s].heap[0]->ordering_key;
        if (best_shard == SIZE_MAX || LessImportant(root_key, best_key)) {
          best_shard = s;
          best_key = root_key;
        }
      }
      if (best_shard == SIZE_MAX) break;  // every heap empty: nothing to evict
      Shard& shard = shards_[best_shard];
      LatRow* victim;
      {
        std::lock_guard<common::SpinLatch> heap_guard(shard.heap_latch);
        if (shard.heap.empty()) continue;
        victim = shard.heap[0];
        HeapEraseLocked(&shard, victim);
        victim->evicted = true;
        victim->in_heap.store(false, std::memory_order_release);
        total_bytes_.fetch_sub(victim->approx_bytes,
                               std::memory_order_acq_rel);
        total_rows_.fetch_sub(1, std::memory_order_acq_rel);
      }
      // Unlink from the directory while still under the evict latch (which
      // also excludes Reset) so the strong reference below cannot race a
      // concurrent teardown of the map.
      std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
      if (std::shared_ptr<LatRow> strong = UnlinkLocked(&shard, victim)) {
        victims.push_back(std::move(strong));
      }
    }
  }
  if (victims.empty()) return;
  stats_.evictions.Inc(victims.size());

  // Materialize victims (row latch only) only when someone listens, then
  // notify outside all latches; otherwise the strong references drop here.
  if (notify && evict_callback_ &&
      evict_observed_.load(std::memory_order_acquire)) {
    std::vector<Row> evicted_rows;
    evicted_rows.reserve(victims.size());
    for (const auto& victim : victims) {
      std::lock_guard<common::SpinLatch> row_guard(victim->latch);
      evicted_rows.push_back(MaterializeLocked(*victim, now_micros));
    }
    for (Row& evicted : evicted_rows) evict_callback_(std::move(evicted));
  }
}

void Lat::Reset() {
  std::lock_guard<common::SpinLatch> evict_guard(evict_latch_);
  size_t removed_rows = 0;
  size_t removed_bytes = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    // Map latch nests the heap latch (fixed order, matching Reset's
    // pre-shard behaviour); no other path holds both.
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    std::lock_guard<common::SpinLatch> heap_guard(shard.heap_latch);
    for (auto& [_, head] : shard.map) {
      for (LatRow* row = head.get(); row != nullptr; row = row->next.get()) {
        // Mark rows dead so a racing inserter holding a reference drops
        // its heap maintenance instead of sifting a cleared heap.
        row->evicted = true;
        row->heap_index = SIZE_MAX;
        row->in_heap.store(false, std::memory_order_release);
        ++removed_rows;
        removed_bytes += row->approx_bytes;
      }
    }
    shard.map.clear();
    shard.heap.clear();
  }
  // Subtract what was actually removed (rather than storing zero) so rows
  // added concurrently in already-cleared shards stay accounted.
  total_rows_.fetch_sub(static_cast<int64_t>(removed_rows),
                        std::memory_order_acq_rel);
  total_bytes_.fetch_sub(removed_bytes, std::memory_order_acq_rel);
  reset_generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool Lat::LookupForObject(const void* record, int64_t now_micros,
                          Row* out) const {
  Row& key = ScratchKey();
  key.clear();
  for (AttributeGetter getter : group_getters_) key.push_back(getter(record));
  return LookupByKey(key, now_micros, out);
}

bool Lat::LookupByKey(const Row& group_key, int64_t now_micros,
                      Row* out) const {
  const uint64_t hash = HashGroupKey(group_key);
  Shard& shard = ShardFor(hash);
  std::shared_ptr<LatRow> row;
  {
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    row = FindInShardLocked(shard, hash, group_key);
  }
  if (row == nullptr) return false;
  std::lock_guard<common::SpinLatch> row_guard(row->latch);
  if (!row->filled) return false;
  *out = MaterializeLocked(*row, now_micros);
  return true;
}

std::vector<Row> Lat::Snapshot(int64_t now_micros) const {
  std::vector<Row> out;
  out.reserve(size());
  ForEachFilledRow([&](const LatRow& row) {
    out.push_back(MaterializeLocked(row, now_micros));
  });
  if (!ordering_columns_.empty()) {
    const auto& ordering_cols = ordering_columns_;
    std::stable_sort(out.begin(), out.end(),
                     [this, &ordering_cols](const Row& a, const Row& b) {
                       Row ka, kb;
                       for (int c : ordering_cols) {
                         ka.push_back(a[static_cast<size_t>(c)]);
                         kb.push_back(b[static_cast<size_t>(c)]);
                       }
                       // Most important first.
                       return LessImportant(kb, ka);
                     });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Heap (min-heap on importance; root is the eviction candidate)
// ---------------------------------------------------------------------------

void Lat::HeapInsertLocked(Shard* shard, LatRow* row) {
  row->heap_index = shard->heap.size();
  shard->heap.push_back(row);
  SiftUpLocked(shard, row->heap_index);
}

void Lat::HeapRepositionLocked(Shard* shard, LatRow* row) {
  SiftUpLocked(shard, row->heap_index);
  SiftDownLocked(shard, row->heap_index);
}

void Lat::HeapEraseLocked(Shard* shard, LatRow* row) {
  const size_t i = row->heap_index;
  HeapSwapLocked(shard, i, shard->heap.size() - 1);
  shard->heap.pop_back();
  row->heap_index = SIZE_MAX;
  if (i < shard->heap.size()) {
    SiftUpLocked(shard, i);
    SiftDownLocked(shard, i);
  }
}

void Lat::HeapSwapLocked(Shard* shard, size_t i, size_t j) {
  if (i == j) return;
  std::swap(shard->heap[i], shard->heap[j]);
  shard->heap[i]->heap_index = i;
  shard->heap[j]->heap_index = j;
}

void Lat::SiftUpLocked(Shard* shard, size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!LessImportant(shard->heap[i]->ordering_key,
                       shard->heap[parent]->ordering_key)) {
      break;
    }
    HeapSwapLocked(shard, i, parent);
    i = parent;
  }
}

void Lat::SiftDownLocked(Shard* shard, size_t i) {
  for (;;) {
    const size_t left = 2 * i + 1;
    const size_t right = 2 * i + 2;
    size_t smallest = i;
    if (left < shard->heap.size() &&
        LessImportant(shard->heap[left]->ordering_key,
                      shard->heap[smallest]->ordering_key)) {
      smallest = left;
    }
    if (right < shard->heap.size() &&
        LessImportant(shard->heap[right]->ordering_key,
                      shard->heap[smallest]->ordering_key)) {
      smallest = right;
    }
    if (smallest == i) break;
    HeapSwapLocked(shard, i, smallest);
    i = smallest;
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

/// %-escapes the v2 state-codec delimiters so tagged values can be embedded
/// in the `:`/`;`-delimited blocks codec (and so the codec survives any
/// payload text).
std::string EscapeStateText(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case ':': out += "%3A"; break;
      case ';': out += "%3B"; break;
      default: out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeStateText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    const std::string_view code =
        i + 2 < s.size() ? s.substr(i + 1, 2) : std::string_view();
    if (code == "25") out += '%';
    else if (code == "3A") out += ':';
    else if (code == "3B") out += ';';
    else return Status::ParseError("bad escape in state text '" +
                                   std::string(s) + "'");
    i += 2;
  }
  return out;
}

Result<int64_t> ParseStateInt(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const int64_t v = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::ParseError("bad integer in LAT state: '" + text + "'");
  }
  return v;
}

Result<double> ParseStateDouble(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    return Status::ParseError("bad double in LAT state: '" + text + "'");
  }
  return v;
}

/// Kind-tagged rendering of an arbitrary Value for v2 state columns:
/// N (null), B0/B1, I<decimal>, D<shortest round-trip double>,
/// S<escaped text>. Unlike Value::ToString this is unambiguous per kind, so
/// MIN/MAX/FIRST/LAST restore with their exact original kind.
std::string EncodeTaggedValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return "N";
    case ValueKind::kBool:
      return v.bool_value() ? "B1" : "B0";
    case ValueKind::kInt:
      return "I" + std::to_string(v.int_value());
    case ValueKind::kDouble:
      return "D" + common::FormatDoubleShortest(v.double_value());
    case ValueKind::kString:
      return "S" + EscapeStateText(v.string_value());
  }
  return "N";
}

Result<Value> DecodeTaggedValue(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty tagged value in LAT state");
  const std::string_view payload = s.substr(1);
  switch (s[0]) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(payload == "1");
    case 'I': {
      SQLCM_ASSIGN_OR_RETURN(const int64_t v, ParseStateInt(payload));
      return Value::Int(v);
    }
    case 'D': {
      SQLCM_ASSIGN_OR_RETURN(const double v, ParseStateDouble(payload));
      return Value::Double(v);
    }
    case 'S': {
      SQLCM_ASSIGN_OR_RETURN(std::string text, UnescapeStateText(payload));
      return Value::String(std::move(text));
    }
    default:
      return Status::ParseError("bad tagged value '" + std::string(s) +
                                "' in LAT state");
  }
}

std::vector<std::string_view> SplitStateField(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  for (;;) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Merge-joins `from` into `*into` by block_start (both ascending: blocks
/// are created in time order and shipped in deque order); a block present
/// on both sides is combined by `combine(&into_block, from_block)`.
template <typename Block, typename Combine>
void MergeJoinBlocks(std::deque<Block>* into, const std::deque<Block>& from,
                     Combine combine) {
  std::deque<Block> merged;
  auto it = into->begin();
  for (const Block& block : from) {
    while (it != into->end() && it->block_start < block.block_start) {
      merged.push_back(std::move(*it++));
    }
    if (it != into->end() && it->block_start == block.block_start) {
      merged.push_back(std::move(*it++));
      combine(&merged.back(), block);
    } else {
      merged.push_back(block);
    }
  }
  while (it != into->end()) merged.push_back(std::move(*it++));
  *into = std::move(merged);
}

/// Width rule for tables holding materialized LAT rows (PersistTo,
/// SeedFrom): the LAT's `width` columns, optionally followed by one trailing
/// INT timestamp. Returns whether the timestamp column is present.
Result<bool> HasTimestampColumn(const storage::Table& table, size_t width,
                                const std::string& lat_name) {
  const size_t cols = table.schema().num_columns();
  if (cols != width && cols != width + 1) {
    return Status::InvalidArgument(
        "table '" + table.name() + "' has " + std::to_string(cols) +
        " columns; LAT '" + lat_name + "' rows have " +
        std::to_string(width) + " (+1 optional timestamp)");
  }
  return cols == width + 1;
}

}  // namespace

Status Lat::PersistTo(storage::Table* table, int64_t timestamp_micros,
                      int64_t now_micros) const {
  SQLCM_ASSIGN_OR_RETURN(const bool with_timestamp,
                         HasTimestampColumn(*table, num_columns(), name()));
  for (Row& row : Snapshot(now_micros)) {
    if (with_timestamp) row.push_back(Value::Int(timestamp_micros));
    SQLCM_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
  }
  return Status::OK();
}

bool Lat::AdoptSeededRow(Row group_key, std::vector<AggState> aggs,
                         int64_t now_micros) {
  auto row = std::make_shared<LatRow>();
  row->hash = HashGroupKey(group_key);
  row->group_key = std::move(group_key);
  row->aggs = std::move(aggs);
  Shard& shard = ShardFor(row->hash);
  {
    std::lock_guard<common::SpinLatch> map_guard(shard.map_latch);
    if (FindInShardLocked(shard, row->hash, row->group_key) != nullptr) {
      return false;  // live data wins
    }
    row->next = std::move(shard.map[row->hash]);
    shard.map[row->hash] = row;
  }
  total_rows_.fetch_add(1, std::memory_order_acq_rel);
  // Linked: a concurrent Insert may already be folding into the row, so its
  // ordering key and byte share are read under the row latch like any
  // other write's.
  FoldAndPlace(row, nullptr, Evict::kSilent, now_micros,
               [now_micros](LatRow&) { return now_micros; });
  return true;
}

Status Lat::SeedFrom(const storage::Table& table, int64_t now_micros) {
  if (has_sketch_) {
    // A materialized row carries only the sketch's point answer (one
    // quantile / one estimate); reconstructing sketch state from it via the
    // COUNT-driven ladder would seed garbage that then merges and ships as
    // if it were real history. Fail cleanly instead — sketch-bearing LATs
    // restore from v3 state snapshots (ImportState) only.
    return Status::InvalidArgument(
        "LAT '" + name() +
        "' has sketch aggregates (QUANTILE/DISTINCT); materialized rows "
        "cannot reconstruct sketch state — restore from a v3 state "
        "snapshot (ImportState) instead");
  }
  SQLCM_RETURN_IF_ERROR(
      HasTimestampColumn(table, num_columns(), name()).status());
  // The first non-aging COUNT column drives the seed count n for
  // SUM/AVG/STDEV reconstruction (n = 1 when absent).
  int count_col = -1;
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    if (spec_.aggregates[a].func == LatAggFunc::kCount &&
        !spec_.aggregates[a].aging) {
      count_col = static_cast<int>(group_width() + a);
      break;
    }
  }
  // For every STDEV aggregate, a same-attribute non-aging AVG (preferred)
  // or SUM column recovers the first moment; without one the sum seeds 0.
  // Either way sumsq is derived so the materialized STDEV value
  // round-trips: variance = (sumsq - sum²/n)/(n-1) = s².
  std::vector<int> stdev_source(spec_.aggregates.size(), -1);
  std::vector<bool> stdev_source_is_avg(spec_.aggregates.size(), false);
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    if (spec_.aggregates[a].func != LatAggFunc::kStdev ||
        spec_.aggregates[a].aging) {
      continue;
    }
    for (size_t b = 0; b < spec_.aggregates.size(); ++b) {
      const LatAggColumn& src = spec_.aggregates[b];
      if (src.aging || src.attribute != spec_.aggregates[a].attribute) {
        continue;
      }
      if (src.func == LatAggFunc::kAvg) {
        stdev_source[a] = static_cast<int>(group_width() + b);
        stdev_source_is_avg[a] = true;
        break;  // AVG preferred; stop looking
      }
      if (src.func == LatAggFunc::kSum && stdev_source[a] < 0) {
        stdev_source[a] = static_cast<int>(group_width() + b);
      }
    }
  }

  for (const Row& persisted : table.ScanAll()) {
    std::vector<AggState> aggs(spec_.aggregates.size());
    int64_t seed_count = 1;
    if (count_col >= 0 && persisted[static_cast<size_t>(count_col)].is_int()) {
      seed_count = std::max<int64_t>(
          1, persisted[static_cast<size_t>(count_col)].int_value());
    }
    for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
      const LatAggColumn& col = spec_.aggregates[a];
      if (col.aging) {
        // A materialized row holds only the windowed output value, not
        // the block history; reconstruction would mislabel old data as
        // current. State records (ImportState) restore these.
        continue;
      }
      const Value& v = persisted[group_width() + a];
      AggState& state = aggs[a];
      switch (col.func) {
        case LatAggFunc::kCount:
          state.count = v.is_int() ? v.int_value() : 0;
          break;
        case LatAggFunc::kSum:
          state.count = seed_count;
          state.sum = v.is_numeric() ? v.AsDouble() : 0;
          break;
        case LatAggFunc::kAvg:
          state.count = seed_count;
          state.sum =
              v.is_numeric() ? v.AsDouble() * static_cast<double>(seed_count)
                             : 0;
          break;
        case LatAggFunc::kStdev: {
          state.count = seed_count;
          double sum = 0;
          if (stdev_source[a] >= 0) {
            const Value& src = persisted[static_cast<size_t>(stdev_source[a])];
            if (src.is_numeric()) {
              sum = stdev_source_is_avg[a]
                        ? src.AsDouble() * static_cast<double>(seed_count)
                        : src.AsDouble();
            }
          }
          const double s = v.is_numeric() ? v.AsDouble() : 0;
          const double n = static_cast<double>(seed_count);
          state.sum = sum;
          state.sumsq =
              seed_count >= 2 ? s * s * (n - 1) + sum * sum / n : sum * sum;
          break;
        }
        case LatAggFunc::kMin:
        case LatAggFunc::kMax:
        case LatAggFunc::kFirst:
        case LatAggFunc::kLast:
          state.min = state.max = state.first = state.last = v;
          state.any = !v.is_null();
          break;
        case LatAggFunc::kQuantile:
        case LatAggFunc::kDistinct:
          break;  // unreachable: sketch-bearing specs rejected above
      }
    }
    AdoptSeededRow(
        Row(persisted.begin(),
            persisted.begin() + static_cast<long>(group_width())),
        std::move(aggs), now_micros);
  }
  return Status::OK();
}

std::vector<std::string> Lat::StateColumnNames() const {
  std::vector<std::string> names(
      column_names_.begin(),
      column_names_.begin() + static_cast<long>(group_width()));
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const std::string& alias = column_names_[group_width() + a];
    for (const char* part : {"#count", "#sum", "#sumsq", "#any", "#min",
                             "#max", "#first", "#last", "#blocks"}) {
      names.push_back(alias + part);
    }
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      names.push_back(alias + "#sketch");
    }
  }
  return names;
}

std::vector<ValueKind> Lat::StateColumnKinds() const {
  std::vector<ValueKind> kinds(
      column_kinds_.begin(),
      column_kinds_.begin() + static_cast<long>(group_width()));
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    // #count #sum #sumsq #any, then #min/#max/#first/#last/#blocks.
    kinds.insert(kinds.end(), {ValueKind::kInt, ValueKind::kDouble,
                               ValueKind::kDouble, ValueKind::kBool});
    kinds.insert(kinds.end(), 5, ValueKind::kString);
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      kinds.push_back(ValueKind::kString);  // #sketch
    }
  }
  return kinds;
}

std::vector<Row> Lat::ExportState() const {
  std::vector<Row> records;
  records.reserve(size());
  ForEachFilledRow([&](const LatRow& row) {
    Row record;
    record.reserve(state_width_);
    record.insert(record.end(), row.group_key.begin(), row.group_key.end());
    AppendStateAggs(row.aggs, &record);
    records.push_back(std::move(record));
  });
  return records;
}

void Lat::AppendStateAggs(const std::vector<AggState>& aggs,
                          Row* record) const {
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggState& state = aggs[a];
    record->push_back(Value::Int(state.count));
    record->push_back(Value::Double(state.sum));
    record->push_back(Value::Double(state.sumsq));
    record->push_back(Value::Bool(state.any));
    record->push_back(Value::String(EncodeTaggedValue(state.min)));
    record->push_back(Value::String(EncodeTaggedValue(state.max)));
    record->push_back(Value::String(EncodeTaggedValue(state.first)));
    record->push_back(Value::String(EncodeTaggedValue(state.last)));
    std::string blocks;
    if (state.blocks != nullptr) {
      for (const AgingBlock& block : *state.blocks) {
        if (!blocks.empty()) blocks += ';';
        blocks += std::to_string(block.block_start);
        blocks += ':';
        blocks += std::to_string(block.count);
        blocks += ':';
        blocks += common::FormatDoubleShortest(block.sum);
        blocks += ':';
        blocks += common::FormatDoubleShortest(block.sumsq);
        blocks += ':';
        blocks += block.any ? '1' : '0';
        blocks += ':';
        blocks += EncodeTaggedValue(block.min);
        blocks += ':';
        blocks += EncodeTaggedValue(block.max);
      }
    }
    record->push_back(Value::String(std::move(blocks)));
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      // Empty sketches (no pointer yet) encode to "" so untouched cells
      // stay compact; the codecs never emit `,`/`"`/newline, so the cell is
      // CSV-safe without escaping.
      std::string sketch;
      if (state.qsketch != nullptr) sketch = state.qsketch->Encode();
      if (state.hll != nullptr) sketch = state.hll->Encode();
      record->push_back(Value::String(std::move(sketch)));
    }
  }
}

Status Lat::ImportState(const std::vector<Row>& records,
                        int64_t now_micros) {
  for (const Row& record : records) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(record));
    std::vector<AggState> aggs;
    SQLCM_RETURN_IF_ERROR(ParseStateAggs(record, &aggs));
    AdoptSeededRow(
        Row(record.begin(), record.begin() + static_cast<long>(group_width())),
        std::move(aggs), now_micros);
  }
  return Status::OK();
}

Status Lat::ParseStateAggs(const Row& record,
                           std::vector<AggState>* aggs) const {
  // Every cell is NULL or of its StateColumnKinds() kind (#sum/#sumsq also
  // take an INT); anything else is a foreign or corrupt record.
  const auto kind_error = [&](size_t cell) {
    return Status::ParseError("LAT '" + name() + "' state: cell " +
                              std::to_string(cell) + " has kind " +
                              common::ValueKindName(record[cell].kind()));
  };
  for (size_t c = 0; c < group_width(); ++c) {
    if (!record[c].is_null() && record[c].kind() != column_kinds_[c]) {
      return kind_error(c);
    }
  }
  aggs->clear();
  aggs->resize(spec_.aggregates.size());
  for (size_t a = 0; a < spec_.aggregates.size(); ++a) {
    const size_t base = state_agg_base_[a];
    const size_t end =
        base + (LatAggFuncIsSketch(spec_.aggregates[a].func) ? 10 : 9);
    for (size_t c = base; c < end; ++c) {
      const Value& cell = record[c];
      const bool ok = cell.is_null() ||
                      (c == base       ? cell.is_int()
                       : c < base + 3  ? cell.is_numeric()
                       : c == base + 3 ? cell.is_bool()
                                       : cell.is_string());
      if (!ok) return kind_error(c);
    }
    AggState& state = (*aggs)[a];
    const Value& count_v = record[base];
    const Value& sum_v = record[base + 1];
    const Value& sumsq_v = record[base + 2];
    const Value& any_v = record[base + 3];
    state.count = count_v.is_int() ? count_v.int_value() : 0;
    state.sum = sum_v.is_numeric() ? sum_v.AsDouble() : 0;
    state.sumsq = sumsq_v.is_numeric() ? sumsq_v.AsDouble() : 0;
    state.any = any_v.is_bool() && any_v.bool_value();
    Value* const dest[4] = {&state.min, &state.max, &state.first,
                            &state.last};
    for (int i = 0; i < 4; ++i) {
      const Value& cell = record[base + 4 + static_cast<size_t>(i)];
      if (cell.is_null()) continue;
      SQLCM_ASSIGN_OR_RETURN(*dest[i],
                             DecodeTaggedValue(cell.string_value()));
    }
    const Value& blocks_v = record[base + 8];
    if (blocks_v.is_string() && !blocks_v.string_value().empty()) {
      auto blocks = std::make_unique<std::deque<AgingBlock>>();
      for (std::string_view part :
           SplitStateField(blocks_v.string_value(), ';')) {
        const auto fields = SplitStateField(part, ':');
        if (fields.size() != 7) {
          return Status::ParseError("LAT '" + name() +
                                    "' state: bad aging-block record");
        }
        AgingBlock block;
        SQLCM_ASSIGN_OR_RETURN(block.block_start, ParseStateInt(fields[0]));
        SQLCM_ASSIGN_OR_RETURN(block.count, ParseStateInt(fields[1]));
        SQLCM_ASSIGN_OR_RETURN(block.sum, ParseStateDouble(fields[2]));
        SQLCM_ASSIGN_OR_RETURN(block.sumsq, ParseStateDouble(fields[3]));
        block.any = fields[4] == "1";
        SQLCM_ASSIGN_OR_RETURN(block.min, DecodeTaggedValue(fields[5]));
        SQLCM_ASSIGN_OR_RETURN(block.max, DecodeTaggedValue(fields[6]));
        blocks->push_back(std::move(block));
      }
      state.blocks = std::move(blocks);
    }
    if (LatAggFuncIsSketch(spec_.aggregates[a].func)) {
      const Value& sketch_v = record[base + 9];
      if (sketch_v.is_string() && !sketch_v.string_value().empty()) {
        if (spec_.aggregates[a].func == LatAggFunc::kQuantile) {
          SQLCM_ASSIGN_OR_RETURN(
              QuantileSketch sketch,
              QuantileSketch::Decode(sketch_v.string_value()));
          state.qsketch = std::make_unique<QuantileSketch>(std::move(sketch));
        } else {
          SQLCM_ASSIGN_OR_RETURN(HllSketch sketch,
                                 HllSketch::Decode(sketch_v.string_value()));
          if (sketch.precision() != distinct_precision_) {
            // Mixed precisions cannot max-merge; surfacing the mismatch at
            // decode keeps every later fold infallible.
            return Status::ParseError(
                "LAT '" + name() + "' state: DISTINCT sketch precision " +
                std::to_string(sketch.precision()) + " does not match spec " +
                std::to_string(distinct_precision_));
          }
          state.hll = std::make_unique<HllSketch>(std::move(sketch));
        }
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Federation state arithmetic (delta shipping; src/fed, docs/FEDERATION.md)
// ---------------------------------------------------------------------------

Status Lat::CheckStateRecordWidth(const Row& record) const {
  if (record.size() != state_width_) {
    return Status::InvalidArgument(
        "state record has " + std::to_string(record.size()) +
        " cells; LAT '" + name() + "' state records have " +
        std::to_string(state_width_));
  }
  return Status::OK();
}

void Lat::FoldAggState(AggState* dst, const AggState& src) {
  dst->count += src.count;
  dst->sum += src.sum;
  dst->sumsq += src.sumsq;
  if (src.any) {
    if (!dst->any) dst->first = src.first;
    if (!dst->any || src.min.Compare(dst->min) < 0) dst->min = src.min;
    if (!dst->any || src.max.Compare(dst->max) > 0) dst->max = src.max;
    dst->last = src.last;
    dst->any = true;
  }
  if (src.qsketch != nullptr) {
    if (dst->qsketch == nullptr) {
      dst->qsketch = std::make_unique<QuantileSketch>(*src.qsketch);
    } else {
      dst->qsketch->Merge(*src.qsketch);
    }
    const int ups =
        dst->qsketch->CollapseToBudget(spec_.quantile_sketch_bytes);
    if (ups > 0) stats_.sketch_collapses.Inc(static_cast<uint64_t>(ups));
  }
  if (src.hll != nullptr) {
    if (dst->hll == nullptr) {
      dst->hll = std::make_unique<HllSketch>(*src.hll);
    } else {
      // Same-precision by construction: ParseStateAggs rejects records
      // whose HLL precision differs from this LAT's spec.
      (void)dst->hll->Merge(*src.hll);
    }
  }
  if (src.blocks == nullptr) return;
  if (dst->blocks == nullptr) {
    dst->blocks = std::make_unique<std::deque<AgingBlock>>();
  }
  MergeJoinBlocks(dst->blocks.get(), *src.blocks, &Lat::FoldBlock);
}

void Lat::FoldBlock(AgingBlock* into, const AgingBlock& from) {
  into->count += from.count;
  into->sum += from.sum;
  into->sumsq += from.sumsq;
  if (from.any) {
    if (!into->any || from.min.Compare(into->min) < 0) into->min = from.min;
    if (!into->any || from.max.Compare(into->max) > 0) into->max = from.max;
    into->any = true;
  }
}

void Lat::TrimBlocks(std::deque<AgingBlock>* blocks, int64_t now_micros,
                     bool prune) {
  while (prune && !blocks->empty() &&
         BlockExpired(blocks->front(), now_micros)) {
    blocks->pop_front();
  }
  // max_aging_blocks_ is 0 for specs without aging aggregates; a merged
  // record can still carry blocks for them, so never cap below one.
  while (blocks->size() > std::max<size_t>(max_aging_blocks_, 1)) {
    FoldBlock(&(*blocks)[1], blocks->front());
    blocks->pop_front();
    stats_.aging_merges.Inc();
  }
}

Result<Lat::StateDeltaMode> Lat::DiffStateRecord(const Row& current,
                                                 const Row* baseline,
                                                 Row* delta) const {
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(current));
  delta->clear();
  std::vector<AggState> cur;
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(current, &cur));

  // No baseline (new group) and a restarted group (any additive count went
  // backwards) both ship the full cumulative record.
  bool fresh = baseline == nullptr;
  std::vector<AggState> base;
  if (!fresh) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(*baseline));
    SQLCM_RETURN_IF_ERROR(ParseStateAggs(*baseline, &base));
    for (size_t a = 0; a < cur.size() && !fresh; ++a) {
      if (cur[a].count < base[a].count) fresh = true;
      if (cur[a].blocks == nullptr || base[a].blocks == nullptr) continue;
      auto bi = base[a].blocks->begin();
      const auto bend = base[a].blocks->end();
      for (const AgingBlock& cb : *cur[a].blocks) {
        while (bi != bend && bi->block_start < cb.block_start) ++bi;
        if (bi != bend && bi->block_start == cb.block_start &&
            cb.count < bi->count) {
          fresh = true;
          break;
        }
      }
    }
  }
  if (fresh) {
    bool any_data = false;
    for (const AggState& state : cur) {
      if (state.count != 0 || state.any) any_data = true;
      if (state.blocks != nullptr && !state.blocks->empty()) any_data = true;
    }
    if (!any_data) return StateDeltaMode::kNone;
    *delta = current;
    return StateDeltaMode::kFresh;
  }

  // Incremental: additive moments diff; cumulative fields (#any/#min/#max/
  // #first/#last, HLL registers) pass through unchanged.
  // Every state mutation increments an additive count (top-level or block),
  // so "all count increments are zero" is a complete no-change test.
  bool changed = false;
  for (size_t a = 0; a < cur.size(); ++a) {
    AggState& d = cur[a];  // becomes the delta in place
    const AggState& b = base[a];
    d.count -= b.count;
    d.sum -= b.sum;
    d.sumsq -= b.sumsq;
    if (d.count != 0) changed = true;
    if (d.qsketch != nullptr) {
      // Quantile sketches are additive: ship the bucket-count increments
      // since the baseline (Subtract aligns the baseline up to the current
      // collapse level first, so a mid-epoch collapse still diffs cleanly).
      if (b.qsketch != nullptr) d.qsketch->Subtract(*b.qsketch);
      if (d.qsketch->empty()) d.qsketch.reset();
    }
    // HLL registers are fold-stable (max-merge is idempotent): the delta
    // carries the cumulative register array, like #min/#max.
    if (d.blocks == nullptr) continue;
    auto bi = b.blocks != nullptr ? b.blocks->begin()
                                  : std::deque<AgingBlock>::iterator();
    const auto bend = b.blocks != nullptr ? b.blocks->end()
                                          : std::deque<AgingBlock>::iterator();
    std::deque<AgingBlock> shipped;
    for (const AgingBlock& cb : *d.blocks) {
      while (bi != bend && bi->block_start < cb.block_start) ++bi;
      if (bi != bend && bi->block_start == cb.block_start) {
        if (cb.count == bi->count) continue;  // untouched since baseline
        AgingBlock inc = cb;  // cumulative min/max/any pass through
        inc.count = cb.count - bi->count;
        inc.sum = cb.sum - bi->sum;
        inc.sumsq = cb.sumsq - bi->sumsq;
        shipped.push_back(std::move(inc));
      } else {
        shipped.push_back(cb);  // block opened since baseline: whole block
      }
      changed = true;
    }
    d.blocks = shipped.empty() ? nullptr
                               : std::make_unique<std::deque<AgingBlock>>(
                                     std::move(shipped));
  }
  if (!changed) return StateDeltaMode::kNone;
  delta->reserve(current.size());
  delta->insert(delta->end(), current.begin(),
                current.begin() + static_cast<long>(group_width()));
  AppendStateAggs(cur, delta);
  return StateDeltaMode::kIncremental;
}

Result<Row> Lat::CombineStateRecords(const Row& base, const Row& delta,
                                     StateDeltaMode mode) const {
  if (mode == StateDeltaMode::kNone) return base;
  if (mode == StateDeltaMode::kFresh) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(delta));
    return delta;
  }
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(base));
  SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(delta));
  std::vector<AggState> out, inc;
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(base, &out));
  SQLCM_RETURN_IF_ERROR(ParseStateAggs(delta, &inc));
  for (size_t a = 0; a < out.size(); ++a) {
    AggState& r = out[a];
    const AggState& d = inc[a];
    r.count += d.count;
    r.sum += d.sum;
    r.sumsq += d.sumsq;
    // Cumulative fields: the delta carries the diffed record's values
    // verbatim, so they replace (any never regresses outside kFresh).
    r.any = d.any;
    r.min = d.min;
    r.max = d.max;
    r.first = d.first;
    r.last = d.last;
    if (d.qsketch != nullptr) {
      // Additive: add the shipped increments onto the baseline's sketch.
      if (r.qsketch == nullptr) {
        r.qsketch = std::make_unique<QuantileSketch>(*d.qsketch);
      } else {
        r.qsketch->Merge(*d.qsketch);
      }
    }
    if (d.hll != nullptr) {
      // Cumulative: the delta's register array replaces, like #min/#max.
      r.hll = std::make_unique<HllSketch>(*d.hll);
    }
    if (d.blocks == nullptr) continue;
    if (r.blocks == nullptr) {
      r.blocks = std::make_unique<std::deque<AgingBlock>>();
    }
    MergeJoinBlocks(r.blocks.get(), *d.blocks,
                    [](AgingBlock* b, const AgingBlock& db) {
                      b->count += db.count;
                      b->sum += db.sum;
                      b->sumsq += db.sumsq;
                      b->min = db.min;  // cumulative per block in the delta
                      b->max = db.max;
                      b->any = db.any;
                    });
  }
  Row combined;
  combined.reserve(base.size());
  combined.insert(combined.end(), delta.begin(),
                  delta.begin() + static_cast<long>(group_width()));
  AppendStateAggs(out, &combined);
  return combined;
}

Status Lat::MergeState(const std::vector<Row>& records,
                       int64_t now_micros) {
  for (const Row& record : records) {
    SQLCM_RETURN_IF_ERROR(CheckStateRecordWidth(record));
    std::vector<AggState> incoming;
    SQLCM_RETURN_IF_ERROR(ParseStateAggs(record, &incoming));
    const std::shared_ptr<LatRow> row = GetOrCreateRow(
        Row(record.begin(), record.begin() + static_cast<long>(group_width())),
        nullptr);
    FoldAndPlace(row, nullptr, Evict::kSilent, now_micros, [&](LatRow& r) {
      for (size_t a = 0; a < r.aggs.size(); ++a) {
        FoldAggState(&r.aggs[a], incoming[a]);
        if (r.aggs[a].blocks != nullptr) {
          TrimBlocks(r.aggs[a].blocks.get(), now_micros, /*prune=*/true);
        }
      }
      return now_micros;
    });
  }
  return Status::OK();
}

}  // namespace sqlcm::cm
