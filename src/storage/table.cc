#include "storage/table.h"

#include <mutex>

#include "common/string_util.h"

namespace sqlcm::storage {

using common::Result;
using common::Row;
using common::Status;
using common::Value;

Table::Table(uint32_t table_id, catalog::TableSchema schema)
    : table_id_(table_id), schema_(std::move(schema)) {}

Row Table::MakeSecondaryKey(const Secondary& sec, const Row& row,
                            const Row& pk) const {
  Row key;
  key.reserve(sec.info.columns.size() + pk.size());
  for (size_t col : sec.info.columns) key.push_back(row[col]);
  for (const Value& v : pk) key.push_back(v);
  return key;
}

Result<Row> Table::Insert(Row row) {
  SQLCM_ASSIGN_OR_RETURN(row, schema_.ValidateRow(std::move(row)));
  Row key;
  if (uses_implicit_rowid()) {
    key.push_back(
        Value::Int(next_rowid_.fetch_add(1, std::memory_order_relaxed)));
  } else {
    key = schema_.KeyOf(row);
    for (const Value& v : key) {
      if (v.is_null()) {
        return Status::InvalidArgument("NULL in primary key of table '" +
                                       name() + "'");
      }
    }
  }
  std::unique_lock lock(latch_);
  SQLCM_RETURN_IF_ERROR(InsertLocked(key, std::move(row)));
  return key;
}

Status Table::InsertWithKey(const Row& key, Row row) {
  SQLCM_ASSIGN_OR_RETURN(row, schema_.ValidateRow(std::move(row)));
  std::unique_lock lock(latch_);
  if (uses_implicit_rowid() && key.size() == 1 && key[0].is_int()) {
    // Keep the rowid counter ahead of explicitly supplied keys.
    int64_t next = next_rowid_.load(std::memory_order_relaxed);
    if (key[0].int_value() >= next) {
      next_rowid_.store(key[0].int_value() + 1, std::memory_order_relaxed);
    }
  }
  return InsertLocked(key, std::move(row));
}

Status Table::InsertLocked(const Row& key, Row row) {
  Row row_copy = row;  // row moves into the tree; copy for index maintenance
  if (!primary_.Insert(key, std::move(row))) {
    std::string key_text;
    for (const Value& v : key) {
      if (!key_text.empty()) key_text += ", ";
      key_text += v.ToString();
    }
    return Status::AlreadyExists("duplicate primary key (" + key_text +
                                 ") in table '" + name() + "'");
  }
  for (Secondary& sec : secondaries_) {
    sec.tree->Insert(MakeSecondaryKey(sec, row_copy, key), key);
  }
  row_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<Row> Table::Delete(const Row& key) {
  std::unique_lock lock(latch_);
  return DeleteLocked(key);
}

Result<Row> Table::DeleteLocked(const Row& key) {
  Row* stored = primary_.Find(key);
  if (stored == nullptr) {
    return Status::NotFound("key not found in table '" + name() + "'");
  }
  Row old_row = *stored;
  primary_.Erase(key);
  for (Secondary& sec : secondaries_) {
    sec.tree->Erase(MakeSecondaryKey(sec, old_row, key));
  }
  row_count_.fetch_sub(1, std::memory_order_relaxed);
  return old_row;
}

Result<Row> Table::Update(const Row& key, Row new_row) {
  SQLCM_ASSIGN_OR_RETURN(new_row, schema_.ValidateRow(std::move(new_row)));
  if (!uses_implicit_rowid()) {
    const Row new_key = schema_.KeyOf(new_row);
    if (CompareKeys(new_key, key) != 0) {
      return Status::InvalidArgument(
          "Update may not change the primary key; use Delete+Insert");
    }
  }
  std::unique_lock lock(latch_);
  Row* stored = primary_.Find(key);
  if (stored == nullptr) {
    return Status::NotFound("key not found in table '" + name() + "'");
  }
  Row old_row = *stored;
  for (Secondary& sec : secondaries_) {
    const Row old_sk = MakeSecondaryKey(sec, old_row, key);
    const Row new_sk = MakeSecondaryKey(sec, new_row, key);
    if (CompareKeys(old_sk, new_sk) != 0) {
      sec.tree->Erase(old_sk);
      sec.tree->Insert(new_sk, key);
    }
  }
  *stored = std::move(new_row);
  return old_row;
}

std::optional<Row> Table::Get(const Row& key) const {
  std::shared_lock lock(latch_);
  const Row* stored = primary_.Find(key);
  if (stored == nullptr) return std::nullopt;
  return *stored;
}

void Table::SetVirtualRefresh(std::function<void()> refresh) {
  refresh_ = std::move(refresh);
  is_virtual_.store(true, std::memory_order_release);
}

void Table::MaybeRefresh() const {
  // Refresh runs before the table latch is taken: the callback repopulates
  // the table through the normal mutation API (which takes the latch
  // itself), so no latch is ever held across it.
  if (!is_virtual()) return;
  refresh_();
}

size_t Table::ScanBatch(const std::optional<Row>& after, size_t limit,
                        std::vector<Row>* keys_out,
                        std::vector<Row>* rows_out) const {
  // Only the first batch of a scan refreshes; resumed batches (after set)
  // read the snapshot built at scan start, keeping pagination stable.
  if (!after.has_value()) MaybeRefresh();
  std::shared_lock lock(latch_);
  auto& primary = const_cast<BPlusTree<Row>&>(primary_);
  auto it = after.has_value() ? primary.LowerBound(*after) : primary.Begin();
  // LowerBound is inclusive; skip the resume key itself.
  if (after.has_value() && it.Valid() && CompareKeys(it.key(), *after) == 0) {
    it.Next();
  }
  size_t copied = 0;
  while (it.Valid() && copied < limit) {
    keys_out->push_back(it.key());
    rows_out->push_back(it.value());
    it.Next();
    ++copied;
  }
  return copied;
}

std::vector<Row> Table::ScanAll() const {
  std::vector<Row> keys, rows;
  std::optional<Row> after;
  while (ScanBatch(after, 1024, &keys, &rows) > 0) after = keys.back();
  return rows;
}

Status Table::IndexPrefixLookup(std::string_view index_name, const Row& prefix,
                                std::vector<Row>* keys_out,
                                std::vector<Row>* rows_out) const {
  MaybeRefresh();
  std::shared_lock lock(latch_);
  auto prefix_matches = [&prefix](const Row& key) {
    if (key.size() < prefix.size()) return false;
    for (size_t i = 0; i < prefix.size(); ++i) {
      if (key[i] != prefix[i]) return false;
    }
    return true;
  };
  if (index_name.empty()) {
    auto& primary = const_cast<BPlusTree<Row>&>(primary_);
    for (auto it = primary.LowerBound(prefix);
         it.Valid() && prefix_matches(it.key()); it.Next()) {
      keys_out->push_back(it.key());
      rows_out->push_back(it.value());
    }
    return Status::OK();
  }
  for (const Secondary& sec : secondaries_) {
    if (!common::EqualsIgnoreCase(sec.info.name, index_name)) continue;
    auto& primary = const_cast<BPlusTree<Row>&>(primary_);
    for (auto it = sec.tree->LowerBound(prefix);
         it.Valid() && prefix_matches(it.key()); it.Next()) {
      const Row& pk = it.value();
      const Row* row = primary.Find(pk);
      if (row != nullptr) {
        keys_out->push_back(pk);
        rows_out->push_back(*row);
      }
    }
    return Status::OK();
  }
  return Status::NotFound("index '" + std::string(index_name) +
                          "' not found on table '" + name() + "'");
}

Status Table::IndexRangeLookup(std::string_view index_name,
                               const std::optional<Value>& lo,
                               const std::optional<Value>& hi,
                               std::vector<Row>* keys_out,
                               std::vector<Row>* rows_out) const {
  MaybeRefresh();
  std::shared_lock lock(latch_);
  auto in_range = [&](const Row& key) {
    if (key.empty()) return false;
    if (hi.has_value() && key[0].Compare(*hi) > 0) return false;
    return true;
  };
  Row start;
  if (lo.has_value()) start.push_back(*lo);

  auto scan_tree = [&](BPlusTree<Row>& tree, bool is_primary) {
    auto it = lo.has_value() ? tree.LowerBound(start) : tree.Begin();
    for (; it.Valid() && in_range(it.key()); it.Next()) {
      if (is_primary) {
        keys_out->push_back(it.key());
        rows_out->push_back(it.value());
      } else {
        const Row& pk = it.value();
        const Row* row = const_cast<BPlusTree<Row>&>(primary_).Find(pk);
        if (row != nullptr) {
          keys_out->push_back(pk);
          rows_out->push_back(*row);
        }
      }
    }
  };

  if (index_name.empty()) {
    scan_tree(const_cast<BPlusTree<Row>&>(primary_), /*is_primary=*/true);
    return Status::OK();
  }
  for (const Secondary& sec : secondaries_) {
    if (common::EqualsIgnoreCase(sec.info.name, index_name)) {
      scan_tree(*sec.tree, /*is_primary=*/false);
      return Status::OK();
    }
  }
  return Status::NotFound("index '" + std::string(index_name) +
                          "' not found on table '" + name() + "'");
}

Status Table::CreateIndex(const std::string& name,
                          const std::vector<std::string>& column_names) {
  if (column_names.empty()) {
    return Status::InvalidArgument("index must cover at least one column");
  }
  Secondary sec;
  sec.info.name = name;
  for (const std::string& col : column_names) {
    const int ordinal = schema_.FindColumn(col);
    if (ordinal < 0) {
      return Status::NotFound("column '" + col + "' not found in table '" +
                              this->name() + "'");
    }
    sec.info.columns.push_back(static_cast<size_t>(ordinal));
  }
  std::unique_lock lock(latch_);
  for (const Secondary& existing : secondaries_) {
    if (common::EqualsIgnoreCase(existing.info.name, name)) {
      return Status::AlreadyExists("index '" + name + "' already exists");
    }
  }
  sec.tree = std::make_unique<BPlusTree<Row>>();
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    sec.tree->Insert(MakeSecondaryKey(sec, it.value(), it.key()), it.key());
  }
  index_infos_.push_back(sec.info);
  secondaries_.push_back(std::move(sec));
  return Status::OK();
}

std::optional<std::string> Table::FindIndexOnColumn(
    size_t column_ordinal) const {
  // Prefer the clustered (primary) index.
  if (schema_.has_primary_key() && schema_.primary_key()[0] == column_ordinal) {
    return std::string();
  }
  std::shared_lock lock(latch_);
  for (const IndexInfo& info : index_infos_) {
    if (!info.columns.empty() && info.columns[0] == column_ordinal) {
      return info.name;
    }
  }
  return std::nullopt;
}

void Table::Truncate() {
  std::unique_lock lock(latch_);
  // Rebuild empty trees; cheapest way to drop all nodes.
  std::vector<Row> keys;
  for (auto it = primary_.Begin(); it.Valid(); it.Next()) {
    keys.push_back(it.key());
  }
  for (const Row& k : keys) primary_.Erase(k);
  for (Secondary& sec : secondaries_) {
    sec.tree = std::make_unique<BPlusTree<Row>>();
  }
  row_count_.store(0, std::memory_order_relaxed);
}

}  // namespace sqlcm::storage
