// Heap-of-record table with a clustered B+-tree primary index and optional
// secondary B+-tree indexes.
//
// Physical consistency (index structure) is protected by a per-table
// shared_mutex ("latch"); *logical* isolation between transactions is the
// job of txn::LockManager one level up. Scans copy rows out in batches so
// the latch is never held while a transaction blocks on a lock.
#ifndef SQLCM_STORAGE_TABLE_H_
#define SQLCM_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/bplus_tree.h"

namespace sqlcm::storage {

/// Description of one secondary index.
struct IndexInfo {
  std::string name;
  std::vector<size_t> columns;  // ordinals into the table schema
};

class Table {
 public:
  /// `table_id` is the catalog-assigned stable id used in lock resources.
  Table(uint32_t table_id, catalog::TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  uint32_t table_id() const { return table_id_; }
  const catalog::TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.table_name(); }

  /// Number of rows (approximate under concurrency; exact when quiesced).
  size_t row_count() const { return row_count_.load(std::memory_order_relaxed); }

  // -- Primary-key plumbing ------------------------------------------------

  /// The key a row is stored under: declared PK values, or the implicit
  /// rowid for tables without a declared key (stored out-of-band).
  /// For implicit-rowid tables the key is assigned at insert and returned.
  bool uses_implicit_rowid() const { return !schema_.has_primary_key(); }

  // -- Mutations (validate + maintain all indexes) -------------------------

  /// Validates and inserts `row`; returns the storage key. AlreadyExists on
  /// duplicate primary key.
  common::Result<common::Row> Insert(common::Row row);

  /// Inserts with a caller-chosen key (used by rollback of deletes on
  /// implicit-rowid tables, and CSV restore).
  common::Status InsertWithKey(const common::Row& key, common::Row row);

  /// Deletes by storage key; returns the old row. NotFound if absent.
  common::Result<common::Row> Delete(const common::Row& key);

  /// Replaces the row stored at `key`; the new row must map to the same
  /// key. Returns the old row. NotFound if absent.
  common::Result<common::Row> Update(const common::Row& key,
                                     common::Row new_row);

  // -- Reads ---------------------------------------------------------------

  /// Point lookup by storage key.
  std::optional<common::Row> Get(const common::Row& key) const;

  /// Copies up to `limit` (row-key, row) pairs with key > `after` (or from
  /// the start when `after` is empty) in key order. Returns count copied;
  /// 0 means end of table. Latch released between calls.
  size_t ScanBatch(const std::optional<common::Row>& after, size_t limit,
                   std::vector<common::Row>* keys_out,
                   std::vector<common::Row>* rows_out) const;

  /// Every row in key order (ScanBatch until the end of the table).
  std::vector<common::Row> ScanAll() const;

  /// Rows whose index key starts with `prefix` (equality on the first
  /// |prefix| index columns). `index_name` empty means the primary index.
  /// Appends (key, row) pairs. NotFound for unknown index name.
  common::Status IndexPrefixLookup(std::string_view index_name,
                                   const common::Row& prefix,
                                   std::vector<common::Row>* keys_out,
                                   std::vector<common::Row>* rows_out) const;

  /// Rows whose *first* index column lies in [lo, hi] (either bound may be
  /// absent). `index_name` empty means primary index.
  common::Status IndexRangeLookup(std::string_view index_name,
                                  const std::optional<common::Value>& lo,
                                  const std::optional<common::Value>& hi,
                                  std::vector<common::Row>* keys_out,
                                  std::vector<common::Row>* rows_out) const;

  // -- Secondary indexes ---------------------------------------------------

  /// Builds a secondary index over existing data.
  common::Status CreateIndex(const std::string& name,
                             const std::vector<std::string>& column_names);

  const std::vector<IndexInfo>& indexes() const { return index_infos_; }

  /// Returns the index whose column list starts with the given ordinal, to
  /// let the optimizer match predicates to access paths. Empty string =
  /// primary. nullopt if none.
  std::optional<std::string> FindIndexOnColumn(size_t column_ordinal) const;

  /// Removes every row. Used by Reset-style maintenance and tests.
  void Truncate();

  // -- Virtual (system-view) tables ----------------------------------------

  /// Marks this table as a read-only system view whose contents are
  /// rebuilt on demand: `refresh` runs at the start of every fresh scan or
  /// index lookup, *before* the table latch is taken, and is expected to
  /// repopulate the table (Truncate + Insert). The callback must serialize
  /// itself against concurrent refreshes. DML/DROP rejection for virtual
  /// tables is enforced one level up, in the planner and session.
  void SetVirtualRefresh(std::function<void()> refresh);

  bool is_virtual() const {
    return is_virtual_.load(std::memory_order_acquire);
  }

 private:
  /// Runs the refresh callback for virtual tables; no-op otherwise.
  void MaybeRefresh() const;

  struct Secondary {
    IndexInfo info;
    // Key = index column values + primary key (for uniqueness); payload =
    // primary key.
    std::unique_ptr<BPlusTree<common::Row>> tree;
  };

  common::Row MakeSecondaryKey(const Secondary& sec, const common::Row& row,
                               const common::Row& pk) const;

  // Precondition: caller holds latch_ exclusively.
  common::Status InsertLocked(const common::Row& key, common::Row row);
  common::Result<common::Row> DeleteLocked(const common::Row& key);

  const uint32_t table_id_;
  const catalog::TableSchema schema_;

  mutable std::shared_mutex latch_;
  BPlusTree<common::Row> primary_;
  std::vector<Secondary> secondaries_;
  std::vector<IndexInfo> index_infos_;  // mirrors secondaries_ for readers
  std::atomic<int64_t> next_rowid_{1};
  std::atomic<size_t> row_count_{0};

  std::atomic<bool> is_virtual_{false};
  std::function<void()> refresh_;  // immutable once is_virtual_ is set
};

}  // namespace sqlcm::storage

#endif  // SQLCM_STORAGE_TABLE_H_
