// Table: rows + schema + equality indexes for the pattern store.
//
// Rows live in an append-only arena with tombstone deletion so index entries
// (row ids) stay stable; compaction happens when a snapshot is written. One
// optional UNIQUE primary-key index plus any number of secondary
// (non-unique) equality indexes. This is deliberately a hash-index design:
// every lookup the pattern store makes is an equality lookup (by id, by
// service) or a walk over all rows, so B-trees would buy nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "store/value.hpp"

namespace seqrtg::store {

struct Column {
  std::string name;
  ValueType type = ValueType::Text;

  bool operator==(const Column&) const = default;
};

struct Schema {
  std::vector<Column> columns;
  /// Index into `columns` of the PRIMARY KEY column; -1 when keyless.
  int primary_key = -1;

  int column_index(std::string_view name) const;

  bool operator==(const Schema&) const = default;
};

/// Stable row identifier within a table (arena slot). Ids grow with
/// insertion, so ascending ids are insertion order.
using RowId = std::size_t;

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }

  /// Number of live rows.
  std::size_t size() const { return live_count_; }

  /// Inserts a row (must match the schema arity; values are not
  /// type-coerced — callers bind correct types). Fails (returns false)
  /// on primary-key violation.
  bool insert(Row row);

  /// Primary-key point lookup.
  std::optional<RowId> find_pk(const Value& key) const;

  /// Adds a secondary equality index over `column` (backfills existing
  /// rows). Returns false for unknown columns.
  bool add_index(std::string_view column);

  /// All live rows whose `column` equals `key`, in insertion order.
  /// `column` must carry an index (add_index); any other column finds
  /// nothing.
  std::vector<RowId> find_eq(std::string_view column, const Value& key) const;

  const Row& row(RowId id) const { return *rows_[id]; }

  /// In-place update. Re-indexes only the indexed columns whose value
  /// changes, keeping each index in insertion order. Returns false when
  /// the primary key would collide.
  bool update_row(RowId id, Row new_values);

  void erase(RowId id);

  /// Live rows in insertion order (compacted view, used by persistence).
  std::vector<const Row*> snapshot() const;

 private:
  struct Index {
    std::string column_name;
    std::size_t column = 0;
    /// value encode() -> row ids, ascending.
    std::unordered_map<std::string, std::vector<RowId>> ids;
  };

  void link(Index& index, const Value& key, RowId id);
  void unlink(Index& index, const Value& key, RowId id);

  Schema schema_;
  std::vector<std::optional<Row>> rows_;
  std::size_t live_count_ = 0;
  /// pk encode() -> RowId.
  std::unordered_map<std::string, RowId> pk_index_;
  std::vector<Index> secondary_;
};

}  // namespace seqrtg::store
