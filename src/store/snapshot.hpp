// Snapshot files: the line-oriented `seqrtgdb 1` format that persists
// whole tables (DESIGN.md §10).
//
//   file  := "seqrtgdb 1\n" table*
//   table := "table " name " " ncols " " pk "\n"
//            ("col " name " " type "\n")*
//            ("row" ("\t" value)* "\n")*
//            "end\n"
//
// `type` is NULL, INTEGER, REAL or TEXT; `pk` is the index of the PRIMARY
// KEY column, -1 when keyless; each `value` is Value::encode()'s form
// (JSON-escaped text, so a value never holds a raw tab or newline).
// Tables are written in name order and their live rows in insertion order,
// so tombstones are compacted. Secondary indexes are not persisted.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "store/table.hpp"

namespace seqrtg::store {

using TableMap = std::map<std::string, Table, std::less<>>;

/// Writes `tables` to `path`. Returns false on I/O error.
bool save_snapshot(const std::string& path,
                   const std::map<std::string_view, const Table*>& tables);

/// Parses the snapshot at `path`; std::nullopt on I/O or parse errors.
std::optional<TableMap> load_snapshot(const std::string& path);

}  // namespace seqrtg::store
