// Snapshot files: the line-oriented `seqrtgdb 1` format that persists the
// pattern store's rows (DESIGN.md §10).
//
//   file  := "seqrtgdb 1\n" table*
//   table := "table " name " " ncols " " pk "\n"
//            ("col " name " " type "\n")*
//            ("row" ("\t" cell)* "\n")*
//            "end\n"
//
// The store writes its two tables in name order, each row in insertion
// order:
//
//   examples(pid TEXT, seq INTEGER, message TEXT)                 pk -1
//   patterns(pid TEXT PRIMARY KEY, service TEXT, ptext TEXT,
//            tokens TEXT, token_count INTEGER, complexity REAL,
//            match_count INTEGER, first_seen INTEGER,
//            last_matched INTEGER)                                pk 0
//
// A cell is a tag and a body: `N` (NULL), `I` + %lld, `R` + %.17g, or `T` +
// JSON-escaped text, so a cell never holds a raw tab or newline. `seq` is
// the example's position in its pattern's list.
//
// The loader reads any table: every cell must decode (`I` by strtoll, `R`
// by strtod, `T` through util::JsonReader), a row must have one cell per
// column, a key column past the last column is an error, and so is a
// repeated key. A type word other than INTEGER or REAL reads as TEXT, and
// a later table of the same name replaces an earlier one. Tables other
// than the store's two are then ignored; the store's two must be present
// with exactly the schema above and every cell of its column's type.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace seqrtg::store {

/// One example of a pattern (an `examples` row).
struct ExampleRow {
  std::string message;
  /// Insertion stamp: the examples table lists rows in stamp order.
  std::uint64_t stamp = 0;
};

/// One pattern: its `patterns` row (the pid is its key in PatternRows)
/// plus its examples in seq order.
struct PatternRow {
  std::string service;
  std::string ptext;
  /// The exact token list as JSON (store/token_codec.hpp).
  std::string tokens;
  std::int64_t token_count = 0;
  double complexity = 0.0;
  std::int64_t match_count = 0;
  std::int64_t first_seen = 0;
  std::int64_t last_matched = 0;
  /// Insertion stamp: the patterns table lists rows in stamp order, and
  /// export breaks match-count ties by it.
  std::uint64_t stamp = 0;
  std::vector<ExampleRow> examples;
};

/// Every pattern row by pid. A pid is global: SHA-1 over text and service
/// with no separator, so text `ab` in service `c` and text `a` in service
/// `bc` share one row, the first one's.
using PatternRows = std::unordered_map<std::string, PatternRow>;

/// Writes `rows` to `path`. Returns false on I/O error.
bool save_snapshot(const std::string& path, const PatternRows& rows);

/// Reads the snapshot at `path`, stamping rows in file order; std::nullopt
/// when the file cannot be read or breaks a rule above.
std::optional<PatternRows> load_snapshot(const std::string& path);

}  // namespace seqrtg::store
