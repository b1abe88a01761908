// Token-list codec for the `tokens` column, WAL upserts and spill files.
//
// A pattern's exact token list is stored as a JSON array of objects:
//
//   variable: {"n":<name>,"s":<space_before>,"t":<type tag>,"v":true}
//   constant: {"s":<space_before>,"v":false,"x":<text>}
//
// Keys are written in sorted order and strings with util::json_escape's
// escapes, which is byte-for-byte what util::Json::dump() produced for
// the same list; snapshots, WAL records and spill files written by either
// encoder are interchangeable.
//
// The decoder is a single pass over the bytes with no intermediate DOM,
// on the reader it shares with the stream ingester (util/json_reader.hpp).
// It accepts exactly the documents the util::Json route accepted (any valid
// JSON under util::json_parse's grammar and nesting cap, whose top level
// is an array of objects with boolean "v" and "s", and a string "x" when
// "v" is false) and returns the same tokens: unknown keys are skipped,
// the last duplicate key wins, a missing or non-string "t" reads as
// "string" and a missing or non-string "n" as "". The DOM route survives
// in tests/store/token_codec_test.cpp as the differential reference.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/pattern.hpp"

namespace seqrtg::store {

/// Serialises pattern tokens to the JSON wire form stored in `tokens`.
std::string pattern_tokens_to_json(
    const std::vector<core::PatternToken>& tokens);

/// Parses the JSON wire form; std::nullopt on malformed input.
std::optional<std::vector<core::PatternToken>> pattern_tokens_from_json(
    std::string_view json);

}  // namespace seqrtg::store
