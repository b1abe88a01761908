// The parser's matching rules as an insertion-built pointer trie — the
// reference the compiled core::MatchProgram is differential-tested against.
//
// Each service gets one trie per exact token count and one per fixed-prefix
// length of patterns ending in %rest%. A node holds per-text literal edges
// (a hash map of child pointers) and at most one wildcard edge per variable
// type, in the order the types were first added. Matching is a recursive
// depth-first walk: exact lengths before %rest% prefixes (longest first),
// the literal edge before the wildcards, the first pattern added at a
// terminal. Field values are collected along the walk; field names come
// from the matched pattern's own variables.
//
// It shares nothing with MatchProgram except core::variable_matches and
// core::reconstruct, so a divergence between the two points at the
// compiled program's construction or walk.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/parser.hpp"
#include "core/pattern.hpp"
#include "core/token.hpp"
#include "util/interner.hpp"

namespace seqrtg::testkit {

class ReferenceMatcher {
 public:
  /// Inserts `p` into its service's trie. `p` is not copied: it must
  /// outlive the matcher, and a match reports its address (pass the copy
  /// core::Parser::add_pattern returns to compare pattern identity).
  void add_pattern(const core::Pattern& p);

  /// Matches a scanned-and-promoted token sequence; std::nullopt on no
  /// match.
  std::optional<core::ParseResult> match_tokens(
      std::string_view service, const std::vector<core::Token>& tokens) const;

 private:
  struct Node {
    // Transparent hashing: probed with the token's string_view.
    std::unordered_map<std::string, std::unique_ptr<Node>, util::StringHash,
                       std::equal_to<>>
        literal_edges;
    // Wildcard edges in insertion order, one per variable type.
    struct VarEdge {
      core::TokenType type;
      std::unique_ptr<Node> node;
    };
    std::vector<VarEdge> var_edges;
    const core::Pattern* terminal = nullptr;
    /// Terminal reached via a %rest% marker: matches any token suffix.
    const core::Pattern* rest_terminal = nullptr;
  };
  struct ServiceIndex {
    // Keyed by token count; patterns with %rest% live under the count of
    // tokens preceding the marker in a separate prefix index.
    std::map<std::size_t, Node> exact;
    std::map<std::size_t, Node> rest_prefix;
  };

  /// Walks `node` from position `i`; succeeds on the terminal (or, with
  /// `rest`, the rest terminal) of the node reached at position `end`.
  static bool walk(const Node* node, const std::vector<core::Token>& tokens,
                   std::size_t i, std::size_t end, bool rest,
                   core::ParsedFields* fields, const core::Pattern** out);

  std::unordered_map<std::string, ServiceIndex, util::StringHash,
                     std::equal_to<>>
      services_;
};

}  // namespace seqrtg::testkit
