// Compiled match programs: the parser's matcher as flat data.
//
// A production deployment replays millions of messages against a pattern
// set that changes rarely (the paper's CC-IN2P3 deployment re-learns in
// batches), while serve rebuilds each service's parser on every flush. So
// the matcher is built in one step from a service's pattern list, straight
// into contiguous arrays, with no intermediate pointer trie:
//
//   - Patterns are grouped into roots: one per exact token count, and one
//     per fixed-prefix length for patterns ending in %rest%. Inside a root
//     every pattern has the same length, so a node is a pattern prefix and
//     its children are the distinct keys at the next position: a literal's
//     interned id, or a wildcard's type.
//   - Literal edge text is interned once; during a match each Literal
//     token's interned id is resolved lazily on the first literal-edge probe
//     at its position and memoised for the rest of the match (at most one
//     hash probe per token, and zero for tokens the walk never probes, e.g.
//     when no root fits the token count). A token whose text was never seen
//     in any pattern skips every literal edge without a string comparison.
//   - A node's literal edges are a sorted run of (id, child) pairs inside
//     one shared array, binary-searched in place. Root nodes with many
//     edges (first-token dispatch, the widest fan-out) get a dense jump
//     table indexed by interned id — one load instead of a search.
//   - Variable edges carry a precomputed token-type accept bitmask, so the
//     common rejection is one AND instead of a switch.
//
// Precedence (which pattern wins when several accept a message):
//   - exact-length roots are tried before %rest% roots, and %rest% roots
//     longest fixed prefix first;
//   - at a node, the literal edge is tried before the wildcard edges, and
//     the wildcard edges in the order their types first appear among the
//     node's patterns in insertion order;
//   - among patterns that end at the same node, the first one added wins.
// A field is named after the matched pattern's own variable at that
// position; the %rest% suffix binds under its variable's name, or "rest".
// testkit::ReferenceMatcher implements the same rules as a pointer trie,
// and the differential tests hold the two equal.
//
// Concurrency: a MatchProgram is immutable after compile(). The Parser
// compiles lazily under a lock, publishes the program through an atomic
// pointer, and retires (but never frees) stale programs when the pattern
// set changes, so lane workers holding a stale pointer finish their match
// safely and pick up the recompiled program on the next message.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.hpp"
#include "core/token.hpp"
#include "util/interner.hpp"

namespace seqrtg::core {

/// Extracted variable bindings of a successful match, in pattern order.
using ParsedFields = std::vector<std::pair<std::string, std::string>>;

/// True when a variable of type `var` accepts token `tok`. %string% accepts
/// any single token; %float% also accepts integers ("5" vs "5.0" in the same
/// field); %hex% also accepts all-digit runs that happen to contain no a-f.
bool variable_matches(TokenType var, const Token& tok);

class MatchProgram {
 public:
  /// Builds the program for one service's `patterns`, given in insertion
  /// order (the order is match precedence). The Pattern objects must
  /// outlive the program.
  static std::unique_ptr<MatchProgram> compile(
      const std::vector<const Pattern*>& patterns);

  /// Matches `tokens`; on success fills `*pattern` and appends the bindings
  /// to `*fields` (cleared first). Returns false on no match.
  bool match(const std::vector<Token>& tokens, ParsedFields* fields,
             const Pattern** pattern) const;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Roots wider than this get a dense jump table over interned ids.
  static constexpr std::size_t kJumpTableMinEdges = 8;

  struct LitEdge {
    util::StringInterner::Id text;
    std::uint32_t node;
  };
  struct VarEdge {
    TokenType type;
    /// Bit per TokenType this variable can accept (the %hex%-integer length
    /// rule is re-checked at match time).
    std::uint16_t accept_mask;
    std::uint32_t node;
  };
  struct Node {
    std::uint32_t lit_begin = 0;
    std::uint32_t lit_count = 0;
    std::uint32_t var_begin = 0;
    std::uint32_t var_count = 0;
    /// Dense first-token dispatch: jump_begin indexes jump_ when not kNone;
    /// the slab spans all interned ids.
    std::uint32_t jump_begin = kNone;
    /// Set on the nodes at the root's depth: the first pattern added with
    /// this node's key sequence.
    const Pattern* terminal = nullptr;
  };
  struct Root {
    std::size_t token_count;  // exact length, or fixed-prefix length
    std::uint32_t node;
  };
  /// One pattern while its root is built: `key` is its edge key at the
  /// depth being built, `order` its insertion index (the tie-break).
  struct Row {
    std::uint64_t key;
    std::uint32_t order;
    const Pattern* pattern;
  };

  std::uint32_t build(Row* begin, Row* end, std::size_t depth,
                      std::size_t fixed);
  void build_jump_tables();

  /// Per-match state shared by every walk frame. `ids` is the per-position
  /// memo of lazily resolved interner ids (kUnresolvedId until the first
  /// literal probe at that position).
  struct WalkCtx {
    const Token* tokens;
    std::uint32_t* ids;
    std::size_t end_i;
  };

  const Pattern* walk(const WalkCtx& ctx, std::uint32_t node_idx,
                      std::size_t i) const;

  util::StringInterner interner_;
  std::vector<Node> nodes_;
  std::vector<LitEdge> lits_;
  std::vector<VarEdge> vars_;
  std::vector<std::uint32_t> jump_;
  std::vector<Root> exact_roots_;  // sorted by token_count
  std::vector<Root> rest_roots_;   // sorted by prefix length descending
};

}  // namespace seqrtg::core
