// Analyser trie.
//
// Paper §III: "After tokenisation, the Sequence analyser builds a trie with
// the tokens. The trie data structure allows for very fast search and
// retrieval. Once the trie is built it performs a comparison of all of the
// tokens positioned at the same level that share the same parent and child
// nodes. During this comparison the relevant parts are merged to produce
// the patterns."
//
// Implementation: token sequences are inserted as trie paths. Typed tokens
// (Integer, IPv4, Time, ...) collapse onto a per-type wildcard edge at
// insertion — they are variables by construction. Literal tokens keep their
// value as the edge key. The fold pass then walks the trie and merges
// sibling literal edges that behave like variables (digit-bearing values,
// paths, high fan-out positions) into a generic %string% wildcard, merging
// their subtrees recursively. Terminal nodes carry match counts and up to
// three example messages.
//
// Memory layout (zero-copy hot path): nodes are bump-allocated from a
// per-trie arena instead of per-node unique_ptrs, literal edge text is
// deduplicated into a per-trie StringInterner, and edge keys are two-word
// (type, interned-id) values held in a flat small-map — linear scan up to
// a handful of entries, hash index above. Insertion therefore performs no
// string allocation at all for already-seen literals, and node teardown is
// one arena sweep per batch. Tokens passed to insert() may view the caller's
// message buffer; every byte the trie keeps is copied into the interner or
// the node's example strings during the call.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pattern.hpp"
#include "core/token.hpp"
#include "util/arena.hpp"
#include "util/interner.hpp"

namespace seqrtg::core {

/// Tuning knobs for the fold (merge) pass. Defaults reproduce Sequence-RTG
/// behaviour; the flags marked "future work" implement §VI extensions and
/// are exercised by the ablation benches.
struct AnalyzerOptions {
  /// A node with more distinct literal children than this merges them all
  /// (unbounded-cardinality positions such as usernames).
  std::size_t max_literal_children = 12;
  /// Merge >= 2 distinct digit-bearing / path-like literal siblings.
  bool merge_variable_literals = true;
  /// Pure-word literal siblings (usernames, hostne words...) merge when at
  /// least this many of them "share the same parent and child nodes"
  /// (identical subtree shape, the paper's trie comparison). Low values
  /// risk fusing distinct events that differ in one verb ("Deleting" vs
  /// "Creating"); high values leave word-valued variables split.
  std::size_t min_word_cardinality = 4;
  /// Future work (fixes the Proxifier split): when a position has both a
  /// typed edge (e.g. Integer for "64") and a variable-looking literal edge
  /// (e.g. "64*"), merge them into one %string% variable.
  bool merge_mixed_alnum = false;
  /// Future work §VI: positions whose literal cardinality is at most
  /// `semi_constant_max` keep each value as its own pattern instead of
  /// merging ("semi-constant" tokens).
  bool semi_constant_split = false;
  std::size_t semi_constant_max = 3;
  /// Cap on stored example messages per pattern.
  std::size_t example_cap = 3;
};

/// Edge label: a token type plus, for literals, the interned id of the edge
/// text (StringInterner::kInvalid for typed wildcard edges). Two words —
/// comparison is integer compare, no string touch.
struct EdgeKey {
  TokenType type = TokenType::Literal;
  util::StringInterner::Id value_id = util::StringInterner::kInvalid;

  bool operator==(const EdgeKey& other) const = default;

  /// Dense packing for hashing (type and id are both well under 32 bits).
  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(type) << 32) |
           static_cast<std::uint64_t>(value_id);
  }
};

class TrieNode;

/// Flat small-map from EdgeKey to child node. Most trie nodes have a
/// handful of children (the skeleton of a log message is near-linear), so
/// edges live in a small vector scanned linearly; nodes that fan out past
/// kFlatMax entries get a hash index on the side. Iteration order is
/// deterministic (insertion order, with erase() compacting from the back).
class EdgeMap {
 public:
  using Entry = std::pair<EdgeKey, TrieNode*>;

  /// Child for `key`, or nullptr.
  TrieNode* find(EdgeKey key) const {
    if (index_ == nullptr) {
      for (const Entry& e : entries_) {
        if (e.first == key) return e.second;
      }
      return nullptr;
    }
    const auto it = index_->find(key.packed());
    return it == index_->end() ? nullptr : entries_[it->second].second;
  }

  /// Child for `key`, which must be present. Aborts otherwise, so callers
  /// (and the optimiser) can rely on a non-null child.
  TrieNode& at(EdgeKey key) const {
    TrieNode* child = find(key);
    if (child == nullptr) std::abort();
    return *child;
  }

  /// Inserts (key -> node); `key` must not be present.
  void emplace(EdgeKey key, TrieNode* node);

  /// Removes `key` (must be present). The last entry is moved into the
  /// freed slot.
  void erase(EdgeKey key);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  std::vector<Entry>::const_iterator begin() const {
    return entries_.begin();
  }
  std::vector<Entry>::const_iterator end() const { return entries_.end(); }

 private:
  /// Linear scan beats hashing below this size; measured crossover for
  /// two-word keys is well above typical trie fan-out.
  static constexpr std::size_t kFlatMax = 8;

  std::vector<Entry> entries_;
  /// key.packed() -> position in entries_; built lazily at kFlatMax.
  std::unique_ptr<std::unordered_map<std::uint64_t, std::uint32_t>> index_;
};

class TrieNode {
 public:
  EdgeMap children;
  /// Number of inserted sequences ending exactly here.
  std::uint64_t terminal_count = 0;
  /// Number of inserted sequences passing through this node.
  std::uint64_t pass_count = 0;
  /// Example original messages for terminal nodes (deduplicated, capped).
  std::vector<std::string> examples;
  /// Spacing of the token that labelled the edge into this node (first
  /// occurrence wins; ties in real logs are overwhelmingly consistent).
  bool is_space_before = false;
  /// key=value key attributed to this position (interned; kInvalid when
  /// absent); cleared on conflict.
  util::StringInterner::Id key_id = util::StringInterner::kInvalid;
  bool key_conflict = false;

  /// Recursively counts nodes (memory accounting for the batching logic).
  std::size_t subtree_size() const;
};

/// One analysis trie. AnalyzeByService instantiates one per (service,
/// token-count) group; the seminal Analyze path uses a single instance for
/// everything. Owns the node arena and the literal interner; patterns
/// emitted by analyze() copy every byte out, so they outlive the trie.
class AnalyzerTrie {
 public:
  explicit AnalyzerTrie(AnalyzerOptions opts = {});

  AnalyzerTrie(const AnalyzerTrie&) = delete;
  AnalyzerTrie& operator=(const AnalyzerTrie&) = delete;
  AnalyzerTrie(AnalyzerTrie&&) noexcept = default;
  AnalyzerTrie& operator=(AnalyzerTrie&&) noexcept = default;

  /// Inserts a scanned message. `original` is kept as a candidate example.
  /// Token views need only stay valid for the duration of the call.
  void insert(const std::vector<Token>& tokens, std::string_view original);

  /// Runs the merge pass and emits patterns (deterministic order). The trie
  /// remains usable for further inserts afterwards, though typical usage is
  /// insert-all-then-analyze per batch.
  std::vector<Pattern> analyze(std::string_view service);

  std::uint64_t message_count() const { return message_count_; }
  std::size_t node_count() const;
  const TrieNode& root() const { return *root_; }

  /// The literal pool backing this trie's edge keys.
  const util::StringInterner& interner() const { return interner_; }
  /// Bytes reserved by the node arena (memory accounting).
  std::size_t arena_bytes() const { return arena_.bytes_reserved(); }
  /// Resident bytes of the node arena including bookkeeping (the figure
  /// the governance accountant reports to /metrics).
  std::size_t arena_resident_bytes() const { return arena_.bytes_resident(); }

 private:
  void fold(TrieNode* node);
  void merge_node(TrieNode* dst, TrieNode* src);
  void emit(const TrieNode* node, std::vector<PatternToken>& path,
            std::string_view service, std::vector<Pattern>* out) const;
  TrieNode* new_node();
  std::string_view key_text(EdgeKey key) const {
    return key.value_id == util::StringInterner::kInvalid
               ? std::string_view()
               : interner_.view(key.value_id);
  }

  AnalyzerOptions opts_;
  util::Arena arena_;
  util::StringInterner interner_;
  TrieNode* root_;
  std::uint64_t message_count_ = 0;
};

/// Heuristic: does a literal value look like a variable rather than a fixed
/// word of the message skeleton? Digit-bearing values, paths, e-mail-ish
/// strings and very long values qualify.
bool literal_looks_variable(std::string_view value);

/// Order-independent structural hash of a subtree (edge keys + terminal
/// flags; counts excluded). Used by the fold pass to find literal siblings
/// "that share the same parent and child nodes". Only meaningful between
/// subtrees of the same trie (edge ids come from the shared interner).
std::uint64_t subtree_signature(const TrieNode& node);

}  // namespace seqrtg::core
