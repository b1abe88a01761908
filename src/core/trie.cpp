#include "core/trie.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace seqrtg::core {

namespace {

using util::StringInterner;

constexpr StringInterner::Id kNoId = StringInterner::kInvalid;

}  // namespace

bool literal_looks_variable(std::string_view value) {
  if (value.empty()) return false;
  if (value.find('/') != std::string_view::npos) return true;
  if (value.find('\\') != std::string_view::npos) return true;
  if (value.find('@') != std::string_view::npos) return true;
  if (value.size() > 24) return true;
  // Digit-dominated values are variables (ids, counters, versions); words
  // with an incidental digit ("IPv4", "ssh2", "e1000") are skeleton text —
  // merging those would fuse distinct events.
  std::size_t digits = 0;
  for (char c : value) {
    if (util::is_digit(c)) ++digits;
  }
  return digits * 10 >= value.size() * 3;  // digit fraction >= 0.3
}

std::uint64_t subtree_signature(const TrieNode& node) {
  // Order-independent structural hash: edge keys + terminality, recursively.
  // Counts and examples are excluded so frequency does not affect shape.
  // Literal edges hash their interned id — equal text implies equal id
  // within one trie, so this is as discriminating as hashing the bytes.
  std::uint64_t h = node.terminal_count > 0 ? 0x9E3779B97F4A7C15ULL : 1;
  std::uint64_t sum = 0;
  for (const auto& [key, child] : node.children) {
    std::uint64_t edge =
        (key.packed() + 0x9E3779B97F4A7C15ULL) * 0xD6E8FEB86659FD93ULL;
    edge ^= subtree_signature(*child) * 0x94D049BB133111EBULL;
    // Sum keeps the combination independent of sibling order.
    sum += edge;
  }
  return h ^ sum;
}

void EdgeMap::emplace(EdgeKey key, TrieNode* node) {
  if (index_ != nullptr) {
    index_->emplace(key.packed(),
                    static_cast<std::uint32_t>(entries_.size()));
  } else if (entries_.size() >= kFlatMax) {
    // Crossing the fan-out threshold: build the hash index once.
    index_ = std::make_unique<std::unordered_map<std::uint64_t,
                                                 std::uint32_t>>();
    index_->reserve(entries_.size() + 1);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_->emplace(entries_[i].first.packed(),
                      static_cast<std::uint32_t>(i));
    }
    index_->emplace(key.packed(),
                    static_cast<std::uint32_t>(entries_.size()));
  }
  entries_.emplace_back(key, node);
}

void EdgeMap::erase(EdgeKey key) {
  std::size_t pos = entries_.size();
  if (index_ != nullptr) {
    const auto it = index_->find(key.packed());
    if (it == index_->end()) return;
    pos = it->second;
    index_->erase(it);
  } else {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].first == key) {
        pos = i;
        break;
      }
    }
    if (pos == entries_.size()) return;
  }
  if (pos + 1 != entries_.size()) {
    entries_[pos] = entries_.back();
    if (index_ != nullptr) {
      (*index_)[entries_[pos].first.packed()] =
          static_cast<std::uint32_t>(pos);
    }
  }
  entries_.pop_back();
}

std::size_t TrieNode::subtree_size() const {
  std::size_t n = 1;
  for (const auto& [k, child] : children) n += child->subtree_size();
  return n;
}

AnalyzerTrie::AnalyzerTrie(AnalyzerOptions opts)
    : opts_(opts), root_(arena_.create<TrieNode>()) {}

TrieNode* AnalyzerTrie::new_node() { return arena_.create<TrieNode>(); }

void AnalyzerTrie::insert(const std::vector<Token>& tokens,
                          std::string_view original) {
  TrieNode* node = root_;
  ++message_count_;
  ++node->pass_count;
  for (const Token& t : tokens) {
    EdgeKey key;
    key.type = t.type;
    if (t.type == TokenType::Literal) key.value_id = interner_.intern(t.value);
    TrieNode* child = node->children.find(key);
    if (child == nullptr) {
      child = new_node();
      child->is_space_before = t.is_space_before;
      if (!t.key.empty()) child->key_id = interner_.intern(t.key);
      node->children.emplace(key, child);
    } else if (!child->key_conflict) {
      const std::string_view stored =
          child->key_id == kNoId ? std::string_view() :
                                   interner_.view(child->key_id);
      if (stored != t.key) {
        child->key_id = kNoId;
        child->key_conflict = true;
      }
    }
    node = child;
    ++node->pass_count;
  }
  ++node->terminal_count;
  if (node->examples.size() < opts_.example_cap) {
    if (std::find(node->examples.begin(), node->examples.end(), original) ==
        node->examples.end()) {
      node->examples.emplace_back(original);
    }
  }
}

void AnalyzerTrie::merge_node(TrieNode* dst, TrieNode* src) {
  // `src` is detached from its parent and abandoned in the arena after the
  // merge (bump allocators have no per-object free; the batch-scoped trie
  // reclaims everything at once).
  dst->terminal_count += src->terminal_count;
  dst->pass_count += src->pass_count;
  for (std::string& e : src->examples) {
    if (dst->examples.size() >= opts_.example_cap) break;
    if (std::find(dst->examples.begin(), dst->examples.end(), e) ==
        dst->examples.end()) {
      dst->examples.push_back(std::move(e));
    }
  }
  // Ids come from the shared per-trie interner, so id equality is string
  // equality (kNoId = no key on either side).
  if (!dst->key_conflict && dst->key_id != src->key_id) {
    dst->key_id = kNoId;
    dst->key_conflict = true;
  }
  for (const auto& [key, child] : src->children) {
    TrieNode* existing = dst->children.find(key);
    if (existing == nullptr) {
      dst->children.emplace(key, child);
    } else {
      merge_node(existing, child);
    }
  }
}

void AnalyzerTrie::fold(TrieNode* node) {
  // Collect this node's literal children and split them into
  // variable-looking and word-like groups.
  std::vector<EdgeKey> literal_keys;
  std::vector<EdgeKey> variable_like;
  bool has_typed_child = false;   // Integer/Float/Hex/... (not String)
  bool has_string_child = false;
  for (const auto& [key, child] : node->children) {
    if (key.type == TokenType::Literal) {
      literal_keys.push_back(key);
      if (literal_looks_variable(key_text(key))) variable_like.push_back(key);
    } else if (key.type == TokenType::String) {
      has_string_child = true;
    } else if (key.type != TokenType::Rest) {
      has_typed_child = true;
    }
  }

  std::vector<EdgeKey> to_merge;
  const bool semi_constant_hold =
      opts_.semi_constant_split &&
      literal_keys.size() <= opts_.semi_constant_max;
  if (literal_keys.size() > opts_.max_literal_children) {
    // Unbounded-cardinality position: everything merges.
    to_merge = literal_keys;
  } else if (!semi_constant_hold) {
    if (opts_.merge_variable_literals &&
        (variable_like.size() >= 2 ||
         (variable_like.size() == 1 && has_string_child))) {
      to_merge = variable_like;
    } else if (opts_.merge_mixed_alnum && !variable_like.empty() &&
               has_typed_child) {
      // Future-work fix for alphanumeric/integer alternation (Proxifier).
      to_merge = variable_like;
    }

    // Pure-word variables (usernames, flag words...): the paper's trie
    // comparison merges same-level tokens "that share the same parent and
    // child nodes". Word-like literal siblings with identical subtree
    // shape merge when enough of them exist (below that, a word position
    // is more plausibly two distinct events, "Deleting" vs "Creating").
    std::unordered_map<std::uint64_t, std::vector<EdgeKey>> by_shape;
    if (literal_keys.size() >= opts_.min_word_cardinality) {
      for (const EdgeKey& key : literal_keys) {
        by_shape[subtree_signature(node->children.at(key))].push_back(key);
      }
      for (auto& [sig, group] : by_shape) {
        if (group.size() >= opts_.min_word_cardinality) {
          for (const EdgeKey& key : group) {
            if (std::find(to_merge.begin(), to_merge.end(), key) ==
                to_merge.end()) {
              to_merge.push_back(key);
            }
          }
        }
      }
    }

    // Absorption: once a position is established as a variable (merge
    // candidates exist), remaining literal siblings whose subtree shape
    // matches a merging sibling are further values of the same variable —
    // e.g. uid values "s1sm7vn6" (digit-heavy, merged) and "ljdv9ju1"
    // (word-like) must land in the same %string%.
    if (!to_merge.empty()) {
      std::unordered_map<std::uint64_t, bool> merged_shapes;
      for (const EdgeKey& key : to_merge) {
        merged_shapes[subtree_signature(node->children.at(key))] = true;
      }
      for (const EdgeKey& key : literal_keys) {
        if (std::find(to_merge.begin(), to_merge.end(), key) !=
            to_merge.end()) {
          continue;
        }
        const std::uint64_t sig = subtree_signature(node->children.at(key));
        if (merged_shapes.count(sig) > 0) to_merge.push_back(key);
      }
    }
  }

  if (!to_merge.empty()) {
    // Merge the selected literal edges into the %string% wildcard edge.
    EdgeKey string_key;
    string_key.type = TokenType::String;
    TrieNode* target = node->children.find(string_key);
    if (target == nullptr) {
      target = new_node();
      // Adopt spacing/key metadata from the first merged child.
      const TrieNode& first = node->children.at(to_merge.front());
      target->is_space_before = first.is_space_before;
      target->key_id = first.key_id;
      target->key_conflict = first.key_conflict;
      node->children.emplace(string_key, target);
    }
    for (const EdgeKey& key : to_merge) {
      TrieNode* child = node->children.find(key);
      node->children.erase(key);
      merge_node(target, child);
    }
    if (opts_.merge_mixed_alnum && has_typed_child) {
      // Also fold typed siblings into the %string% edge so "64" (Integer)
      // and "64*" (merged literal) yield one pattern.
      std::vector<EdgeKey> typed_keys;
      for (const auto& [key, child] : node->children) {
        if (key.type != TokenType::Literal && key.type != TokenType::String &&
            key.type != TokenType::Rest) {
          typed_keys.push_back(key);
        }
      }
      for (const EdgeKey& key : typed_keys) {
        TrieNode* child = node->children.find(key);
        node->children.erase(key);
        merge_node(target, child);
      }
    }
  }

  for (const auto& [key, child] : node->children) fold(child);
}

void AnalyzerTrie::emit(const TrieNode* node, std::vector<PatternToken>& path,
                        std::string_view service,
                        std::vector<Pattern>* out) const {
  if (node->terminal_count > 0) {
    Pattern p;
    p.service = std::string(service);
    p.tokens = path;
    assign_variable_names(p.tokens);
    p.stats.match_count = node->terminal_count;
    p.examples = node->examples;
    out->push_back(std::move(p));
  }
  // Deterministic emission order regardless of container layout: type
  // first, then literal edge text (the legacy EdgeKey ordering).
  std::vector<const EdgeMap::Entry*> entries;
  entries.reserve(node->children.size());
  for (const auto& entry : node->children) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [this](const EdgeMap::Entry* a, const EdgeMap::Entry* b) {
              if (a->first.type != b->first.type) {
                return a->first.type < b->first.type;
              }
              return key_text(a->first) < key_text(b->first);
            });
  for (const EdgeMap::Entry* entry : entries) {
    const EdgeKey& key = entry->first;
    const TrieNode* child = entry->second;
    PatternToken t;
    t.is_space_before = child->is_space_before;
    if (key.type == TokenType::Literal) {
      t.is_variable = false;
      // Repository boundary: the pattern owns its bytes from here on.
      t.text = std::string(key_text(key));
    } else {
      t.is_variable = true;
      t.var_type = key.type;
      if (!child->key_conflict && child->key_id != kNoId) {
        t.name = std::string(interner_.view(child->key_id));
      } else if (!path.empty() && !path.back().is_variable) {
        // Sequence's semantic naming: a variable preceded by a known field
        // keyword inherits its name ("port 51022" -> %port%), mirroring
        // the paper's "%action% from %srcip% port %srcport%" style.
        static constexpr std::string_view kFieldKeywords[] = {
            "port", "user", "uid",  "pid",   "host",
            "code", "size", "count", "slot", "session"};
        const std::string prev = util::to_lower(path.back().text);
        for (std::string_view kw : kFieldKeywords) {
          if (prev == kw) {
            t.name = prev;
            break;
          }
        }
      }
    }
    path.push_back(std::move(t));
    emit(child, path, service, out);
    path.pop_back();
  }
}

std::vector<Pattern> AnalyzerTrie::analyze(std::string_view service) {
  fold(root_);
  std::vector<Pattern> out;
  std::vector<PatternToken> path;
  emit(root_, path, service, &out);
  return out;
}

std::size_t AnalyzerTrie::node_count() const { return root_->subtree_size(); }

}  // namespace seqrtg::core
