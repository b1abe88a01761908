#include "core/matchprog.hpp"

#include <algorithm>
#include <array>

namespace seqrtg::core {

namespace {

constexpr std::uint32_t kInvalidId = util::StringInterner::kInvalid;
/// Memo sentinel: this position's interner id has not been resolved yet.
/// Distinct from kInvalidId ("resolved; no pattern constant has this text");
/// interner ids are dense from zero, so neither sentinel collides.
constexpr std::uint32_t kUnresolvedId = 0xFFFFFFFEu;

constexpr std::size_t kTypeCount =
    static_cast<std::size_t>(TokenType::Rest) + 1;

/// Edge keys of wildcard edges sort after every literal's interned id.
constexpr std::uint64_t kVarKey = std::uint64_t{1} << 32;

/// Type-level acceptance bitmask for a variable type: bit t is set when a
/// token of type t can ever satisfy variable_matches. Value-dependent rules
/// (%hex% accepting only long integers) are re-checked at match time, so
/// the mask only has to be a sound over-approximation — derived from
/// variable_matches itself so the two can never diverge.
std::uint16_t accept_mask_for(TokenType var) {
  static const std::array<std::uint16_t, kTypeCount> masks = [] {
    std::array<std::uint16_t, kTypeCount> out{};
    for (std::size_t v = 0; v < kTypeCount; ++v) {
      for (std::size_t t = 0; t < kTypeCount; ++t) {
        Token probe;
        probe.type = static_cast<TokenType>(t);
        probe.value = "000000";  // long enough for the %hex% integer rule
        if (variable_matches(static_cast<TokenType>(v), probe)) {
          out[v] = static_cast<std::uint16_t>(out[v] | (1u << t));
        }
      }
    }
    return out;
  }();
  return masks[static_cast<std::size_t>(var)];
}

bool has_rest(const Pattern& p) {
  return !p.tokens.empty() && p.tokens.back().is_variable &&
         p.tokens.back().var_type == TokenType::Rest;
}

}  // namespace

bool variable_matches(TokenType var, const Token& tok) {
  switch (var) {
    case TokenType::String:
      return true;
    case TokenType::Integer:
      return tok.type == TokenType::Integer;
    case TokenType::Float:
      return tok.type == TokenType::Float || tok.type == TokenType::Integer;
    case TokenType::Hex:
      return tok.type == TokenType::Hex ||
             (tok.type == TokenType::Integer && tok.value.size() >= 6);
    case TokenType::Time:
      return tok.type == TokenType::Time;
    case TokenType::IPv4:
      return tok.type == TokenType::IPv4;
    case TokenType::IPv6:
      return tok.type == TokenType::IPv6;
    case TokenType::Mac:
      return tok.type == TokenType::Mac;
    case TokenType::Url:
      return tok.type == TokenType::Url;
    case TokenType::Email:
      return tok.type == TokenType::Email;
    case TokenType::Host:
      return tok.type == TokenType::Host;
    case TokenType::Path:
      return tok.type == TokenType::Path;
    case TokenType::Rest:
    case TokenType::Literal:
      return false;
  }
  return false;
}

std::uint32_t MatchProgram::build(Row* begin, Row* end, std::size_t depth,
                                  std::size_t fixed) {
  // Rows arrive in insertion order; every row shares the key sequence of
  // this node's prefix.
  const auto idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (depth == fixed) {
    nodes_[idx].terminal = begin->pattern;  // first added wins
    return idx;
  }

  // Edge key at this depth: a literal's interned id, or kVarKey plus the
  // rank of the wildcard type's first appearance among this node's rows.
  std::array<std::uint32_t, kTypeCount> rank;
  rank.fill(kNone);
  std::uint32_t next_rank = 0;
  for (Row* r = begin; r != end; ++r) {
    const PatternToken& pt = r->pattern->tokens[depth];
    if (!pt.is_variable) {
      r->key = interner_.intern(pt.text);
    } else {
      std::uint32_t& rk = rank[static_cast<std::size_t>(pt.var_type)];
      if (rk == kNone) rk = next_rank++;
      r->key = kVarKey | rk;
    }
  }
  // Groups become contiguous, each still in insertion order: literal edges
  // by interned id (the binary-search order), then wildcards by rank.
  std::sort(begin, end, [](const Row& a, const Row& b) {
    return a.key != b.key ? a.key < b.key : a.order < b.order;
  });

  std::uint32_t lit_count = 0;
  std::uint32_t var_count = 0;
  for (Row* r = begin; r != end; ++r) {
    if (r != begin && r[-1].key == r->key) continue;
    ++(r->key >= kVarKey ? var_count : lit_count);
  }
  // The node's edge runs are reserved before recursing so they stay
  // contiguous; children fill in afterwards.
  const auto lit_begin = static_cast<std::uint32_t>(lits_.size());
  const auto var_begin = static_cast<std::uint32_t>(vars_.size());
  lits_.resize(lits_.size() + lit_count);
  vars_.resize(vars_.size() + var_count);
  nodes_[idx].lit_begin = lit_begin;
  nodes_[idx].lit_count = lit_count;
  nodes_[idx].var_begin = var_begin;
  nodes_[idx].var_count = var_count;

  std::uint32_t lit = lit_begin;
  std::uint32_t var = var_begin;
  for (Row* r = begin; r != end;) {
    const std::uint64_t key = r->key;
    Row* group_end = r + 1;
    while (group_end != end && group_end->key == key) ++group_end;
    // build() rewrites the group's keys for the next depth.
    const std::uint32_t child = build(r, group_end, depth + 1, fixed);
    if (key < kVarKey) {
      lits_[lit++] = {static_cast<util::StringInterner::Id>(key), child};
    } else {
      const TokenType type = r->pattern->tokens[depth].var_type;
      vars_[var++] = {type, accept_mask_for(type), child};
    }
    r = group_end;
  }
  return idx;
}

void MatchProgram::build_jump_tables() {
  const std::size_t id_count = interner_.size();
  if (id_count == 0) return;
  const auto add_table = [&](std::uint32_t root) {
    Node& node = nodes_[root];
    if (node.lit_count <= kJumpTableMinEdges) return;
    const auto begin = static_cast<std::uint32_t>(jump_.size());
    jump_.resize(jump_.size() + id_count, kNone);
    for (std::uint32_t k = 0; k < node.lit_count; ++k) {
      const LitEdge& e = lits_[node.lit_begin + k];
      jump_[begin + e.text] = e.node;
    }
    node.jump_begin = begin;
  };
  for (const Root& r : exact_roots_) add_table(r.node);
  for (const Root& r : rest_roots_) add_table(r.node);
}

std::unique_ptr<MatchProgram> MatchProgram::compile(
    const std::vector<const Pattern*>& patterns) {
  auto prog = std::unique_ptr<MatchProgram>(new MatchProgram());
  // Root key: exact roots (by token count) sort before %rest% roots (by
  // fixed-prefix length); insertion order breaks ties.
  std::vector<Row> rows;
  rows.reserve(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& p = *patterns[i];
    const bool rest = has_rest(p);
    const std::size_t fixed = p.tokens.size() - (rest ? 1 : 0);
    rows.push_back({(std::uint64_t{rest} << 32) | fixed,
                    static_cast<std::uint32_t>(i), &p});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.key != b.key ? a.key < b.key : a.order < b.order;
  });
  for (auto it = rows.begin(); it != rows.end();) {
    const std::uint64_t key = it->key;
    auto group_end = it + 1;
    while (group_end != rows.end() && group_end->key == key) ++group_end;
    const std::size_t fixed = key & 0xFFFFFFFFu;
    const Root root{fixed, prog->build(&*it, &*it + (group_end - it), 0,
                                       fixed)};
    ((key >> 32) != 0 ? prog->rest_roots_ : prog->exact_roots_)
        .push_back(root);
    it = group_end;
  }
  // Longest fixed prefix first: the most specific %rest% pattern wins.
  std::reverse(prog->rest_roots_.begin(), prog->rest_roots_.end());
  prog->build_jump_tables();
  return prog;
}

const Pattern* MatchProgram::walk(const WalkCtx& ctx, std::uint32_t node_idx,
                                  std::size_t i) const {
  const Node* node = &nodes_[node_idx];
  // Iterative fast path: a node whose only outgoing edges are literals has
  // no wildcard alternative, so a failure deeper in the walk cannot
  // backtrack into it — the descent needs no stack frame. Only nodes that
  // are genuine choice points (literal edge AND wildcards) recurse.
  for (;;) {
    // Every node at the root's depth is a terminal.
    if (i == ctx.end_i) return node->terminal;
    const Token& tok = ctx.tokens[i];
    // Most-specific first: exact literal text (only Literal tokens carry
    // pattern-constant text), then typed wildcards in rank order. The
    // interner id is resolved on the first probe at this position and
    // memoised, so backtracking walks never rehash a token.
    std::uint32_t child = kNone;
    if (tok.type == TokenType::Literal && node->lit_count != 0) {
      std::uint32_t id = ctx.ids[i];
      if (id == kUnresolvedId) {
        id = interner_.find(tok.value);
        ctx.ids[i] = id;
      }
      if (id != kInvalidId) {
        if (node->jump_begin != kNone) {
          child = jump_[node->jump_begin + id];
        } else {
          const LitEdge* begin = lits_.data() + node->lit_begin;
          const LitEdge* end = begin + node->lit_count;
          const LitEdge* it = std::lower_bound(
              begin, end, id,
              [](const LitEdge& e, std::uint32_t want) {
                return e.text < want;
              });
          if (it != end && it->text == id) child = it->node;
        }
      }
    }
    if (node->var_count == 0) {
      if (child == kNone) return nullptr;
      node = &nodes_[child];
      ++i;
      continue;
    }
    if (child != kNone) {
      if (const Pattern* p = walk(ctx, child, i + 1)) return p;
    }
    for (std::uint32_t k = 0; k < node->var_count; ++k) {
      const VarEdge& edge = vars_[node->var_begin + k];
      if (((edge.accept_mask >> static_cast<std::uint8_t>(tok.type)) & 1) ==
          0) {
        continue;
      }
      // The one value-dependent rule the mask cannot express.
      if (edge.type == TokenType::Hex && tok.type == TokenType::Integer &&
          tok.value.size() < 6) {
        continue;
      }
      if (const Pattern* p = walk(ctx, edge.node, i + 1)) return p;
    }
    return nullptr;
  }
}

bool MatchProgram::match(const std::vector<Token>& tokens,
                         ParsedFields* fields,
                         const Pattern** pattern) const {
  fields->clear();
  // One up-front grow instead of the 1-2-4-8 doubling walk the first few
  // bindings would otherwise pay on a fresh vector.
  if (fields->capacity() < 8) fields->reserve(8);

  // Per-position id memo, lazily filled by the walks below. Keeping it
  // unresolved until a literal edge actually probes a position means a miss
  // that fails the root lookup costs no hashing at all.
  thread_local std::vector<std::uint32_t> ids;
  ids.assign(tokens.size(), kUnresolvedId);
  WalkCtx ctx{tokens.data(), ids.data(), tokens.size()};

  // The matched pattern's fixed tokens line up one to one with the
  // message's first `fixed` tokens, so its variables name the fields.
  const auto bind = [&](const Pattern* p, std::size_t fixed) {
    *pattern = p;
    for (std::size_t k = 0; k < fixed; ++k) {
      const PatternToken& pt = p->tokens[k];
      if (pt.is_variable) fields->emplace_back(pt.name, tokens[k].value);
    }
  };

  // Exact-length patterns first.
  const auto it = std::lower_bound(
      exact_roots_.begin(), exact_roots_.end(), tokens.size(),
      [](const Root& r, std::size_t n) { return r.token_count < n; });
  if (it != exact_roots_.end() && it->token_count == tokens.size()) {
    if (const Pattern* p = walk(ctx, it->node, 0)) {
      bind(p, tokens.size());
      return true;
    }
  }
  // %rest% programs, longest fixed prefix first.
  for (const Root& r : rest_roots_) {
    if (r.token_count > tokens.size()) continue;
    ctx.end_i = r.token_count;
    if (const Pattern* p = walk(ctx, r.node, 0)) {
      bind(p, r.token_count);
      // Bind the swallowed suffix under the rest variable's name.
      const std::string& name = p->tokens.back().name;
      fields->emplace_back(name.empty() ? "rest" : name,
                           reconstruct(tokens.data() + r.token_count,
                                       tokens.data() + tokens.size()));
      return true;
    }
  }
  return false;
}

}  // namespace seqrtg::core
