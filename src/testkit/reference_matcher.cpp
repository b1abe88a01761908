#include "testkit/reference_matcher.hpp"

namespace seqrtg::testkit {

using core::Pattern;
using core::PatternToken;
using core::Token;
using core::TokenType;

void ReferenceMatcher::add_pattern(const Pattern& p) {
  // Detect a trailing %rest% marker.
  const auto& toks = p.tokens;
  const bool has_rest = !toks.empty() && toks.back().is_variable &&
                        toks.back().var_type == TokenType::Rest;
  const std::size_t fixed = has_rest ? toks.size() - 1 : toks.size();

  ServiceIndex& svc = services_[p.service];
  Node* node = has_rest ? &svc.rest_prefix[fixed] : &svc.exact[fixed];
  for (std::size_t i = 0; i < fixed; ++i) {
    const PatternToken& pt = toks[i];
    if (!pt.is_variable) {
      auto it = node->literal_edges.find(pt.text);
      if (it == node->literal_edges.end()) {
        it = node->literal_edges.emplace(pt.text, std::make_unique<Node>())
                 .first;
      }
      node = it->second.get();
    } else {
      Node::VarEdge* edge = nullptr;
      for (auto& e : node->var_edges) {
        if (e.type == pt.var_type) {
          edge = &e;
          break;
        }
      }
      if (edge == nullptr) {
        node->var_edges.push_back({pt.var_type, std::make_unique<Node>()});
        edge = &node->var_edges.back();
      }
      node = edge->node.get();
    }
  }
  const Pattern** terminal = has_rest ? &node->rest_terminal : &node->terminal;
  if (*terminal == nullptr) *terminal = &p;
}

bool ReferenceMatcher::walk(const Node* node, const std::vector<Token>& tokens,
                            std::size_t i, std::size_t end, bool rest,
                            core::ParsedFields* fields, const Pattern** out) {
  if (i == end) {
    const Pattern* terminal = rest ? node->rest_terminal : node->terminal;
    if (terminal == nullptr) return false;
    *out = terminal;
    return true;
  }
  const Token& tok = tokens[i];
  // Most-specific first: exact literal text (only Literal tokens carry
  // pattern-constant text), then typed wildcards in insertion order.
  if (tok.type == TokenType::Literal) {
    const auto it = node->literal_edges.find(tok.value);
    if (it != node->literal_edges.end() &&
        walk(it->second.get(), tokens, i + 1, end, rest, fields, out)) {
      return true;
    }
  }
  for (const auto& edge : node->var_edges) {
    if (!core::variable_matches(edge.type, tok)) continue;
    fields->emplace_back(std::string(), tok.value);
    if (walk(edge.node.get(), tokens, i + 1, end, rest, fields, out)) {
      return true;
    }
    fields->pop_back();
  }
  return false;
}

std::optional<core::ParseResult> ReferenceMatcher::match_tokens(
    std::string_view service, const std::vector<Token>& tokens) const {
  const auto svc_it = services_.find(service);
  if (svc_it == services_.end()) return std::nullopt;
  const ServiceIndex& svc = svc_it->second;

  core::ParseResult out;
  // Each field is named after the matched pattern's own variable at its
  // position, in pattern order.
  const auto name_fields = [&out] {
    std::size_t k = 0;
    for (const PatternToken& pt : out.pattern->tokens) {
      if (!pt.is_variable || pt.var_type == TokenType::Rest) continue;
      out.fields[k++].first = pt.name;
    }
  };

  // Exact-length patterns first.
  const auto exact_it = svc.exact.find(tokens.size());
  if (exact_it != svc.exact.end() &&
      walk(&exact_it->second, tokens, 0, tokens.size(), /*rest=*/false,
           &out.fields, &out.pattern)) {
    name_fields();
    return out;
  }
  // %rest% patterns: any prefix length <= token count. Walk candidate
  // prefix indexes longest-prefix-first so the most specific pattern wins
  // (mirroring the literal-before-wildcard precedence within a walk) — a
  // generic short-prefix rest pattern must not shadow a longer one.
  for (auto it = svc.rest_prefix.rbegin(); it != svc.rest_prefix.rend();
       ++it) {
    const auto& [prefix_len, root] = *it;
    if (prefix_len > tokens.size()) continue;
    out.fields.clear();
    if (walk(&root, tokens, 0, prefix_len, /*rest=*/true, &out.fields,
             &out.pattern)) {
      name_fields();
      // Bind the swallowed suffix under the rest variable's name.
      const std::string& name = out.pattern->tokens.back().name;
      out.fields.emplace_back(
          name.empty() ? "rest" : name,
          core::reconstruct(tokens.data() + prefix_len,
                            tokens.data() + tokens.size()));
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace seqrtg::testkit
