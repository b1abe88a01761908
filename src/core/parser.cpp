#include "core/parser.hpp"

#include <cstdlib>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace seqrtg::core {

namespace {

struct ParserMetrics {
  obs::Counter& matched;
  obs::Counter& missed;
  obs::Histogram& parse_seconds;
  obs::Counter& compiles;
  obs::Counter& path_compiled;
  obs::Counter& path_trie;
};

ParserMetrics& parser_metrics() {
  auto& reg = obs::default_registry();
  static ParserMetrics m{
      reg.counter("seqrtg_parser_match_total",
                  "Messages matched by a known pattern"),
      reg.counter("seqrtg_parser_miss_total",
                  "Messages that matched no known pattern"),
      reg.histogram("seqrtg_parser_parse_seconds",
                    "Scan+match latency of Parser::parse, sampled 1 in 64"),
      reg.counter("seqrtg_matchprog_compiles_total",
                  "Match programs compiled (lazily, per service and epoch)"),
      reg.counter("seqrtg_parser_match_path_total",
                  "Token matches served per dispatch path",
                  {{"path", "compiled"}}),
      reg.counter("seqrtg_parser_match_path_total",
                  "Token matches served per dispatch path",
                  {{"path", "trie"}})};
  return m;
}

constexpr std::uint64_t kParseSampleMask = 63;

bool matchprog_default_enabled() {
  const char* env = std::getenv("SEQRTG_DISABLE_MATCHPROG");
  return env == nullptr || env[0] == '\0' || env[0] == '0';
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

Parser::Parser(ScannerOptions scanner_opts, SpecialTokenOptions special_opts)
    : scanner_(scanner_opts),
      special_opts_(special_opts),
      matchprog_enabled_(matchprog_default_enabled()),
      compile_mutex_(std::make_unique<std::mutex>()) {}

void Parser::clear() {
  owned_.clear();
  services_.clear();
  programs_.clear();
  ++pattern_epoch_;
}

std::vector<Token> Parser::scan(std::string_view message) const {
  std::vector<Token> tokens = scanner_.scan(message);
  promote_special_tokens(tokens, special_opts_);
  return tokens;
}

void Parser::scan_into(std::string_view message, TokenBuffer& out) const {
  scanner_.scan_into(message, out);
  promote_special_tokens(out.storage(), special_opts_);
}

void Parser::add_pattern(const Pattern& p) {
  owned_.push_back(p);
  const Pattern* stored = &owned_.back();

  // Detect a trailing %rest% marker.
  const auto& toks = stored->tokens;
  const bool has_rest = !toks.empty() && toks.back().is_variable &&
                        toks.back().var_type == TokenType::Rest;
  const std::size_t fixed = has_rest ? toks.size() - 1 : toks.size();

  ServiceIndex& svc = services_[stored->service];
  MatchNode* node = has_rest ? &svc.rest_prefix[fixed] : &svc.exact[fixed];
  for (std::size_t i = 0; i < fixed; ++i) {
    const PatternToken& pt = toks[i];
    if (!pt.is_variable) {
      auto it = node->literal_edges.find(pt.text);
      if (it == node->literal_edges.end()) {
        it = node->literal_edges
                 .emplace(pt.text, std::make_unique<MatchNode>())
                 .first;
      }
      node = it->second.get();
    } else {
      MatchNode::VarEdge* edge = nullptr;
      for (auto& e : node->var_edges) {
        if (e.type == pt.var_type) {
          edge = &e;
          break;
        }
      }
      if (edge == nullptr) {
        node->var_edges.push_back(
            {pt.var_type, pt.name, std::make_unique<MatchNode>()});
        edge = &node->var_edges.back();
      }
      node = edge->node.get();
    }
  }
  if (has_rest) {
    if (node->rest_terminal == nullptr) {
      node->rest_terminal = stored;
      node->rest_name = toks.back().name;
    }
  } else if (node->terminal == nullptr) {
    node->terminal = stored;
  }
  // New epoch: retire the service's compiled program (its memory stays
  // owned by programs_, so an in-flight reader finishes safely); the next
  // match lazily recompiles against the grown trie.
  ++pattern_epoch_;
  svc.program.store(nullptr, std::memory_order_release);
}

const MatchProgram* Parser::compile_service(const ServiceIndex& svc) const {
  std::lock_guard<std::mutex> lock(*compile_mutex_);
  // Double-checked: another lane may have compiled while we waited.
  const MatchProgram* prog = svc.program.load(std::memory_order_acquire);
  if (prog != nullptr) return prog;
  obs::TraceSpan span(obs::TraceCat::kMatchProg, "compile");
  std::unique_ptr<MatchProgram> compiled =
      MatchProgram::compile(svc.exact, svc.rest_prefix);
  if (span.active()) {
    span.set_args(static_cast<std::int64_t>(compiled->node_count()),
                  static_cast<std::int64_t>(pattern_epoch_));
  }
  if (obs::telemetry_enabled()) parser_metrics().compiles.inc();
  prog = compiled.get();
  programs_.push_back(std::move(compiled));
  svc.program.store(prog, std::memory_order_release);
  return prog;
}

bool Parser::match_walk(const MatchNode* node,
                        const std::vector<Token>& tokens, std::size_t i,
                        ParsedFields* fields, const Pattern** out) const {
  if (i == tokens.size()) {
    if (node->terminal != nullptr) {
      *out = node->terminal;
      return true;
    }
    return false;
  }
  const Token& tok = tokens[i];
  // Most-specific first: exact literal text (only Literal tokens carry
  // pattern-constant text), then typed wildcards in insertion order.
  if (tok.type == TokenType::Literal) {
    const auto it = node->literal_edges.find(tok.value);
    if (it != node->literal_edges.end() &&
        match_walk(it->second.get(), tokens, i + 1, fields, out)) {
      return true;
    }
  }
  for (const auto& edge : node->var_edges) {
    if (!variable_matches(edge.type, tok)) continue;
    fields->emplace_back(edge.name, tok.value);
    if (match_walk(edge.node.get(), tokens, i + 1, fields, out)) return true;
    fields->pop_back();
  }
  return false;
}

bool Parser::match_tokens(std::string_view service,
                          const std::vector<Token>& tokens,
                          ParseResult& out) const {
  const bool matched = match_tokens_impl(service, tokens, out);
  if (obs::telemetry_enabled()) {
    ParserMetrics& m = parser_metrics();
    (matched ? m.matched : m.missed).inc();
  }
  return matched;
}

std::optional<ParseResult> Parser::match_tokens(
    std::string_view service, const std::vector<Token>& tokens) const {
  ParseResult result;
  if (!match_tokens(service, tokens, result)) return std::nullopt;
  return result;
}

bool Parser::match_tokens_impl(std::string_view service,
                               const std::vector<Token>& tokens,
                               ParseResult& out) const {
  out.pattern = nullptr;
  const auto svc_it = services_.find(service);
  if (svc_it == services_.end()) return false;
  const ServiceIndex& svc = svc_it->second;

  // Compiled fast path: flat program, identical semantics to the walk
  // below (differential-tested). Falls through to the trie only when the
  // program is disabled for this instance.
  if (matchprog_enabled_) {
    const MatchProgram* prog = svc.program.load(std::memory_order_acquire);
    if (prog == nullptr) prog = compile_service(svc);
    if (obs::telemetry_enabled()) parser_metrics().path_compiled.inc();
    return prog->match(tokens, &out.fields, &out.pattern);
  }
  if (obs::telemetry_enabled()) parser_metrics().path_trie.inc();

  // Exact-length patterns first.
  const auto exact_it = svc.exact.find(tokens.size());
  if (exact_it != svc.exact.end()) {
    out.fields.clear();
    if (match_walk(&exact_it->second, tokens, 0, &out.fields, &out.pattern)) {
      return true;
    }
  }
  // %rest% patterns: any prefix length <= token count. Walk candidate
  // prefix indexes longest-prefix-first so the most specific pattern wins
  // (mirroring the literal-before-wildcard precedence within a walk) — a
  // generic short-prefix rest pattern must not shadow a longer one.
  for (auto it = svc.rest_prefix.rbegin(); it != svc.rest_prefix.rend();
       ++it) {
    const auto& [prefix_len, root] = *it;
    if (prefix_len > tokens.size()) continue;
    // Custom walk that terminates at prefix_len on a rest_terminal.
    struct RestWalker {
      const Parser* parser;
      const std::vector<Token>& tokens;
      std::size_t prefix_len;
      bool walk(const MatchNode* node, std::size_t i, ParsedFields* fields,
                const Pattern** out, std::string* rest_name) const {
        if (i == prefix_len) {
          if (node->rest_terminal != nullptr) {
            *out = node->rest_terminal;
            *rest_name = node->rest_name;
            return true;
          }
          return false;
        }
        const Token& tok = tokens[i];
        if (tok.type == TokenType::Literal) {
          const auto it = node->literal_edges.find(tok.value);
          if (it != node->literal_edges.end() &&
              walk(it->second.get(), i + 1, fields, out, rest_name)) {
            return true;
          }
        }
        for (const auto& edge : node->var_edges) {
          if (!variable_matches(edge.type, tok)) continue;
          fields->emplace_back(edge.name, tok.value);
          if (walk(edge.node.get(), i + 1, fields, out, rest_name)) {
            return true;
          }
          fields->pop_back();
        }
        return false;
      }
    };
    out.fields.clear();
    std::string rest_name;
    RestWalker walker{this, tokens, prefix_len};
    if (walker.walk(&root, 0, &out.fields, &out.pattern, &rest_name)) {
      // Bind the swallowed suffix under the rest variable's name.
      std::string suffix =
          reconstruct(tokens.data() + prefix_len,
                      tokens.data() + tokens.size());
      out.fields.emplace_back(rest_name.empty() ? "rest" : rest_name,
                              std::move(suffix));
      return true;
    }
  }
  return false;
}

std::optional<ParseResult> Parser::parse(std::string_view service,
                                         std::string_view message) const {
  // Callers without their own scratch still get buffer reuse: one warmed-up
  // TokenBuffer per thread.
  thread_local TokenBuffer scratch;
  return parse(service, message, scratch);
}

std::optional<ParseResult> Parser::parse(std::string_view service,
                                         std::string_view message,
                                         TokenBuffer& scratch) const {
  std::optional<util::Stopwatch> watch;
  if (obs::telemetry_enabled()) {
    thread_local std::uint64_t sample_tick = 0;
    if ((sample_tick++ & kParseSampleMask) == 0) watch.emplace();
  }
  obs::TraceSpan span(obs::TraceSpan::Sampled{}, obs::TraceCat::kParser,
                      "parse");
  scan_into(message, scratch);
  auto result = match_tokens(service, scratch.tokens());
  if (span.active()) {
    span.set_args(static_cast<std::int64_t>(scratch.size()),
                  result.has_value() ? 1 : 0);
  }
  if (watch) parser_metrics().parse_seconds.observe(watch->seconds());
  return result;
}

}  // namespace seqrtg::core
