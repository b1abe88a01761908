#include "core/parser.hpp"

#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace seqrtg::core {

namespace {

struct ParserMetrics {
  obs::Counter& matched;
  obs::Counter& missed;
  obs::Histogram& parse_seconds;
  obs::Counter& compiles;
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
                  "Match programs compiled (lazily, per service and epoch)")};
  return m;
}

constexpr std::uint64_t kParseSampleMask = 63;

}  // namespace

Parser::Parser(ScannerOptions scanner_opts, SpecialTokenOptions special_opts)
    : scanner_(scanner_opts),
      special_opts_(special_opts),
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

const Pattern& Parser::add_pattern(const Pattern& p) {
  return add_pattern(Pattern(p));
}

const Pattern& Parser::add_pattern(Pattern&& p) {
  const Pattern& stored = owned_.emplace_back(std::move(p));
  ServiceIndex& svc = services_[stored.service];
  svc.patterns.push_back(&stored);
  // New epoch: retire the service's compiled program (its memory stays
  // owned by programs_, so an in-flight reader finishes safely); the next
  // match lazily recompiles against the grown pattern list.
  ++pattern_epoch_;
  svc.program.store(nullptr, std::memory_order_release);
  return stored;
}

const MatchProgram* Parser::compile_service(const ServiceIndex& svc) const {
  std::lock_guard<std::mutex> lock(*compile_mutex_);
  // Double-checked: another lane may have compiled while we waited.
  const MatchProgram* prog = svc.program.load(std::memory_order_acquire);
  if (prog != nullptr) return prog;
  obs::TraceSpan span(obs::TraceCat::kMatchProg, "compile");
  std::unique_ptr<MatchProgram> compiled =
      MatchProgram::compile(svc.patterns);
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

  const MatchProgram* prog = svc.program.load(std::memory_order_acquire);
  if (prog == nullptr) prog = compile_service(svc);
  return prog->match(tokens, &out.fields, &out.pattern);
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
