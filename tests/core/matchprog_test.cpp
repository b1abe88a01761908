// Unit and differential suite for the compiled match program: the
// Parser's MatchProgram must agree with testkit::ReferenceMatcher (the
// pointer-trie walk) on every outcome — matched pattern identity, extracted
// fields (names, values, order) and miss/match verdicts — including each
// precedence rule (literal before wildcard, wildcard types in first-added
// order, first-added terminal, exact length before %rest%, longest %rest%
// prefix first), %rest% suffix binding and backtracking through ambiguous
// prefixes. The differential half trains a parser per synthetic LogHub
// corpus and on a fleet stream and replays traffic through both matchers.
#include "core/matchprog.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/analyze_by_service.hpp"
#include "core/parser.hpp"
#include "core/repository.hpp"
#include "loggen/corpus.hpp"
#include "loggen/fleet.hpp"
#include "testkit/reference_matcher.hpp"
#include "util/rng.hpp"

namespace seqrtg::core {
namespace {

PatternToken constant(std::string text, bool space = true) {
  PatternToken t;
  t.is_variable = false;
  t.text = std::move(text);
  t.is_space_before = space;
  return t;
}

PatternToken variable(TokenType type, std::string name, bool space = true) {
  PatternToken t;
  t.is_variable = true;
  t.var_type = type;
  t.name = std::move(name);
  t.is_space_before = space;
  return t;
}

Pattern make_pattern(std::string service, std::vector<PatternToken> tokens) {
  Pattern p;
  p.service = std::move(service);
  p.tokens = std::move(tokens);
  return p;
}

/// A Parser and the reference matcher over the same pattern objects.
struct Matchers {
  explicit Matchers(ScannerOptions scanner = {},
                    SpecialTokenOptions special = {})
      : parser(scanner, special) {}

  const Pattern& add_pattern(const Pattern& p) {
    const Pattern& stored = parser.add_pattern(p);
    reference.add_pattern(stored);
    return stored;
  }
  void clear() {
    parser.clear();
    reference = testkit::ReferenceMatcher();
  }

  Parser parser;
  testkit::ReferenceMatcher reference;
};

/// Runs one parse through the Parser and through the reference matcher
/// and asserts identical outcomes; returns the (shared) verdict.
std::optional<ParseResult> parse_both(const Matchers& m,
                                      std::string_view service,
                                      std::string_view message) {
  const auto compiled = m.parser.parse(service, message);
  const auto expected =
      m.reference.match_tokens(service, m.parser.scan(message));
  EXPECT_EQ(compiled.has_value(), expected.has_value()) << message;
  if (compiled && expected) {
    EXPECT_EQ(compiled->pattern, expected->pattern) << message;
    EXPECT_EQ(compiled->fields, expected->fields) << message;
  }
  return compiled;
}

TEST(MatchProgram, LiteralAndVariableExtraction) {
  Matchers m;
  m.add_pattern(make_pattern(
      "sshd", {constant("login", false), constant("from"),
               variable(TokenType::IPv4, "srcip"), constant("port"),
               variable(TokenType::Integer, "srcport")}));
  const auto r = parse_both(m, "sshd", "login from 10.1.2.3 port 22");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->fields.size(), 2u);
  EXPECT_EQ(r->fields[0].first, "srcip");
  EXPECT_EQ(r->fields[0].second, "10.1.2.3");
  EXPECT_EQ(r->fields[1].first, "srcport");
  EXPECT_EQ(r->fields[1].second, "22");
  EXPECT_FALSE(parse_both(m, "sshd", "login from nowhere port 22"));
  EXPECT_FALSE(parse_both(m, "cron", "login from 10.1.2.3 port 22"));
}

TEST(MatchProgram, LiteralEdgePreferredOverWildcard) {
  Matchers m;
  m.add_pattern(make_pattern(
      "s", {constant("state", false), constant("on")}));
  m.add_pattern(make_pattern(
      "s", {constant("state", false), variable(TokenType::String, "v")}));
  const auto lit = parse_both(m, "s", "state on");
  ASSERT_TRUE(lit.has_value());
  EXPECT_TRUE(lit->fields.empty());  // took the literal edge
  const auto wild = parse_both(m, "s", "state off");
  ASSERT_TRUE(wild.has_value());
  ASSERT_EQ(wild->fields.size(), 1u);
  EXPECT_EQ(wild->fields[0].second, "off");
}

TEST(MatchProgram, BacktracksOutOfLiteralPrefix) {
  // "job alpha done" walks the literal "alpha" edge first (most-specific
  // wins), finds its subtree demands "failed", and must back out into the
  // %string% wildcard — without leaking bindings from the abandoned branch.
  Matchers m;
  m.add_pattern(make_pattern(
      "s", {constant("job", false), constant("alpha"), constant("failed")}));
  m.add_pattern(make_pattern(
      "s", {constant("job", false), variable(TokenType::String, "name"),
            constant("done")}));
  const auto r = parse_both(m, "s", "job alpha done");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->fields.size(), 1u);
  EXPECT_EQ(r->fields[0].first, "name");
  EXPECT_EQ(r->fields[0].second, "alpha");
  const auto f = parse_both(m, "s", "job alpha failed");
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->fields.empty());
}

TEST(MatchProgram, RestSuffixBindsRemainder) {
  Matchers m;
  m.add_pattern(make_pattern(
      "s", {constant("panic", false), variable(TokenType::Rest, "trace")}));
  const auto r = parse_both(m, "s", "panic stack frame 1 frame 2");
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->fields.size(), 1u);
  EXPECT_EQ(r->fields[0].first, "trace");
  EXPECT_EQ(r->fields[0].second, "stack frame 1 frame 2");
}

TEST(MatchProgram, RecompilesAfterPatternSetChange) {
  Matchers m;
  m.add_pattern(make_pattern("s", {constant("alpha", false)}));
  ASSERT_TRUE(parse_both(m, "s", "alpha"));
  EXPECT_FALSE(parse_both(m, "s", "beta"));
  const std::uint64_t epoch = m.parser.pattern_epoch();
  // Adding a pattern must invalidate the published program (epoch bump) and
  // the next match must see the new pattern.
  m.add_pattern(make_pattern("s", {constant("beta", false)}));
  EXPECT_GT(m.parser.pattern_epoch(), epoch);
  EXPECT_TRUE(parse_both(m, "s", "beta"));
  EXPECT_TRUE(parse_both(m, "s", "alpha"));
  m.clear();
  EXPECT_FALSE(parse_both(m, "s", "alpha"));
}

TEST(MatchProgram, HexWildcardStillRejectsShortIntegers) {
  // The one value-dependent acceptance rule: %hex% takes an Integer token
  // only when it is at least 6 digits (a plausible hex run), enforced at
  // match time on top of the type bitmask.
  Matchers m;
  m.add_pattern(make_pattern(
      "s", {constant("id", false), variable(TokenType::Hex, "h")}));
  EXPECT_FALSE(parse_both(m, "s", "id 12345"));
  const auto r = parse_both(m, "s", "id 123456");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->fields[0].second, "123456");
}

TEST(MatchProgram, DuplicatePatternFirstAddedWins) {
  // Identical key sequences share one terminal: the first pattern added
  // owns it, and its own variable names label the fields.
  Matchers m;
  const Pattern& first = m.add_pattern(make_pattern(
      "s", {constant("user", false), variable(TokenType::String, "who")}));
  const Pattern& second = m.add_pattern(make_pattern(
      "s", {constant("user", false), variable(TokenType::String, "name")}));
  ASSERT_NE(&first, &second);
  const auto r = parse_both(m, "s", "user alice");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pattern, &first);
  ASSERT_EQ(r->fields.size(), 1u);
  EXPECT_EQ(r->fields[0].first, "who");
}

TEST(MatchProgram, WildcardTypesTriedInFirstAddedOrder) {
  // %string% added before %integer% at one node: "5" satisfies both, and
  // the first type added at the node is tried first. At a sibling node
  // the order is that node's own, not the service's.
  Matchers m;
  const Pattern& str = m.add_pattern(make_pattern(
      "s", {constant("a", false), variable(TokenType::String, "s")}));
  m.add_pattern(make_pattern(
      "s", {constant("a", false), variable(TokenType::Integer, "n")}));
  const Pattern& num_b = m.add_pattern(make_pattern(
      "s", {constant("b", false), variable(TokenType::Integer, "n")}));
  const Pattern& str_b = m.add_pattern(make_pattern(
      "s", {constant("b", false), variable(TokenType::String, "s")}));
  const auto a = parse_both(m, "s", "a 5");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->pattern, &str);
  EXPECT_EQ(a->fields[0].first, "s");
  const auto b = parse_both(m, "s", "b 5");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->pattern, &num_b);
  EXPECT_EQ(b->fields[0].first, "n");
  const auto b_word = parse_both(m, "s", "b five");
  ASSERT_TRUE(b_word.has_value());
  EXPECT_EQ(b_word->pattern, &str_b);
}

TEST(MatchProgram, LongestRestPrefixWinsAndExactBeatsRest) {
  Matchers m;
  const Pattern& short_rest = m.add_pattern(make_pattern(
      "s", {constant("a", false), variable(TokenType::Rest, "tail")}));
  const Pattern& long_rest = m.add_pattern(make_pattern(
      "s", {constant("a", false), constant("b"),
            variable(TokenType::Rest, "more")}));
  const Pattern& exact = m.add_pattern(make_pattern(
      "s", {constant("a", false), constant("b"), constant("c")}));
  const auto r = parse_both(m, "s", "a b c");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pattern, &exact);
  const auto longer = parse_both(m, "s", "a b d e");
  ASSERT_TRUE(longer.has_value());
  EXPECT_EQ(longer->pattern, &long_rest);
  ASSERT_EQ(longer->fields.size(), 1u);
  EXPECT_EQ(longer->fields[0].first, "more");
  EXPECT_EQ(longer->fields[0].second, "d e");
  const auto shorter = parse_both(m, "s", "a x y");
  ASSERT_TRUE(shorter.has_value());
  EXPECT_EQ(shorter->pattern, &short_rest);
  EXPECT_EQ(shorter->fields[0].second, "x y");
  // A %rest% with an empty suffix still matches, and binds "".
  const auto empty_tail = parse_both(m, "s", "a b");
  ASSERT_TRUE(empty_tail.has_value());
  EXPECT_EQ(empty_tail->pattern, &long_rest);
  EXPECT_EQ(empty_tail->fields[0].second, "");
}

TEST(MatchProgram, ZeroTokenPatterns) {
  // A pattern with no tokens matches only the empty message; a bare
  // %rest% (zero-token prefix) matches anything, under the default name
  // when its variable is unnamed.
  Matchers m;
  const Pattern& empty = m.add_pattern(make_pattern("s", {}));
  EXPECT_FALSE(parse_both(m, "s", "x"));
  const auto r = parse_both(m, "s", "");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pattern, &empty);
  EXPECT_TRUE(r->fields.empty());
  const Pattern& any =
      m.add_pattern(make_pattern("s", {variable(TokenType::Rest, "")}));
  const auto x = parse_both(m, "s", "x y");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->pattern, &any);
  ASSERT_EQ(x->fields.size(), 1u);
  EXPECT_EQ(x->fields[0].first, "rest");
  EXPECT_EQ(x->fields[0].second, "x y");
  const auto still_empty = parse_both(m, "s", "");
  ASSERT_TRUE(still_empty.has_value());
  EXPECT_EQ(still_empty->pattern, &empty);
}

TEST(MatchProgram, FieldsNamedAfterMatchedPattern) {
  // Two patterns share the Integer wildcard edge after "x"; the field of a
  // match through it takes the matched pattern's name, not the name of
  // the pattern that was added first.
  Matchers m;
  m.add_pattern(make_pattern("s", {constant("x", false),
                                   variable(TokenType::Integer, "integer"),
                                   constant("y")}));
  const Pattern& count = m.add_pattern(make_pattern(
      "s", {constant("x", false), variable(TokenType::Integer, "count"),
            constant("z")}));
  const auto r = parse_both(m, "s", "x 5 z");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pattern, &count);
  ASSERT_EQ(r->fields.size(), 1u);
  EXPECT_EQ(r->fields[0].first, "count");
  EXPECT_EQ(r->fields[0].second, "5");
}

/// Both matchers over the analyser output of `records`.
void train(Matchers& m, const std::vector<LogRecord>& records,
           const EngineOptions& eopts) {
  InMemoryRepository repo;
  Engine engine(&repo, eopts);
  engine.analyze_by_service(records);
  for (const std::string& svc : repo.services()) {
    for (const Pattern& p : repo.load_service(svc)) m.add_pattern(p);
  }
}

std::vector<LogRecord> as_records(const std::string& service,
                                  const std::vector<std::string>& messages) {
  std::vector<LogRecord> records;
  records.reserve(messages.size());
  for (const std::string& msg : messages) {
    LogRecord rec;
    rec.service = service;
    rec.message = msg;
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(MatchProgram, DifferentialAgainstTrieAcrossAllLoghubCorpora) {
  for (const auto& spec : loggen::loghub_datasets()) {
    const auto train_msgs =
        loggen::generate_corpus(spec, 2000, util::kDefaultSeed).messages;
    const EngineOptions eopts;
    Matchers m(eopts.scanner, eopts.special);
    train(m, as_records(spec.name, train_msgs), eopts);
    // Replay: seen traffic (must mostly hit), fresh traffic from the same
    // generator family, and traffic from a sibling corpus (mostly misses).
    const auto fresh =
        loggen::generate_corpus(spec, 400, util::kDefaultSeed ^ 0xA5).messages;
    std::size_t hits = 0;
    for (const std::string& msg : fresh) {
      if (parse_both(m, spec.name, msg)) ++hits;
    }
    EXPECT_GT(hits, fresh.size() / 2) << spec.name;
    for (std::size_t i = 0; i < 200; ++i) {
      parse_both(m, spec.name, train_msgs[i]);
    }
  }
}

TEST(MatchProgram, DifferentialOnCrossCorpusMisses) {
  // Feed each trained parser traffic from every other dataset: exercises
  // the miss path (root rejection, mid-walk failures) through both
  // matchers.
  const auto& specs = loggen::loghub_datasets();
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const EngineOptions eopts;
    Matchers m(eopts.scanner, eopts.special);
    train(m,
          as_records(specs[t].name,
                     loggen::generate_corpus(specs[t], 800,
                                             util::kDefaultSeed)
                         .messages),
          eopts);
    for (std::size_t d = 0; d < specs.size(); ++d) {
      if (d == t) continue;
      for (const std::string& msg :
           loggen::generate_corpus(specs[d], 20, util::kDefaultSeed ^ t)
               .messages) {
        parse_both(m, specs[t].name, msg);
      }
    }
  }
}

TEST(MatchProgram, DifferentialOnFleetStream) {
  // Many services, many patterns each: per-service programs built from
  // interleaved insertions, replayed with fresh traffic.
  loggen::FleetOptions opts;
  opts.services = 40;
  opts.noise_fraction = 0.1;
  loggen::FleetGenerator fleet(opts);
  const EngineOptions eopts;
  Matchers m(eopts.scanner, eopts.special);
  train(m, fleet.take(8000), eopts);
  std::size_t hits = 0;
  const auto probes = fleet.take(4000);
  for (const LogRecord& rec : probes) {
    if (parse_both(m, rec.service, rec.message)) ++hits;
  }
  EXPECT_GT(hits, probes.size() / 2);
}

}  // namespace
}  // namespace seqrtg::core
