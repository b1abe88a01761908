#include "core/parser.hpp"

#include <gtest/gtest.h>

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

class ParserTest : public ::testing::Test {
 protected:
  Parser parser_;
};

TEST_F(ParserTest, ExactConstantMatch) {
  parser_.add_pattern(make_pattern(
      "cron", {constant("job", false), constant("started")}));
  const auto result = parser_.parse("cron", "job started");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern->text(), "job started");
  EXPECT_TRUE(result->fields.empty());
}

TEST_F(ParserTest, TypedVariableMatchAndExtraction) {
  parser_.add_pattern(make_pattern(
      "sshd", {constant("login", false), constant("from"),
               variable(TokenType::IPv4, "srcip"), constant("port"),
               variable(TokenType::Integer, "srcport")}));
  const auto result = parser_.parse("sshd", "login from 10.1.2.3 port 22");
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->fields.size(), 2u);
  EXPECT_EQ(result->fields[0].first, "srcip");
  EXPECT_EQ(result->fields[0].second, "10.1.2.3");
  EXPECT_EQ(result->fields[1].first, "srcport");
  EXPECT_EQ(result->fields[1].second, "22");
}

TEST_F(ParserTest, NoMatchOnWrongService) {
  parser_.add_pattern(make_pattern("sshd", {constant("x", false)}));
  EXPECT_FALSE(parser_.parse("cron", "x").has_value());
}

TEST_F(ParserTest, NoMatchOnWrongLength) {
  parser_.add_pattern(make_pattern("s", {constant("a", false)}));
  EXPECT_FALSE(parser_.parse("s", "a b").has_value());
}

TEST_F(ParserTest, NoMatchOnTypeMismatch) {
  parser_.add_pattern(make_pattern(
      "s", {constant("v", false), variable(TokenType::IPv4, "ip")}));
  EXPECT_FALSE(parser_.parse("s", "v not-an-ip").has_value());
  EXPECT_TRUE(parser_.parse("s", "v 10.0.0.1").has_value());
}

TEST_F(ParserTest, LiteralPreferredOverWildcard) {
  parser_.add_pattern(make_pattern(
      "s", {constant("state", false), constant("on")}));
  parser_.add_pattern(make_pattern(
      "s", {constant("state", false), variable(TokenType::String, "v")}));
  const auto exact = parser_.parse("s", "state on");
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->pattern->text(), "state on");
  const auto wild = parser_.parse("s", "state off");
  ASSERT_TRUE(wild.has_value());
  EXPECT_EQ(wild->pattern->text(), "state %v%");
}

TEST_F(ParserTest, BacktracksWhenLiteralPathDeadEnds) {
  // "state on" + literal path exists but continues differently; the
  // wildcard alternative must be found by backtracking.
  parser_.add_pattern(make_pattern(
      "s", {constant("state", false), constant("on"), constant("fire")}));
  parser_.add_pattern(make_pattern(
      "s", {constant("state", false), variable(TokenType::String, "v"),
            constant("ok")}));
  const auto result = parser_.parse("s", "state on ok");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern->text(), "state %v% ok");
}

TEST_F(ParserTest, FloatVariableAcceptsInteger) {
  parser_.add_pattern(make_pattern(
      "s", {constant("took", false), variable(TokenType::Float, "t")}));
  EXPECT_TRUE(parser_.parse("s", "took 1.5").has_value());
  EXPECT_TRUE(parser_.parse("s", "took 2").has_value());
}

TEST_F(ParserTest, StringVariableAcceptsAnySingleToken) {
  parser_.add_pattern(make_pattern(
      "s", {constant("got", false), variable(TokenType::String, "v")}));
  EXPECT_TRUE(parser_.parse("s", "got word").has_value());
  EXPECT_TRUE(parser_.parse("s", "got 10.0.0.1").has_value());
  EXPECT_TRUE(parser_.parse("s", "got 42").has_value());
  EXPECT_FALSE(parser_.parse("s", "got two words").has_value());
}

TEST_F(ParserTest, RestPatternMatchesAnySuffix) {
  parser_.add_pattern(make_pattern(
      "s", {constant("stack", false), constant("trace"),
            variable(TokenType::Rest, "rest")}));
  const auto result =
      parser_.parse("s", "stack trace at line 42 in foo.cpp");
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->fields.empty());
  EXPECT_EQ(result->fields.back().first, "rest");
  EXPECT_EQ(result->fields.back().second, "at line 42 in foo.cpp");
}

TEST_F(ParserTest, RestPatternMatchesMultiLineMessages) {
  parser_.add_pattern(make_pattern(
      "s", {constant("error", false), variable(TokenType::Rest, "rest")}));
  EXPECT_TRUE(parser_.parse("s", "error first\nsecond\nthird").has_value());
}

TEST_F(ParserTest, RestPatternRequiresPrefixMatch) {
  parser_.add_pattern(make_pattern(
      "s", {constant("error", false), variable(TokenType::Rest, "rest")}));
  EXPECT_FALSE(parser_.parse("s", "warning stuff here").has_value());
}

TEST_F(ParserTest, ExactLengthPreferredOverRest) {
  parser_.add_pattern(make_pattern(
      "s", {constant("err", false), variable(TokenType::Integer, "code")}));
  parser_.add_pattern(make_pattern(
      "s", {constant("err", false), variable(TokenType::Rest, "rest")}));
  const auto result = parser_.parse("s", "err 42");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->fields.front().first, "code");
}

TEST_F(ParserTest, LongerRestPrefixBeatsShorter) {
  // A generic one-token-prefix rest pattern must not shadow the more
  // specific two-token one: candidate prefix indexes are walked
  // longest-first.
  parser_.add_pattern(make_pattern(
      "s", {constant("error", false), variable(TokenType::Rest, "generic")}));
  parser_.add_pattern(make_pattern(
      "s", {constant("error", false), constant("fatal"),
            variable(TokenType::Rest, "detail")}));
  const auto result = parser_.parse("s", "error fatal disk on fire");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->fields.back().first, "detail");
  EXPECT_EQ(result->fields.back().second, "disk on fire");
  // The generic pattern still catches everything else.
  const auto other = parser_.parse("s", "error something mild");
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->fields.back().first, "generic");
}

TEST_F(ParserTest, SpecialTokensMatchThroughPromotion) {
  parser_.add_pattern(make_pattern(
      "s", {constant("mail", false), constant("to"),
            variable(TokenType::Email, "rcpt")}));
  const auto result = parser_.parse("s", "mail to user@example.org");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->fields.front().second, "user@example.org");
}

TEST_F(ParserTest, TimeVariableMatchesTimestamps) {
  parser_.add_pattern(make_pattern(
      "s", {variable(TokenType::Time, "ts", false), constant("boot")}));
  EXPECT_TRUE(parser_.parse("s", "2021-01-12 06:25:56 boot").has_value());
  EXPECT_FALSE(parser_.parse("s", "notatime boot").has_value());
}

TEST_F(ParserTest, MultiplePatternsSameService) {
  for (int i = 0; i < 50; ++i) {
    parser_.add_pattern(make_pattern(
        "s", {constant("evt" + std::to_string(i), false),
              variable(TokenType::Integer, "n")}));
  }
  EXPECT_EQ(parser_.pattern_count(), 50u);
  const auto result = parser_.parse("s", "evt33 777");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern->text(), "evt33 %n%");
}

TEST_F(ParserTest, ClearEmptiesEverything) {
  parser_.add_pattern(make_pattern("s", {constant("x", false)}));
  parser_.clear();
  EXPECT_EQ(parser_.pattern_count(), 0u);
  EXPECT_FALSE(parser_.parse("s", "x").has_value());
}

TEST_F(ParserTest, DuplicatePatternsAreIdempotent) {
  const Pattern p = make_pattern("s", {constant("dup", false)});
  parser_.add_pattern(p);
  parser_.add_pattern(p);
  const auto result = parser_.parse("s", "dup");
  ASSERT_TRUE(result.has_value());
}

TEST_F(ParserTest, FieldNamedAfterMatchedPatternsVariable) {
  // Both patterns walk the same Integer wildcard after "x"; the field takes
  // the name the matched pattern gives it, not the first pattern's.
  parser_.add_pattern(make_pattern(
      "s", {constant("x", false), variable(TokenType::Integer, "integer"),
            constant("y")}));
  parser_.add_pattern(make_pattern(
      "s", {constant("x", false), variable(TokenType::Integer, "count"),
            constant("z")}));
  const auto result = parser_.parse("s", "x 5 z");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->pattern->text(), "x %count% z");
  ASSERT_EQ(result->fields.size(), 1u);
  EXPECT_EQ(result->fields[0].first, "count");
  EXPECT_EQ(result->fields[0].second, "5");
}

TEST(VariableMatches, TypeMatrix) {
  Token integer{TokenType::Integer, "42", false, ""};
  Token ip{TokenType::IPv4, "1.2.3.4", false, ""};
  Token word{TokenType::Literal, "word", false, ""};
  Token hex{TokenType::Hex, "deadbeef01", false, ""};
  Token long_int{TokenType::Integer, "12345678", false, ""};

  EXPECT_TRUE(variable_matches(TokenType::String, word));
  EXPECT_TRUE(variable_matches(TokenType::String, ip));
  EXPECT_TRUE(variable_matches(TokenType::Integer, integer));
  EXPECT_FALSE(variable_matches(TokenType::Integer, word));
  EXPECT_TRUE(variable_matches(TokenType::Float, integer));
  EXPECT_TRUE(variable_matches(TokenType::Hex, hex));
  EXPECT_TRUE(variable_matches(TokenType::Hex, long_int));
  EXPECT_FALSE(variable_matches(TokenType::Hex, word));
  EXPECT_FALSE(variable_matches(TokenType::Literal, word));
  EXPECT_FALSE(variable_matches(TokenType::Rest, word));
}

}  // namespace
}  // namespace seqrtg::core
