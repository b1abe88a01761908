#include "core/repository.hpp"

#include <gtest/gtest.h>

namespace seqrtg::core {
namespace {

Pattern make_pattern(std::string service, std::string constant_text,
                     std::uint64_t count = 1) {
  Pattern p;
  p.service = std::move(service);
  PatternToken t;
  t.is_variable = false;
  t.text = std::move(constant_text);
  p.tokens.push_back(std::move(t));
  p.stats.match_count = count;
  return p;
}

TEST(InMemoryRepository, UpsertAndFind) {
  InMemoryRepository repo;
  const Pattern p = make_pattern("sshd", "hello");
  repo.upsert_pattern(p);
  EXPECT_EQ(repo.pattern_count(), 1u);
  const auto found = repo.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->text(), "hello");
}

TEST(InMemoryRepository, FindUnknownIdIsEmpty) {
  InMemoryRepository repo;
  EXPECT_FALSE(repo.find("no-such-id").has_value());
}

TEST(InMemoryRepository, UpsertMergesCounts) {
  InMemoryRepository repo;
  repo.upsert_pattern(make_pattern("sshd", "hello", 3));
  repo.upsert_pattern(make_pattern("sshd", "hello", 4));
  EXPECT_EQ(repo.pattern_count(), 1u);
  const auto found = repo.find(make_pattern("sshd", "hello").id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 7u);
}

TEST(InMemoryRepository, ServiceSeparation) {
  InMemoryRepository repo;
  repo.upsert_pattern(make_pattern("sshd", "hello"));
  repo.upsert_pattern(make_pattern("cron", "hello"));
  EXPECT_EQ(repo.pattern_count(), 2u);
  EXPECT_EQ(repo.load_service("sshd").size(), 1u);
  EXPECT_EQ(repo.load_service("cron").size(), 1u);
  EXPECT_TRUE(repo.load_service("other").empty());
  const auto services = repo.services();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], "cron");
  EXPECT_EQ(services[1], "sshd");
}

TEST(InMemoryRepository, MatchPatternsIsLoadService) {
  InMemoryRepository repo;
  Pattern p = make_pattern("sshd", "hello", 2);
  p.examples = {"hello"};
  repo.upsert_pattern(p);
  repo.upsert_pattern(make_pattern("sshd", "bye"));
  repo.upsert_pattern(make_pattern("cron", "tick"));
  const std::vector<Pattern> loaded = repo.load_service("sshd");
  const std::vector<Pattern> matched = repo.match_patterns("sshd");
  ASSERT_EQ(matched.size(), loaded.size());
  for (std::size_t i = 0; i < matched.size(); ++i) {
    EXPECT_EQ(matched[i], loaded[i]);
    EXPECT_EQ(matched[i].examples, loaded[i].examples);
  }
  EXPECT_TRUE(repo.match_patterns("other").empty());
}

TEST(InMemoryRepository, RecordMatchUpdatesStats) {
  InMemoryRepository repo;
  const Pattern p = make_pattern("s", "x", 1);
  repo.upsert_pattern(p);
  repo.record_match(p.id(), 5, 1600000000);
  const auto found = repo.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 6u);
  EXPECT_EQ(found->stats.last_matched, 1600000000);
}

TEST(InMemoryRepository, RecordMatchKeepsNewestDate) {
  InMemoryRepository repo;
  const Pattern p = make_pattern("s", "x");
  repo.upsert_pattern(p);
  repo.record_match(p.id(), 1, 2000);
  repo.record_match(p.id(), 1, 1000);  // older date must not regress
  EXPECT_EQ(repo.find(p.id())->stats.last_matched, 2000);
}

TEST(InMemoryRepository, RecordMatchUnknownIdIsNoop) {
  InMemoryRepository repo;
  repo.record_match("missing", 1, 1);
  EXPECT_EQ(repo.pattern_count(), 0u);
}

TEST(MergePatternInto, ExamplesDedupAndCap) {
  Pattern a = make_pattern("s", "x");
  a.examples = {"e1", "e2"};
  Pattern b = make_pattern("s", "x");
  b.examples = {"e2", "e3", "e4"};
  merge_pattern_into(a, b, 3);
  ASSERT_EQ(a.examples.size(), 3u);
  EXPECT_EQ(a.examples[2], "e3");
}

TEST(MergePatternInto, FirstSeenTakesEarliest) {
  Pattern a = make_pattern("s", "x");
  a.stats.first_seen = 500;
  Pattern b = make_pattern("s", "x");
  b.stats.first_seen = 200;
  merge_pattern_into(a, b);
  EXPECT_EQ(a.stats.first_seen, 200);
  // Zero (unset) must not override a real timestamp.
  Pattern c = make_pattern("s", "x");
  c.stats.first_seen = 0;
  merge_pattern_into(a, c);
  EXPECT_EQ(a.stats.first_seen, 200);
}

}  // namespace
}  // namespace seqrtg::core
