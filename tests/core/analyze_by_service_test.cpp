#include "core/analyze_by_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/evolution.hpp"
#include "core/parser.hpp"
#include "loggen/corpus.hpp"

namespace seqrtg::core {
namespace {

std::vector<LogRecord> sshd_batch() {
  return {
      {"sshd", "Accepted password for u1x from 10.0.0.1 port 1001 ssh2"},
      {"sshd", "Accepted password for u2x from 10.0.0.2 port 1002 ssh2"},
      {"sshd", "Accepted password for u3x from 10.0.0.3 port 1003 ssh2"},
      {"cron", "(root) CMD (run-parts /etc/cron.hourly)"},
      {"cron", "(root) CMD (run-parts /etc/cron.daily)"},
  };
}

std::vector<std::string> all_pattern_texts(PatternRepository& repo) {
  std::vector<std::string> out;
  for (const std::string& svc : repo.services()) {
    for (const Pattern& p : repo.load_service(svc)) {
      out.push_back(p.service + "|" + p.text());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AnalyzeByService, DiscoversPerServicePatterns) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  const BatchReport report = engine.analyze_by_service(sshd_batch());
  EXPECT_EQ(report.records, 5u);
  EXPECT_EQ(report.services, 2u);
  EXPECT_EQ(report.matched_existing, 0u);
  EXPECT_EQ(report.analyzed, 5u);
  EXPECT_GT(repo.pattern_count(), 0u);
  // Patterns never cross services.
  for (const Pattern& p : repo.load_service("cron")) {
    EXPECT_EQ(p.service, "cron");
  }
}

TEST(AnalyzeByService, ParseFirstSkipsKnownMessages) {
  InMemoryRepository repo;
  EngineOptions opts;
  opts.now_unix = 111;
  Engine engine(&repo, opts);
  engine.analyze_by_service(sshd_batch());
  const std::size_t patterns_after_first = repo.pattern_count();

  // Re-running the same batch must match everything against the stored
  // patterns and discover nothing new (Fig. 2: "If a match is found ...
  // no further processing occurs for this message").
  EngineOptions opts2 = opts;
  opts2.now_unix = 222;
  Engine engine2(&repo, opts2);
  const BatchReport second = engine2.analyze_by_service(sshd_batch());
  EXPECT_EQ(second.matched_existing, 5u);
  EXPECT_EQ(second.analyzed, 0u);
  EXPECT_EQ(second.new_patterns, 0u);
  EXPECT_EQ(repo.pattern_count(), patterns_after_first);

  // Stats were updated with the new clock.
  bool saw_updated = false;
  for (const std::string& svc : repo.services()) {
    for (const Pattern& p : repo.load_service(svc)) {
      if (p.stats.last_matched == 222) saw_updated = true;
    }
  }
  EXPECT_TRUE(saw_updated);
}

TEST(AnalyzeByService, SaveThresholdDropsRarePatterns) {
  InMemoryRepository repo;
  EngineOptions opts;
  opts.save_threshold = 2;
  Engine engine(&repo, opts);
  const BatchReport report = engine.analyze_by_service({
      {"s", "repeated event 10.0.0.1"},
      {"s", "repeated event 10.0.0.2"},
      {"s", "one-off oddity never again"},
  });
  EXPECT_EQ(report.new_patterns, 1u);
  EXPECT_EQ(report.below_threshold, 1u);
  EXPECT_EQ(repo.pattern_count(), 1u);
}

TEST(AnalyzeByService, SecondPartitioningByTokenCount) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  // Same prefix, different token counts: must land in different tries and
  // therefore different patterns.
  engine.analyze_by_service({
      {"s", "shutdown complete"},
      {"s", "shutdown complete now"},
  });
  EXPECT_EQ(repo.pattern_count(), 2u);
}

TEST(AnalyzeByService, SerialAndParallelProduceIdenticalRepositories) {
  std::vector<LogRecord> batch;
  for (int svc = 0; svc < 12; ++svc) {
    for (int i = 0; i < 30; ++i) {
      batch.push_back({"svc" + std::to_string(svc),
                       "event type " + std::to_string(i % 4) + " value " +
                           std::to_string(i * 17) + " from 10.0.0." +
                           std::to_string(i % 250)});
    }
  }
  InMemoryRepository serial_repo;
  EngineOptions serial_opts;
  serial_opts.threads = 1;
  Engine(&serial_repo, serial_opts).analyze_by_service(batch);

  InMemoryRepository parallel_repo;
  EngineOptions parallel_opts;
  parallel_opts.threads = 8;
  Engine(&parallel_repo, parallel_opts).analyze_by_service(batch);

  EXPECT_EQ(all_pattern_texts(serial_repo), all_pattern_texts(parallel_repo));
}

TEST(AnalyzeByService, EmptyBatch) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  const BatchReport report = engine.analyze_by_service({});
  EXPECT_EQ(report.records, 0u);
  EXPECT_EQ(repo.pattern_count(), 0u);
}

TEST(AnalyzeByService, EmptyMessagesAreIgnored) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  const BatchReport report = engine.analyze_by_service({{"s", ""}});
  EXPECT_EQ(report.analyzed, 0u);
  EXPECT_EQ(report.matched_existing, 0u);
}

TEST(AnalyzeByService, MultiLineMessagesGetRestPatterns) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  engine.analyze_by_service({
      {"s", "exception in thread main\n  at Foo.java:1\n  at Bar.java:2"},
      {"s", "exception in thread main\n  at Baz.java:9"},
  });
  const auto patterns = repo.load_service("s");
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].text(), "exception in thread main %rest%");
}

TEST(AnalyzeSingleTrie, NoServicePartitioning) {
  InMemoryRepository repo;
  Engine engine(&repo, EngineOptions{});
  const BatchReport report = engine.analyze_single_trie(sshd_batch());
  EXPECT_EQ(report.services, 1u);
  // Everything lands under the pseudo-service "*".
  EXPECT_FALSE(repo.load_service("*").empty());
  EXPECT_TRUE(repo.load_service("sshd").empty());
  EXPECT_EQ(report.matched_existing, 0u);
}

TEST(AnalyzeByService, LengthPartitioningCanBeDisabledForAblation) {
  InMemoryRepository repo;
  EngineOptions opts;
  opts.partition_by_length = false;
  Engine engine(&repo, opts);
  const BatchReport report = engine.analyze_by_service({
      {"s", "shutdown complete"},
      {"s", "shutdown complete now"},
  });
  EXPECT_EQ(report.analyzed, 2u);
  // One shared trie: the shorter message is a prefix path of the longer.
  EXPECT_EQ(repo.pattern_count(), 2u);
}

TEST(AnalyzeByService, StatsStampedWithInjectedClock) {
  InMemoryRepository repo;
  EngineOptions opts;
  opts.now_unix = 1234567;
  Engine engine(&repo, opts);
  engine.analyze_by_service({{"s", "hello world"}});
  const auto patterns = repo.load_service("s");
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].stats.first_seen, 1234567);
}

using MatchCalls = std::vector<std::pair<std::string, std::uint64_t>>;

/// An InMemoryRepository that logs every record_match call in order.
class RecordingRepository final : public PatternRepository {
 public:
  std::vector<Pattern> load_service(std::string_view service) override {
    return inner_.load_service(service);
  }
  std::vector<std::string> services() override { return inner_.services(); }
  void upsert_pattern(const Pattern& p) override { inner_.upsert_pattern(p); }
  void record_match(const std::string& id, std::uint64_t count,
                    std::int64_t when) override {
    calls.emplace_back(id, count);
    inner_.record_match(id, count, when);
  }
  bool delete_pattern(const std::string& id) override {
    return inner_.delete_pattern(id);
  }
  std::optional<Pattern> find(const std::string& id) override {
    return inner_.find(id);
  }
  std::size_t pattern_count() override { return inner_.pattern_count(); }

  MatchCalls calls;

 private:
  InMemoryRepository inner_;
};

// The engine counts parse-first matches per matched pattern, computes each
// id once per pass, and feeds value sketches through per-pass buffers
// merged at the end. Differential: over every LogHub corpus and several
// batches, the sketches must equal a registry fed observe(p.id(), fields)
// record by record from Parser::parse against the repository as it stood
// before the batch, and the batch's record_match calls (ids, counts,
// order) must be the per-service, id-ordered counts of those matches.
TEST(AnalyzeByService, SketchesAndMatchUpdatesEqualPerRecordReference) {
  std::vector<std::vector<std::string>> corpora;
  for (const loggen::DatasetSpec& spec : loggen::loghub_datasets()) {
    corpora.push_back(
        loggen::generate_corpus(spec, 480, util::kDefaultSeed).messages);
  }
  const auto& specs = loggen::loghub_datasets();
  ASSERT_EQ(corpora.size(), 16u);
  std::vector<LogRecord> stream;
  for (std::size_t i = 0; i < corpora[0].size(); ++i) {
    for (std::size_t d = 0; d < corpora.size(); ++d) {
      if (i < corpora[d].size()) stream.push_back({specs[d].name, corpora[d][i]});
    }
  }

  RecordingRepository repo;
  SketchRegistry sketches;
  EngineOptions opts;
  opts.threads = 2;
  opts.sketches = &sketches;
  Engine engine(&repo, opts);
  SketchRegistry reference;

  constexpr std::size_t kBatches = 4;
  const std::size_t batch_size = (stream.size() + kBatches - 1) / kBatches;
  std::uint64_t matched_total = 0;
  for (std::size_t b = 0; b * batch_size < stream.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const auto first = stream.begin() + static_cast<std::ptrdiff_t>(b * batch_size);
    const auto last = stream.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(stream.size(), (b + 1) * batch_size));
    const std::vector<LogRecord> batch(first, last);

    Parser parser(opts.scanner, opts.special);
    for (const std::string& service : repo.services()) {
      for (const Pattern& p : repo.load_service(service)) parser.add_pattern(p);
    }
    std::map<std::string, std::map<std::string, std::uint64_t>> counts;
    for (const LogRecord& r : batch) {
      if (const auto result = parser.parse(r.service, r.message)) {
        const std::string id = result->pattern->id();
        reference.observe(id, result->fields);
        ++counts[r.service][id];
      }
    }
    MatchCalls expected;
    for (const auto& [service, by_id] : counts) {
      for (const auto& [id, count] : by_id) {
        expected.emplace_back(id, count);
        matched_total += count;
      }
    }

    repo.calls.clear();
    const BatchReport report = engine.analyze_by_service(batch);
    std::uint64_t expected_matched = 0;
    for (const auto& [id, count] : expected) expected_matched += count;
    EXPECT_EQ(report.matched_existing, expected_matched);
    EXPECT_EQ(repo.calls, expected);
    EXPECT_EQ(sketches.snapshot(), reference.snapshot());
    EXPECT_EQ(sketches.approx_bytes(), sketches.recount_bytes());
  }
  // Later batches mostly match what earlier ones mined.
  EXPECT_GT(matched_total, stream.size() / 2);
}

}  // namespace
}  // namespace seqrtg::core
