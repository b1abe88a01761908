// Golden fixtures for the store's two on-disk formats (DESIGN.md §10): the
// `seqrtgdb 1` snapshot and the write-ahead log.
//
// tests/store/fixtures/ holds the files that one fixed operation sequence
// (golden_phase_one/two below) wrote with the store as it was before it
// dropped its SQL layer:
//
//   golden/snapshot-8.db  checkpoint() after phase one
//   golden/wal.log        phase two, appended after that checkpoint
//   saved.db              save() after both phases
//   extra.db              saved.db plus a "meta" table holding NULL,
//                         INTEGER, REAL and TEXT values, which loaders
//                         parse and then ignore
//
// The sequence covers text with tab, newline, quote, backslash, control
// bytes and non-ASCII, an erased row, updated rows, widened token lists,
// examples at the cap, zero and negative timestamps, a batch, and a spill
// plus reload. The tests open the fixtures and compare their rows with the
// patterns the live sequence leaves behind, and replay the sequence into a
// fresh directory, requiring every file it writes to match byte for byte.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "store/pattern_store.hpp"
#include "store/token_codec.hpp"

namespace seqrtg::store {
namespace {

namespace fs = std::filesystem;

const std::string kTabService = "svc\tone";
const std::string kUtf8Service = "na\xc3\xafve \xe2\x9c\x93";

core::PatternToken constant(std::string text, bool space_before) {
  core::PatternToken t;
  t.text = std::move(text);
  t.is_space_before = space_before;
  return t;
}

core::PatternToken variable(std::string name, core::TokenType type,
                            bool space_before) {
  core::PatternToken t;
  t.is_variable = true;
  t.var_type = type;
  t.name = std::move(name);
  t.is_space_before = space_before;
  return t;
}

core::Pattern pattern(std::string service,
                      std::vector<core::PatternToken> tokens,
                      std::uint64_t count, std::int64_t first_seen,
                      std::int64_t last_matched,
                      std::vector<std::string> examples) {
  core::Pattern p;
  p.service = std::move(service);
  p.tokens = std::move(tokens);
  p.stats.match_count = count;
  p.stats.first_seen = first_seen;
  p.stats.last_matched = last_matched;
  p.examples = std::move(examples);
  return p;
}

core::Pattern login(core::TokenType user, core::TokenType srcip,
                    std::uint64_t count, std::int64_t first_seen,
                    std::int64_t last_matched,
                    std::vector<std::string> examples) {
  return pattern(kTabService,
                 {constant("login", false), variable("user", user, true),
                  constant("from", true), variable("srcip", srcip, true)},
                 count, first_seen, last_matched, std::move(examples));
}

core::Pattern quoted(std::uint64_t count, std::int64_t first_seen,
                     std::int64_t last_matched,
                     std::vector<std::string> examples) {
  return pattern(kUtf8Service,
                 {constant("quote\"back\\slash", false),
                  variable("n", core::TokenType::Integer, true),
                  constant("\xc3\xa9t\xc3\xa9", true)},
                 count, first_seen, last_matched, std::move(examples));
}

core::Pattern doomed() {
  return pattern(kTabService,
                 {constant("doomed", false),
                  variable("integer", core::TokenType::Integer, true)},
                 2, 10, 20, {"doomed 1"});
}

core::Pattern bell() {
  return pattern(kTabService,
                 {constant("bell\x07", false),
                  variable("f", core::TokenType::Float, true)},
                 5, 0, 0, {});
}

core::Pattern all_variables() {
  return pattern(kUtf8Service,
                 {variable("time", core::TokenType::Time, false),
                  variable("rest", core::TokenType::Rest, true)},
                 0, 0, 0, {"12:00:00 anything\rgoes"});
}

/// Eight commit groups; a checkpoint after them writes snapshot-8.db.
void golden_phase_one(PatternStore& store) {
  store.upsert_pattern(login(core::TokenType::Integer, core::TokenType::IPv4,
                             3, 0, -5, {"login 42 from 10.0.0.1"}));
  store.upsert_pattern(quoted(1, -100, 0,
                              {"line\nbreak", std::string("ctrl\x01\x1f\x7f"),
                               "tab\there"}));
  store.upsert_pattern(doomed());
  // Widens user to String; first_seen 0 is replaced by -7.
  store.upsert_pattern(login(core::TokenType::String, core::TokenType::IPv4,
                             2, -7, 30,
                             {"login 42 from 10.0.0.1",
                              "login bob from 10.0.0.2"}));
  store.record_match(quoted(0, 0, 0, {}).id(), 4, 1700000000);
  // At the example cap already: neither example is added, and first_seen
  // 0 keeps the stored -100.
  store.upsert_pattern(quoted(2, 0, -1, {"fourth example", "fifth"}));
  store.delete_pattern(doomed().id());
  store.begin_batch();
  store.upsert_pattern(bell());
  store.record_match(login(core::TokenType::String, core::TokenType::IPv4, 0,
                           0, 0, {})
                         .id(),
                     2, -1);
  store.commit_batch();
}

void golden_phase_two(PatternStore& store) {
  store.upsert_pattern(doomed());
  store.record_match(bell().id(), 1, 5);
  // Widens srcip to String and fills the examples to the cap.
  store.upsert_pattern(login(core::TokenType::String, core::TokenType::IPv6,
                             2, 0, 31, {"login eve from ::1", "one too many"}));
  store.upsert_pattern(all_variables());
  store.spill_partition(kUtf8Service);
  store.load_service(kUtf8Service);  // reloads the spilled partition
  store.delete_pattern(doomed().id());
}

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("seqrtg_golden_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

const fs::path kFixtures = SEQRTG_STORE_FIXTURE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Every field of every pattern, service by service.
std::string dump(PatternStore& store) {
  std::ostringstream out;
  for (const std::string& service : store.services()) {
    for (const core::Pattern& p : store.load_service(service)) {
      out << p.service << " | " << p.text() << " | "
          << pattern_tokens_to_json(p.tokens) << " | " << p.stats.match_count
          << ' ' << p.stats.first_seen << ' ' << p.stats.last_matched;
      for (const std::string& e : p.examples) out << " | " << e;
      out << '\n';
    }
  }
  return out.str();
}

/// The sequence replayed on a fresh durable store in `dir`.
void replay_sequence(PatternStore& store, const fs::path& dir) {
  ASSERT_TRUE(store.open(dir.string()));
  golden_phase_one(store);
  ASSERT_TRUE(store.checkpoint());
  golden_phase_two(store);
}

TEST(StoreGolden, ReplayWritesFixtureBytes) {
  TempDir dir("replay");
  PatternStore store;
  replay_sequence(store, dir.path);
  ASSERT_TRUE(store.save((dir.path / "saved.db").string()));
  EXPECT_EQ(read_file(dir.path / "snapshot-8.db"),
            read_file(kFixtures / "golden" / "snapshot-8.db"));
  EXPECT_EQ(read_file(dir.path / "wal.log"),
            read_file(kFixtures / "golden" / "wal.log"));
  EXPECT_EQ(read_file(dir.path / "saved.db"),
            read_file(kFixtures / "saved.db"));
}

TEST(StoreGolden, FixturesHoldTheSequencesPatterns) {
  TempDir live_dir("live");
  PatternStore live;
  replay_sequence(live, live_dir.path);
  const std::string expected = dump(live);

  TempDir dir("open");
  for (const auto& entry : fs::directory_iterator(kFixtures / "golden")) {
    fs::copy_file(entry.path(), dir.path / entry.path().filename());
  }
  PatternStore opened;
  ASSERT_TRUE(opened.open(dir.path.string()));
  EXPECT_EQ(opened.durability_stats().snapshot_seq, 8u);
  EXPECT_EQ(dump(opened), expected);

  for (const char* name : {"saved.db", "extra.db"}) {
    PatternStore loaded;
    ASSERT_TRUE(loaded.load((kFixtures / name).string())) << name;
    EXPECT_EQ(dump(loaded), expected) << name;
  }
}

TEST(StoreGolden, ExpectedRowsSpotChecks) {
  PatternStore store;
  ASSERT_TRUE(store.load((kFixtures / "saved.db").string()));
  EXPECT_EQ(store.services(),
            (std::vector<std::string>{kUtf8Service, kTabService}));
  EXPECT_EQ(store.pattern_count(), 4u);
  EXPECT_FALSE(store.find(doomed().id()).has_value());

  const auto l = store.find(
      login(core::TokenType::String, core::TokenType::String, 0, 0, 0, {})
          .id());
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->tokens[1].var_type, core::TokenType::String);
  EXPECT_EQ(l->tokens[3].var_type, core::TokenType::String);
  EXPECT_EQ(l->stats.match_count, 9u);
  EXPECT_EQ(l->stats.first_seen, -7);
  EXPECT_EQ(l->stats.last_matched, 31);
  EXPECT_EQ(l->examples,
            (std::vector<std::string>{"login 42 from 10.0.0.1",
                                      "login bob from 10.0.0.2",
                                      "login eve from ::1"}));

  const auto q = store.find(quoted(0, 0, 0, {}).id());
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->stats.match_count, 7u);
  EXPECT_EQ(q->stats.first_seen, -100);
  EXPECT_EQ(q->stats.last_matched, 1700000000);
  EXPECT_EQ(q->examples,
            (std::vector<std::string>{"line\nbreak",
                                      std::string("ctrl\x01\x1f\x7f"),
                                      "tab\there"}));

  const auto b = store.find(bell().id());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->stats.match_count, 6u);
  EXPECT_EQ(b->stats.last_matched, 5);
  EXPECT_TRUE(b->examples.empty());

  const auto v = store.find(all_variables().id());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->stats.match_count, 0u);
  EXPECT_DOUBLE_EQ(v->complexity(), 1.0);
}

TEST(StoreGolden, ExtraTablesAreDroppedOnSave) {
  TempDir dir("extra");
  PatternStore store;
  ASSERT_TRUE(store.load((kFixtures / "extra.db").string()));
  ASSERT_TRUE(store.save((dir.path / "resaved.db").string()));
  EXPECT_EQ(read_file(dir.path / "resaved.db"),
            read_file(kFixtures / "saved.db"));
}

}  // namespace
}  // namespace seqrtg::store
