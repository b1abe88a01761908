#include "store/pattern_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/analyze_by_service.hpp"
#include "core/evolution.hpp"
#include "core/governor.hpp"
#include "loggen/fleet.hpp"
#include "obs/metrics.hpp"
#include "store/wal.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"

namespace seqrtg::store {

/// The test-only route to a store's rows (a friend of PatternStore).
struct PatternStoreTestAccess {
  static std::size_t rows(const PatternStore& store) {
    return store.rows_.size();
  }
  /// Rows the service partitions list.
  static std::size_t indexed_rows(const PatternStore& store) {
    std::size_t n = 0;
    for (const auto& [service, partition] : store.partitions_) {
      n += partition.rows.size();
    }
    return n;
  }
};

namespace {

namespace fs = std::filesystem;

const fs::path kFixtures = SEQRTG_STORE_FIXTURE_DIR;

/// A per-process scratch path (ctest runs cases of one binary in
/// parallel).
fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() /
         ("seqrtg_store_" + name + "_" + std::to_string(::getpid()));
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Appends a row of tagged cells (`T` + JSON-escaped text, `I`, `R`) to
/// the patterns table of the snapshot at `path`: the way a damaged row
/// really reaches a store.
void plant_pattern_row(const fs::path& path,
                       const std::vector<std::string>& cells) {
  std::string text = read_file(path);
  // patterns sorts after examples, so its end line closes the file.
  ASSERT_TRUE(text.ends_with("\nend\n"));
  std::string line = "row";
  for (const std::string& cell : cells) line += '\t' + cell;
  text.insert(text.size() - 4, line + "\n");
  write_file(path, text);
}

obs::Counter& corrupt_rows() {
  return obs::default_registry().counter("seqrtg_store_corrupt_rows_total",
                                         "");
}

core::Pattern make_pattern(std::string service, std::string text_word,
                           std::uint64_t count = 1) {
  core::Pattern p;
  p.service = std::move(service);
  core::PatternToken c;
  c.is_variable = false;
  c.text = std::move(text_word);
  p.tokens.push_back(c);
  core::PatternToken v;
  v.is_variable = true;
  v.var_type = core::TokenType::Integer;
  v.name = "n";
  v.is_space_before = true;
  p.tokens.push_back(v);
  p.stats.match_count = count;
  p.stats.first_seen = 100;
  p.stats.last_matched = 100;
  return p;
}

TEST(PatternTokensJson, RoundTrip) {
  const core::Pattern p = make_pattern("svc", "event");
  const std::string json = pattern_tokens_to_json(p.tokens);
  const auto back = pattern_tokens_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p.tokens);
}

TEST(PatternTokensJson, RejectsMalformed) {
  EXPECT_FALSE(pattern_tokens_from_json("not json").has_value());
  EXPECT_FALSE(pattern_tokens_from_json("{}").has_value());
  EXPECT_FALSE(pattern_tokens_from_json("[{\"v\":1}]").has_value());
}

TEST(PatternStore, UpsertFindRoundTrip) {
  PatternStore store;
  const core::Pattern p = make_pattern("sshd", "login", 3);
  store.upsert_pattern(p);
  EXPECT_EQ(store.pattern_count(), 1u);
  const auto found = store.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->text(), "login %n%");
  EXPECT_EQ(found->service, "sshd");
  EXPECT_EQ(found->stats.match_count, 3u);
  EXPECT_EQ(found->tokens, p.tokens) << "typed tokens must round-trip";
}

TEST(PatternStore, UpsertMergesExisting) {
  PatternStore store;
  core::Pattern p = make_pattern("sshd", "login", 3);
  p.examples = {"login 1"};
  store.upsert_pattern(p);
  core::Pattern q = make_pattern("sshd", "login", 4);
  q.examples = {"login 1", "login 2"};
  q.stats.last_matched = 500;
  store.upsert_pattern(q);
  EXPECT_EQ(store.pattern_count(), 1u);
  const auto found = store.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 7u);
  EXPECT_EQ(found->stats.last_matched, 500);
  ASSERT_EQ(found->examples.size(), 2u);
  EXPECT_EQ(found->examples[1], "login 2");
}

TEST(PatternStore, ExamplesCappedAtThree) {
  PatternStore store;
  core::Pattern p = make_pattern("s", "e");
  p.examples = {"a", "b"};
  store.upsert_pattern(p);
  core::Pattern q = make_pattern("s", "e");
  q.examples = {"c", "d", "e"};
  store.upsert_pattern(q);
  const auto found = store.find(p.id());
  EXPECT_EQ(found->examples.size(), 3u);
}

// Regression: apply_upsert hard-coded the cap at 3, so an Engine configured
// with a different AnalyzerOptions::example_cap silently diverged between
// the in-memory and durable backends. The cap now threads through the
// PatternRepository interface.
TEST(PatternStore, ExampleCapIsConfigurable) {
  PatternStore store;
  core::InMemoryRepository memory;
  store.set_example_cap(5);
  memory.set_example_cap(5);
  for (int i = 0; i < 8; ++i) {
    core::Pattern p = make_pattern("s", "e");
    p.examples = {"example " + std::to_string(i)};
    store.upsert_pattern(p);
    memory.upsert_pattern(p);
  }
  const auto durable = store.find(make_pattern("s", "e").id());
  const auto in_memory = memory.find(make_pattern("s", "e").id());
  ASSERT_TRUE(durable.has_value());
  ASSERT_TRUE(in_memory.has_value());
  EXPECT_EQ(durable->examples.size(), 5u);
  EXPECT_EQ(durable->examples, in_memory->examples)
      << "memory and durable backends diverged on the example cap";
}

TEST(PatternStore, DeletePattern) {
  PatternStore store;
  const core::Pattern a = make_pattern("sshd", "login");
  const core::Pattern b = make_pattern("sshd", "logout");
  store.upsert_pattern(a);
  store.upsert_pattern(b);
  EXPECT_TRUE(store.delete_pattern(a.id()));
  EXPECT_FALSE(store.delete_pattern(a.id())) << "second delete is a no-op";
  EXPECT_EQ(store.pattern_count(), 1u);
  EXPECT_FALSE(store.find(a.id()).has_value());
  ASSERT_EQ(store.load_service("sshd").size(), 1u);
  EXPECT_EQ(store.load_service("sshd")[0].id(), b.id());
}

TEST(PatternStore, DeleteIsReplayedFromWal) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "seqrtg_store_delete_test";
  std::filesystem::remove_all(dir);
  const core::Pattern doomed = make_pattern("s", "doomed");
  const core::Pattern kept = make_pattern("s", "kept");
  {
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    store.upsert_pattern(doomed);
    store.upsert_pattern(kept);
    EXPECT_TRUE(store.delete_pattern(doomed.id()));
    // No checkpoint: the delete lives only in the WAL.
  }
  PatternStore reopened;
  ASSERT_TRUE(reopened.open(dir.string()));
  EXPECT_FALSE(reopened.find(doomed.id()).has_value())
      << "WAL replay resurrected a deleted pattern";
  EXPECT_TRUE(reopened.find(kept.id()).has_value());
  std::filesystem::remove_all(dir);
}

TEST(PatternStore, ServiceQueries) {
  PatternStore store;
  store.upsert_pattern(make_pattern("sshd", "a"));
  store.upsert_pattern(make_pattern("sshd", "b"));
  store.upsert_pattern(make_pattern("cron", "c"));
  EXPECT_EQ(store.load_service("sshd").size(), 2u);
  EXPECT_EQ(store.load_service("cron").size(), 1u);
  EXPECT_TRUE(store.load_service("x").empty());
  const auto services = store.services();
  ASSERT_EQ(services.size(), 2u);
  EXPECT_EQ(services[0], "cron");
}

TEST(PatternStore, RecordMatch) {
  PatternStore store;
  const core::Pattern p = make_pattern("s", "e", 1);
  store.upsert_pattern(p);
  store.record_match(p.id(), 9, 777);
  const auto found = store.find(p.id());
  EXPECT_EQ(found->stats.match_count, 10u);
  EXPECT_EQ(found->stats.last_matched, 777);
}

TEST(PatternStore, ExportFiltersByCountAndComplexity) {
  PatternStore store;
  store.upsert_pattern(make_pattern("s", "frequent", 100));
  store.upsert_pattern(make_pattern("s", "rare", 1));
  // A pattern of only variables has complexity 1.0.
  core::Pattern vars;
  vars.service = "s";
  core::PatternToken v;
  v.is_variable = true;
  v.var_type = core::TokenType::String;
  v.name = "x";
  vars.tokens = {v, v};
  vars.stats.match_count = 50;
  store.upsert_pattern(vars);

  PatternStore::ExportFilter filter;
  filter.min_match_count = 10;
  filter.max_complexity = 0.9;
  const auto exported = store.export_patterns(filter);
  ASSERT_EQ(exported.size(), 1u);
  EXPECT_EQ(exported[0].text(), "frequent %n%");
}

TEST(PatternStore, ExportOrdersByMatchCountDesc) {
  PatternStore store;
  store.upsert_pattern(make_pattern("s", "mid", 10));
  store.upsert_pattern(make_pattern("s", "top", 100));
  store.upsert_pattern(make_pattern("s", "low", 1));
  const auto exported = store.export_patterns({});
  ASSERT_EQ(exported.size(), 3u);
  EXPECT_EQ(exported[0].stats.match_count, 100u);
  EXPECT_EQ(exported[2].stats.match_count, 1u);
}

TEST(PatternStore, ExportFiltersByService) {
  PatternStore store;
  store.upsert_pattern(make_pattern("a", "x"));
  store.upsert_pattern(make_pattern("b", "y"));
  PatternStore::ExportFilter filter;
  filter.service = "a";
  EXPECT_EQ(store.export_patterns(filter).size(), 1u);
}

TEST(PatternStore, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "seqrtg_store_test.db")
          .string();
  core::Pattern p = make_pattern("sshd", "login", 42);
  p.examples = {"login 7"};
  {
    PatternStore store;
    store.upsert_pattern(p);
    ASSERT_TRUE(store.save(path));
  }
  PatternStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.pattern_count(), 1u);
  const auto found = loaded.find(p.id());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->stats.match_count, 42u);
  EXPECT_EQ(found->examples.size(), 1u);
  EXPECT_EQ(found->tokens, p.tokens);
  std::remove(path.c_str());
}

TEST(PatternStore, LoadFailureLeavesUsableEmptyStore) {
  PatternStore store;
  EXPECT_FALSE(store.load("/nonexistent/file.db"));
  // The store must still work after a failed load.
  store.upsert_pattern(make_pattern("s", "e"));
  EXPECT_EQ(store.pattern_count(), 1u);
}

TEST(PatternStore, CorruptRowIsSkippedAndCounted) {
  const fs::path path = temp_path("corrupt_row.db");
  {
    PatternStore store;
    store.upsert_pattern(make_pattern("svc", "good", 5));
    ASSERT_TRUE(store.save(path.string()));
  }
  // A row whose tokens JSON AND display text are both unparseable: readers
  // must skip it (never abort the scan) and count it.
  plant_pattern_row(path, {"Tbadrow", "Tsvc", "T%unterminated",
                           "T{{{not json", "I1", "R0", "I3", "I1", "I1"});
  PatternStore store;
  ASSERT_TRUE(store.load(path.string()));
  fs::remove(path);
  auto& corrupt = corrupt_rows();
  const std::uint64_t before = corrupt.value();
  const auto patterns = store.load_service("svc");
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].stats.match_count, 5u);
  EXPECT_GT(corrupt.value(), before);
  // find() and export_patterns() take the same skip path.
  EXPECT_FALSE(store.find("badrow").has_value());
  EXPECT_EQ(store.export_patterns({}).size(), 1u);
}

TEST(PatternStore, DegradedRowFallsBackToDisplayText) {
  const fs::path path = temp_path("degraded_row.db");
  ASSERT_TRUE(PatternStore().save(path.string()));
  // Valid display text, corrupt JSON: the row survives with String-typed
  // variables instead of being dropped.
  plant_pattern_row(path, {"Tdegraded", "Tsvc", "Tlogin %user%",
                           "Tnot json", "I2", "R0.5", "I4", "I1", "I1"});
  PatternStore store;
  ASSERT_TRUE(store.load(path.string()));
  fs::remove(path);
  const auto found = store.find("degraded");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->text(), "login %user%");
}

TEST(PatternStore, WorksThroughRepositoryInterface) {
  PatternStore store;
  core::PatternRepository& repo = store;
  repo.upsert_pattern(make_pattern("s", "via-interface"));
  EXPECT_EQ(repo.pattern_count(), 1u);
  EXPECT_EQ(repo.services().size(), 1u);
}

TEST(PatternStore, ExportBreaksCountTiesByInsertion) {
  // alpha is inserted first and record_match brings it level with beta:
  // both exports list the tie in insertion order, live and after either
  // kind of reopen.
  const fs::path dir = temp_path("export_ties");
  fs::remove_all(dir);
  const core::Pattern alpha = make_pattern("svc", "alpha", 1);
  const core::Pattern beta = make_pattern("svc", "beta", 2);
  const auto check = [](PatternStore& store, const char* when) {
    PatternStore::ExportFilter by_service;
    by_service.service = "svc";
    for (const auto& filter : {PatternStore::ExportFilter{}, by_service}) {
      std::vector<std::string> order;
      for (const core::Pattern& p : store.export_patterns(filter)) {
        order.push_back(p.tokens[0].text);
      }
      EXPECT_EQ(order, (std::vector<std::string>{"alpha", "beta"}))
          << when << (filter.service.empty() ? "" : ", filtered");
    }
  };
  {
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    store.upsert_pattern(alpha);
    store.upsert_pattern(beta);
    store.record_match(alpha.id(), 1, 200);
    check(store, "live");
  }
  {
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    check(store, "after WAL replay");
    ASSERT_TRUE(store.checkpoint());
  }
  PatternStore store;
  ASSERT_TRUE(store.open(dir.string()));
  EXPECT_GT(store.durability_stats().snapshot_seq, 0u);
  check(store, "after snapshot reopen");
  fs::remove_all(dir);
}

/// The text of a saved one-pattern store (service "svc") with each
/// `from` replaced by its `to`.
std::string edited_snapshot(
    const std::vector<std::pair<std::string, std::string>>& edits) {
  const fs::path path = temp_path("schema_base.db");
  PatternStore store;
  store.upsert_pattern(make_pattern("svc", "e", 1));
  EXPECT_TRUE(store.save(path.string()));
  std::string text = read_file(path);
  fs::remove(path);
  for (const auto& [from, to] : edits) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
  }
  return text;
}

TEST(PatternStore, LoadRejectsWrongTableSchema) {
  // Each damaged file still parses; the store must refuse it anyway,
  // because rows laid out for another schema cannot be read.
  const std::vector<std::vector<std::pair<std::string, std::string>>>
      damages = {
          // The last column dropped from the header and from the row.
          {{"col last_matched INTEGER\n", ""}, {"\tI100\nend\n", "\nend\n"}},
          {{"col match_count INTEGER", "col match_count TEXT"}},
          {{"col ptext TEXT", "col text TEXT"}},
          {{"table patterns 9 0", "table patterns 9 1"}},
          {{"table examples 3 -1", "table examples 3 0"}},
      };
  for (const auto& edits : damages) {
    const std::string what = edits.front().second;
    const fs::path path = temp_path("schema.db");
    write_file(path, edited_snapshot(edits));
    PatternStore store;
    EXPECT_FALSE(store.load(path.string())) << what;
    EXPECT_EQ(store.pattern_count(), 0u) << what;
    EXPECT_TRUE(store.services().empty()) << what;
    // The refused store is empty but fully usable.
    const core::Pattern p = make_pattern("svc", "after", 2);
    store.upsert_pattern(p);
    EXPECT_TRUE(store.find(p.id()).has_value()) << what;
    EXPECT_EQ(store.load_service("svc").size(), 1u) << what;
    fs::remove(path);
  }
}

TEST(PatternStore, OpenFallsBackPastWrongTableSchema) {
  const fs::path dir = temp_path("schema_open");
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Generation 1 is sound; generation 2 has a two-column patterns table
  // whose row still parses.
  write_file(dir / "snapshot-1.db", edited_snapshot({}));
  write_file(dir / "snapshot-2.db",
             "seqrtgdb 1\n"
             "table examples 3 -1\ncol pid TEXT\ncol seq INTEGER\n"
             "col message TEXT\nend\n"
             "table patterns 2 0\ncol pid TEXT\ncol service TEXT\n"
             "row\tTp1\tTsvc\nend\n");
  PatternStore store;
  ASSERT_TRUE(store.open(dir.string()));
  EXPECT_EQ(store.durability_stats().snapshot_seq, 1u);
  EXPECT_EQ(store.services(), (std::vector<std::string>{"svc"}));
  ASSERT_EQ(store.load_service("svc").size(), 1u);
  EXPECT_EQ(store.load_service("svc")[0].text(), "e %n%");
  fs::remove_all(dir);
}

TEST(PatternStore, LoadRejectsMistypedCell) {
  // The row parses, but a cell's type differs from its column's: a NULL
  // service would list as "" while no load_service call could reach it.
  const std::vector<std::pair<std::string, std::string>> damages = {
      {"\tTsvc\t", "\tN\t"},      // service cell NULL
      {"\tI100\n", "\tT100\n"},   // last_matched cell TEXT
  };
  for (const auto& edit : damages) {
    const std::string what = edit.second;
    const fs::path path = temp_path("mistyped.db");
    write_file(path, edited_snapshot({edit}));
    PatternStore store;
    EXPECT_FALSE(store.load(path.string())) << what;
    EXPECT_EQ(store.pattern_count(), 0u) << what;
    EXPECT_TRUE(store.services().empty()) << what;
    fs::remove(path);
  }
}

TEST(PatternStore, OpenFallsBackPastMistypedCell) {
  const fs::path dir = temp_path("mistyped_open");
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_file(dir / "snapshot-1.db", edited_snapshot({}));
  write_file(dir / "snapshot-2.db", edited_snapshot({{"\tTsvc\t", "\tN\t"}}));
  PatternStore store;
  ASSERT_TRUE(store.open(dir.string()));
  EXPECT_EQ(store.durability_stats().snapshot_seq, 1u);
  EXPECT_EQ(store.services(), (std::vector<std::string>{"svc"}));
  EXPECT_EQ(store.load_service("svc").size(), 1u);
  fs::remove_all(dir);
}

/// A damaged snapshot: its fixture label and its bytes.
struct DamagedFile {
  std::string what;
  std::string text;
};

/// The loader tests' base file: three patterns in two services, with
/// examples holding a tab, a quote and no escapes, and a non-ASCII and
/// backslashed pattern text.
std::string loader_base_snapshot() {
  const fs::path path = temp_path("fuzz_base.db");
  PatternStore store;
  core::Pattern a = make_pattern("sshd", "login", 3);
  a.examples = {"login 1", "login\t\"2\""};
  store.upsert_pattern(a);
  store.upsert_pattern(make_pattern("cron", "tick", 1));
  core::Pattern c = make_pattern("cron", "t\xc3\xb6" "ck\\", 7);
  c.examples = {"x"};
  store.upsert_pattern(c);
  EXPECT_TRUE(store.save(path.string()));
  std::string text = read_file(path);
  fs::remove(path);
  return text;
}

/// Overwrites 1-3 bytes of `text` inside [from, to), each with a byte of
/// the snapshot grammar or (one time in four) any byte.
std::string mutate(std::string text, std::size_t from, std::size_t to,
                   util::Rng& rng) {
  static const std::string alphabet = "\t\n \"\\-0123456789NIRTerowlabc{}[]:,";
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = from + rng.next_below(to - from);
    text[at] = rng.next_below(4) == 0
                   ? static_cast<char>(rng.next_below(256))
                   : alphabet[rng.next_below(alphabet.size())];
  }
  return text;
}

/// Every truncation of the base file, then 600 seeded mutations of it.
std::vector<DamagedFile> damaged_base_files(const std::string& base) {
  std::vector<DamagedFile> out;
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    out.push_back({"cut " + std::to_string(cut), base.substr(0, cut)});
  }
  util::Rng rng(0x5AFE);
  for (int i = 0; i < 600; ++i) {
    out.push_back({"mut " + std::to_string(i),
                   mutate(base, 0, base.size(), rng)});
  }
  return out;
}

/// extra.db (tests/store/fixtures) with 600 seeded mutations inside its
/// ignored `meta` table, then hand-picked edits of the loader's rules:
/// the ignored table's arity, key range, duplicate keys and NULL cells,
/// type words, tags, line prefixes, and a later table of the same name
/// replacing an earlier one.
std::vector<DamagedFile> damaged_extra_files() {
  const std::string extra = read_file(kFixtures / "extra.db");
  std::vector<DamagedFile> out;
  const std::size_t from = extra.find("table meta");
  const std::size_t to = extra.find("table patterns");
  EXPECT_LT(from, to);
  util::Rng rng(0xE87A);
  for (int i = 0; i < 600; ++i) {
    out.push_back({"extra " + std::to_string(i), mutate(extra, from, to, rng)});
  }
  const std::string patterns_table =
      "table patterns 9 0\ncol pid TEXT\ncol service TEXT\ncol ptext TEXT\n"
      "col tokens TEXT\ncol token_count INTEGER\ncol complexity REAL\n"
      "col match_count INTEGER\ncol first_seen INTEGER\n"
      "col last_matched INTEGER\n"
      "row\tTp1\tTsvc\tTe %n%\tTnot json\tI2\tR0.5\tI1\tI2\tI3\nend\n";
  // Each edit replaces the first occurrence of `from` (an empty `from`
  // appends).
  using Edits = std::vector<std::pair<std::string, std::string>>;
  const std::vector<std::pair<std::string, Edits>> edits = {
      {"key-past-last", {{"meta 4 0", "meta 4 4"}}},
      {"keyless", {{"meta 4 0", "meta 4 -1"}}},
      {"key-below-keyless", {{"meta 4 0", "meta 4 -7"}}},
      {"key-not-a-number", {{"meta 4 0", "meta 4 x"}}},
      {"patterns-key-not-a-number", {{"patterns 9 0", "patterns 9 x"}}},
      {"patterns-ncols-ignored", {{"patterns 9 0", "patterns 12 0"}}},
      {"duplicate-null-key", {{"meta 4 0", "meta 4 1"}, {"\tI-42\t", "\tN\t"}}},
      {"distinct-int-key", {{"meta 4 0", "meta 4 1"}}},
      {"duplicate-real-key", {{"meta 4 0", "meta 4 2"}, {"R-0.125", "R2.50"}}},
      {"duplicate-text-key",
       {{"\tT\xc3\xa9\t", "\tTkey\\u0009with \\\"tab\\\"\t"}}},
      {"null-text-key", {{"meta 4 0", "meta 4 3"}}},
      {"duplicate-pid",
       {{"Tb2aeee175c19962f228c6e8eb06786e8f89b0d63\tTsvc",
         "Tf4e53e2943afd27fe02b5f66f19c07c852d430b2\tTsvc"}}},
      {"short-row", {{"\tN\tR-0.125", "\tR-0.125"}}},
      {"long-row", {{"\tR2.5\tN\n", "\tR2.5\tN\tI1\n"}}},
      {"empty-cell", {{"\tR2.5\tN\n", "\tR2.5\t\n"}}},
      {"unknown-tag", {{"\tR2.5\tN\n", "\tR2.5\tX\n"}}},
      {"null-with-body", {{"\tR2.5\tN\n", "\tR2.5\tNULL\n"}}},
      {"empty-integer", {{"I-42", "I"}}},
      {"spaced-integer", {{"I-42", "I -42"}}},
      {"integer-trailing-garbage", {{"I-42", "I-42x"}}},
      {"huge-integer", {{"I-42", "I99999999999999999999"}}},
      {"real-nan", {{"R2.5", "Rnan"}}},
      {"real-hex", {{"R2.5", "R0x1p1"}}},
      {"real-garbage", {{"R2.5", "R2.5.1"}}},
      {"text-raw-cr", {{"\tTx\\\\y\\n", "\tTx\ry"}}},
      {"text-bad-escape", {{"\tTx\\\\y\\n", "\tTx\\qy"}}},
      {"text-bare-quote", {{"\tTx\\\\y\\n", "\tTx\"y"}}},
      {"text-short-unicode", {{"\tTx\\\\y\\n", "\tTx\\u12"}}},
      {"text-surrogate", {{"\tTx\\\\y\\n", "\tT\\ud83d\\ude00"}}},
      {"null-type-word", {{"col pid TEXT", "col pid NULL"}}},
      {"unknown-type-word", {{"col ptext TEXT", "col ptext VARCHAR"}}},
      {"meta-unknown-type-word", {{"col r REAL", "col r FLOAT"}}},
      {"integer-as-real", {{"col seq INTEGER", "col seq REAL"}}},
      {"mistyped-seq", {{"\tI1\tTlogin bob", "\tR1\tTlogin bob"}}},
      {"null-example-message", {{"\tI0\tT12:00:00 anything\\rgoes", "\tI0\tN"}}},
      {"orphan-example",
       {{"Tb2aeee175c19962f228c6e8eb06786e8f89b0d63\tI1",
         "Tb2aeee175c19962f228c6e8eb06786e8f89b0d64\tI1"}}},
      {"seq-reordered", {{"\tI0\tTlogin 42", "\tI5\tTlogin 42"}}},
      {"seq-tied", {{"\tI2\tTlogin eve", "\tI0\tTlogin eve"}}},
      {"seq-negative", {{"\tI2\tTtab", "\tI-3\tTtab"}}},
      {"row-prefix", {{"\nrow\tTkey", "\nrowing\tTkey"}}},
      {"row-before-table", {{"seqrtgdb 1\n", "seqrtgdb 1\nrow\tTx\n"}}},
      {"row-between-tables", {{"end\ntable meta", "end\nrow\tTx\ntable meta"}}},
      {"col-before-table", {{"seqrtgdb 1\n", "seqrtgdb 1\ncol x TEXT\n"}}},
      {"col-after-rows", {{"\tN\nrow\tT\xc3\xa9", "\tN\ncol z TEXT\nrow\tT\xc3\xa9"}}},
      {"patterns-col-after-rows", {{"\tI31\n", "\tI31\ncol z TEXT\n"}}},
      {"col-three-words", {{"col k TEXT", "col k TEXT x"}}},
      {"table-five-words", {{"meta 4 0", "meta 4 0 x"}}},
      {"missing-end", {{"\nend\ntable patterns", "\ntable patterns"}}},
      {"missing-examples-end", {{"\nend\ntable meta", "\ntable meta"}}},
      {"end-with-space", {{"\nend\n", "\nend \n"}}},
      {"end-with-cr", {{"\nend\n", "\nend\r\n"}}},
      {"blank-lines", {{"\nend\n", "\n\n\nend\n\n"}}},
      {"bad-header", {{"seqrtgdb 1", "seqrtgdb 2"}}},
      {"empty-table", {{"", "table z 0 -1\nend\n"}}},
      {"empty-keyed-table", {{"", "table z 2 5\ncol a TEXT\ncol b TEXT\nend\n"}}},
      {"zero-column-row", {{"", "table z 0 -1\nrow\nend\n"}}},
      {"zero-column-keyed-row", {{"", "table z 0 0\nrow\nend\n"}}},
      {"unterminated-table", {{"", "table z 1 -1\ncol a TEXT\n"}}},
      {"later-meta-replaces", {{"", "table meta 1 0\ncol x TEXT\nrow\tTa\nend\n"}}},
      {"later-patterns-replaces", {{"", patterns_table}}},
      {"later-patterns-fixes-mistyped",
       {{"col match_count INTEGER", "col match_count TEXT"}, {"", patterns_table}}},
      {"later-examples-empties",
       {{"", "table examples 3 -1\ncol pid TEXT\ncol seq INTEGER\n"
             "col message TEXT\nend\n"}}},
      {"mistyped-pid-replaced",
       {{"Tb2aeee175c19962f228c6e8eb06786e8f89b0d63\tTsvc", "N\tTsvc"},
        {"", patterns_table}}},
      {"mistyped-pids-duplicate",
       {{"Tb2aeee175c19962f228c6e8eb06786e8f89b0d63\tTsvc", "N\tTsvc"},
        {"T7f3e2f123c6d9cc72cff071cdf2640a8616e7fcf\tTsvc", "N\tTsvc"},
        {"", patterns_table}}},
      {"mistyped-row-replaced",
       {{"\tI6\tI0\tI5", "\tT6\tI0\tI5"}, {"", patterns_table}}},
      {"duplicate-pid-after-mistyped-row",
       {{"\tI6\tI0\tI5", "\tT6\tI0\tI5"},
        {"Tf4e53e2943afd27fe02b5f66f19c07c852d430b2\tTna",
         "Tb2aeee175c19962f228c6e8eb06786e8f89b0d63\tTna"},
        {"", patterns_table}}},
      {"later-patterns-bad-schema",
       {{"", "table patterns 2 0\ncol pid TEXT\ncol service TEXT\nend\n"}}},
      {"unknown-line", {{"", "tables\n"}}},
  };
  for (const auto& [name, list] : edits) {
    std::string text = extra;
    for (const auto& [old_text, new_text] : list) {
      if (old_text.empty()) {
        text += new_text;
        continue;
      }
      const std::size_t at = text.find(old_text);
      EXPECT_NE(at, std::string::npos) << name << ": " << old_text;
      if (at != std::string::npos) text.replace(at, old_text.size(), new_text);
    }
    out.push_back({"edit " + name, text});
  }
  return out;
}

/// After load/open accepted a damaged file, every row the store counts is
/// read: it decodes, or it is skipped and counted corrupt.
void expect_every_row_read(PatternStore& store, const std::string& what) {
  const std::uint64_t before = corrupt_rows().value();
  PatternStore::ExportFilter all;
  all.max_complexity = std::numeric_limits<double>::infinity();
  const std::size_t decoded = store.export_patterns(all).size();
  EXPECT_EQ(decoded + (corrupt_rows().value() - before), store.pattern_count())
      << what;
  for (const std::string& service : store.services()) {
    for (const core::Pattern& p : store.load_service(service)) {
      EXPECT_EQ(p.service, service) << what;
    }
  }
}

TEST(PatternStore, DamagedSnapshotsNeverCrashTheLoader) {
  const fs::path path = temp_path("fuzz_damaged.db");
  const std::vector<DamagedFile> damaged =
      damaged_base_files(loader_base_snapshot());
  std::size_t accepted = 0;
  for (const auto& [what, text] : damaged) {
    write_file(path, text);
    PatternStore store;
    if (!store.load(path.string())) {
      EXPECT_EQ(store.pattern_count(), 0u) << what;
      continue;
    }
    ++accepted;
    expect_every_row_read(store, what);
  }
  fs::remove(path);
  // Both verdicts must occur, or the damage is not reaching the parser.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, damaged.size());

  // open() takes the same loader: a damaged only generation leaves an
  // empty durable store.
  const fs::path dir = temp_path("fuzz_open");
  for (std::size_t i = 0; i < damaged.size(); i += 9) {
    const auto& [what, text] = damaged[i];
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_file(dir / "snapshot-3.db", text);
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string())) << what;
    if (store.durability_stats().snapshot_seq == 0) {
      EXPECT_EQ(store.pattern_count(), 0u) << what;
    } else {
      expect_every_row_read(store, what);
    }
  }
  fs::remove_all(dir);
}

/// The first 16 hex digits of SHA-1 over every field of every pattern as
/// load_service returns it, plus the pattern count and the export order.
std::string store_digest(PatternStore& store) {
  std::ostringstream out;
  out << store.pattern_count() << '\n';
  for (const std::string& service : store.services()) {
    out << "service " << service << '\n';
    for (const core::Pattern& p : store.load_service(service)) {
      out << p.service << '\t' << p.text() << '\t'
          << pattern_tokens_to_json(p.tokens) << '\t' << p.stats.match_count
          << '\t' << p.stats.first_seen << '\t' << p.stats.last_matched;
      for (const std::string& e : p.examples) out << '\t' << e;
      out << '\n';
    }
  }
  PatternStore::ExportFilter all;
  all.max_complexity = std::numeric_limits<double>::infinity();
  for (const core::Pattern& p : store.export_patterns(all)) {
    out << "export " << p.id() << ' ' << p.stats.match_count << '\n';
  }
  return util::sha1_hex(out.str()).substr(0, 16);
}

/// One line per damaged file: its label, load()'s verdict and the digest
/// of what the store then reads; every 9th base file also goes through
/// open() as a store's only snapshot generation.
std::vector<std::string> loader_verdicts() {
  const std::vector<DamagedFile> base =
      damaged_base_files(loader_base_snapshot());
  std::vector<DamagedFile> files = base;
  for (DamagedFile& f : damaged_extra_files()) files.push_back(std::move(f));
  std::vector<std::string> lines;
  const fs::path path = temp_path("verdict.db");
  for (const auto& [what, text] : files) {
    write_file(path, text);
    PatternStore store;
    const bool ok = store.load(path.string());
    lines.push_back(what + (ok ? " accept " : " reject ") +
                    store_digest(store));
  }
  fs::remove(path);
  const fs::path dir = temp_path("verdict_open");
  for (std::size_t i = 0; i < base.size(); i += 9) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    write_file(dir / "snapshot-3.db", base[i].text);
    PatternStore store;
    const bool ok = store.open(dir.string());
    lines.push_back("open " + base[i].what + (ok ? " seq=" : " failed seq=") +
                    std::to_string(store.durability_stats().snapshot_seq) +
                    ' ' + store_digest(store));
  }
  fs::remove_all(dir);
  return lines;
}

TEST(PatternStore, LoaderVerdictsMatchFixture) {
  // tests/store/fixtures/loader_verdicts.txt holds the verdicts of the
  // loader this store had when it kept generic tables. On a mismatch (or
  // with no fixture) the lines this loader produced are written next to
  // the temp files for inspection.
  const std::vector<std::string> actual = loader_verdicts();
  std::vector<std::string> expected;
  {
    std::istringstream in(read_file(kFixtures / "loader_verdicts.txt"));
    for (std::string line; std::getline(in, line);) expected.push_back(line);
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    const std::string a = i < actual.size() ? actual[i] : "(none)";
    const std::string e = i < expected.size() ? expected[i] : "(none)";
    if (a == e) continue;
    if (++mismatches <= 20) ADD_FAILURE() << "line " << i + 1 << ": got " << a
                                          << ", fixture " << e;
  }
  if (mismatches > 0) {
    const fs::path out = temp_path("loader_verdicts.txt");
    std::string text;
    for (const std::string& line : actual) text += line + '\n';
    write_file(out, text);
    ADD_FAILURE() << mismatches << " mismatched lines; this loader's lines: "
                  << out.string();
  }
}

// --- match_patterns: the engine's per-flush read -------------------------

std::vector<core::LogRecord> fleet_stream(std::size_t services,
                                          std::size_t records,
                                          std::uint64_t seed) {
  loggen::FleetOptions opts;
  opts.services = services;
  opts.seed = seed;
  return loggen::FleetGenerator(opts).take(records);
}

/// Mines a 16-service fleet stream into `store` batch by batch, the way a
/// serve lane flushes it.
void mine_fleet(PatternStore& store) {
  const std::vector<core::LogRecord> stream = fleet_stream(16, 4000, 23);
  core::Engine engine(&store, core::EngineOptions{});
  for (std::size_t at = 0; at < stream.size(); at += 500) {
    engine.analyze_by_service(
        {stream.begin() + static_cast<std::ptrdiff_t>(at),
         stream.begin() + static_cast<std::ptrdiff_t>(
                              std::min(at + 500, stream.size()))});
  }
}

/// match_patterns must give the matcher exactly what load_service gives
/// it: the same services and tokens in the same (precedence) order, and
/// nothing the matcher does not read.
void expect_match_read(const std::vector<core::Pattern>& matched,
                       const std::vector<core::Pattern>& loaded,
                       const std::string& what) {
  ASSERT_EQ(matched.size(), loaded.size()) << what;
  for (std::size_t i = 0; i < matched.size(); ++i) {
    EXPECT_EQ(matched[i].service, loaded[i].service) << what << " #" << i;
    EXPECT_EQ(matched[i].tokens, loaded[i].tokens) << what << " #" << i;
    EXPECT_TRUE(matched[i].examples.empty()) << what << " #" << i;
  }
}

TEST(PatternStoreMatchRead, ResidentPartitionsMatchLoadService) {
  PatternStore store;
  mine_fleet(store);
  const std::vector<std::string> services = store.services();
  ASSERT_EQ(services.size(), 16u);
  std::size_t rows = 0;
  for (const std::string& service : services) {
    const std::vector<core::Pattern> loaded = store.load_service(service);
    rows += loaded.size();
    expect_match_read(store.match_patterns(service), loaded, service);
  }
  EXPECT_EQ(rows, store.pattern_count());
}

TEST(PatternStoreMatchRead, SpilledPartitionReloadsLikeLoadService) {
  const fs::path dir = temp_path("match_read_spill");
  fs::remove_all(dir);
  PatternStore store;
  ASSERT_TRUE(store.open(dir.string()));
  mine_fleet(store);
  core::MemoryAccountant accountant;
  core::GovernorPolicy policy;
  policy.ceiling_bytes = 1 << 30;  // spills below are explicit
  core::Governor governor(policy, &accountant);
  store.attach_governor(&governor);
  const std::string wal = (dir / "wal.log").string();

  for (const std::string& service : store.services()) {
    ASSERT_TRUE(store.spill_partition(service)) << service;
    const std::size_t groups = Wal::replay(wal).records.size();
    const std::uint64_t reloads = governor.stats().reloads;

    const std::vector<core::Pattern> matched = store.match_patterns(service);
    EXPECT_FALSE(store.is_spilled(service)) << service;
    const Wal::ReplayResult log = Wal::replay(wal);
    ASSERT_EQ(log.records.size(), groups + 1) << service;
    ASSERT_FALSE(log.records.back().payload.empty());
    EXPECT_EQ(log.records.back().payload[0], 5) << "one kOpReload group";
    EXPECT_EQ(governor.stats().reloads, reloads + 1) << service;

    // load_service reads the partition resident: no further group.
    expect_match_read(matched, store.load_service(service), service);
    EXPECT_EQ(Wal::replay(wal).records.size(), groups + 1) << service;
  }
  EXPECT_FALSE(
      accountant.audit(store.recount_partition_bytes()).has_value());
  store.attach_governor(nullptr);
  fs::remove_all(dir);
}

TEST(PatternStoreMatchRead, DamagedRowsReadLikeLoadService) {
  const fs::path path = temp_path("match_read_damaged.db");
  std::vector<std::string> services;
  {
    PatternStore store;
    mine_fleet(store);
    services = store.services();
    ASSERT_TRUE(store.save(path.string()));
  }
  // A degraded row (broken JSON, parseable display text) and an
  // unrecoverable one, in two different mined services. Their pids sort
  // among the SHA-1 pids, so the order check covers them too.
  plant_pattern_row(path, {"Td0degraded", 'T' + util::json_escape(services[0]),
                           "Tlogin %user% from %ip%", "Tnot json", "I3",
                           "R0.6", "I4", "I1", "I1"});
  plant_pattern_row(path, {"Tb0corrupt", 'T' + util::json_escape(services[1]),
                           "T%unterminated", "T{{{not json", "I1", "R0", "I3",
                           "I1", "I1"});
  PatternStore store;
  ASSERT_TRUE(store.load(path.string()));
  fs::remove(path);

  auto& corrupt = corrupt_rows();
  for (const std::string& service : services) {
    const bool damaged = service == services[1];
    std::uint64_t before = corrupt.value();
    const std::vector<core::Pattern> matched = store.match_patterns(service);
    EXPECT_EQ(corrupt.value() - before, damaged ? 1u : 0u) << service;
    before = corrupt.value();
    const std::vector<core::Pattern> loaded = store.load_service(service);
    EXPECT_EQ(corrupt.value() - before, damaged ? 1u : 0u) << service;
    expect_match_read(matched, loaded, service);
  }
  const std::vector<core::Pattern> degraded =
      store.match_patterns(services[0]);
  EXPECT_EQ(std::count_if(degraded.begin(), degraded.end(),
                          [](const core::Pattern& p) {
                            return p.text() == "login %user% from %ip%";
                          }),
            1);
}

TEST(PatternStoreMatchRead, UnknownServiceReadsNothing) {
  PatternStore store;
  mine_fleet(store);
  EXPECT_TRUE(store.match_patterns("no-such-service").empty());
  EXPECT_TRUE(store.match_patterns("").empty());
}

TEST(PatternStoreMatchRead, EnginesEvolutionAndSpillsShareOneStore) {
  // Two serve-style lanes flush over one durable store while a third
  // thread runs evolution passes the way serve does (every partition
  // pinned) and a small ceiling keeps spills and reloads going. Under TSan
  // (scripts/sanitize.sh) this is the race check of the matcher's read.
  const fs::path dir = temp_path("match_read_race");
  fs::remove_all(dir);
  PatternStore store;
  ASSERT_TRUE(store.open(dir.string()));
  core::MemoryAccountant accountant;
  core::GovernorPolicy policy;
  policy.ceiling_bytes = 16 * 1024;
  core::Governor governor(policy, &accountant);
  store.attach_governor(&governor);
  core::SketchRegistry sketches;
  core::EngineOptions opts;
  opts.governor = &governor;
  opts.sketches = &sketches;

  // Lanes own disjoint services, as serve's service-hash routing does.
  const std::vector<core::LogRecord> stream = fleet_stream(12, 4800, 31);
  std::vector<core::LogRecord> lane_records[2];
  for (const core::LogRecord& r : stream) {
    lane_records[std::hash<std::string>{}(r.service) % 2].push_back(r);
  }
  std::atomic<int> lanes_running{2};
  core::BatchReport reports[2];
  const auto lane = [&](int i) {
    core::Engine engine(&store, opts);
    const std::vector<core::LogRecord>& records = lane_records[i];
    for (std::size_t at = 0; at < records.size(); at += 200) {
      reports[i] += engine.analyze_by_service(
          {records.begin() + static_cast<std::ptrdiff_t>(at),
           records.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(at + 200, records.size()))});
    }
    lanes_running.fetch_sub(1);
  };
  std::size_t passes = 0;
  const auto evolution = [&] {
    do {
      const std::vector<std::string> pinned = store.services();
      for (const std::string& s : pinned) governor.pin(s);
      core::evolve_repository(store, &sketches, core::EvolutionOptions{});
      for (const std::string& s : pinned) governor.unpin(s);
      governor.enforce();
      ++passes;
    } while (lanes_running.load() > 0);
  };
  std::thread a(lane, 0);
  std::thread b(lane, 1);
  std::thread c(evolution);
  a.join();
  b.join();
  c.join();

  EXPECT_GT(passes, 0u);
  EXPECT_EQ(reports[0].records + reports[1].records, stream.size());
  EXPECT_EQ(reports[0].matched_existing + reports[0].analyzed +
                reports[1].matched_existing + reports[1].analyzed,
            stream.size());
  EXPECT_GT(governor.stats().spills, 0u);
  EXPECT_GT(governor.stats().reloads, 0u);
  EXPECT_FALSE(
      accountant.audit(store.recount_partition_bytes()).has_value());
  // The match read goes first: a partition left spilled must come back
  // through it, not through load_service.
  for (const std::string& service : store.services()) {
    const std::vector<core::Pattern> matched = store.match_patterns(service);
    expect_match_read(matched, store.load_service(service), service);
  }
  store.attach_governor(nullptr);
  fs::remove_all(dir);
}

// --- typed rows ------------------------------------------------------------

core::Pattern literal_pattern(std::string service, std::string text,
                              std::uint64_t count) {
  core::Pattern p;
  p.service = std::move(service);
  core::PatternToken t;
  t.text = text;
  p.tokens = {t};
  p.stats.match_count = count;
  p.examples = {std::move(text)};
  return p;
}

/// The snapshot checkpoint() last wrote in `store`'s directory.
std::string checkpoint_bytes(PatternStore& store) {
  EXPECT_TRUE(store.checkpoint());
  return read_file(fs::path(store.directory()) /
                   ("snapshot-" +
                    std::to_string(store.durability_stats().snapshot_seq) +
                    ".db"));
}

TEST(PatternStore, SpillReloadChurnKeepsOnlyLiveRows) {
  // Two stores get the same mined fleet, then the same last service,
  // upserted in pid order (the order a reload inserts it in). One spills
  // and reloads that service 50 times: its reads, its export and its
  // checkpoint bytes must stay those of the store that never spilled, and
  // it must hold exactly its live rows.
  std::vector<core::Pattern> last;
  for (const char* word : {"alpha", "beta", "gamma", "delta", "epsilon"}) {
    last.push_back(make_pattern("zz-last", word, 2));
    last.back().examples = {std::string(word) + " 1", std::string(word) + " 2"};
  }
  std::sort(last.begin(), last.end(),
            [](const core::Pattern& a, const core::Pattern& b) {
              return a.id() < b.id();
            });
  const auto build = [&](PatternStore& store, const fs::path& dir) {
    fs::remove_all(dir);
    ASSERT_TRUE(store.open(dir.string()));
    mine_fleet(store);
    for (const core::Pattern& p : last) store.upsert_pattern(p);
  };
  const fs::path still_dir = temp_path("churn_still");
  const fs::path churned_dir = temp_path("churn");
  PatternStore still;
  PatternStore churned;
  build(still, still_dir);
  build(churned, churned_dir);
  for (int cycle = 0; cycle < 50; ++cycle) {
    ASSERT_TRUE(churned.spill_partition("zz-last")) << cycle;
    ASSERT_EQ(churned.load_service("zz-last").size(), last.size()) << cycle;
  }

  EXPECT_EQ(store_digest(churned), store_digest(still));
  EXPECT_EQ(churned.services(), still.services());
  PatternStore::ExportFilter last_only;
  last_only.service = "zz-last";
  for (const auto& filter : {PatternStore::ExportFilter{}, last_only}) {
    const std::vector<core::Pattern> a = churned.export_patterns(filter);
    const std::vector<core::Pattern> b = still.export_patterns(filter);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id(), b[i].id()) << i;
      EXPECT_EQ(a[i].examples, b[i].examples) << i;
    }
  }
  EXPECT_EQ(checkpoint_bytes(churned), checkpoint_bytes(still));
  EXPECT_EQ(PatternStoreTestAccess::rows(churned), churned.pattern_count());
  EXPECT_EQ(PatternStoreTestAccess::indexed_rows(churned),
            churned.pattern_count());
  fs::remove_all(still_dir);
  fs::remove_all(churned_dir);
}

TEST(PatternStore, SharedPidMergesIntoTheFirstRow) {
  // Pattern::id() hashes text and service with no separator, so text
  // "ab" in service "c" and text "a" in service "bc" share a pid. The
  // second upsert merges into the first row and is charged to its service.
  const core::Pattern first = literal_pattern("c", "ab", 2);
  const core::Pattern second = literal_pattern("bc", "a", 3);
  ASSERT_EQ(first.id(), second.id());
  const fs::path dir = temp_path("shared_pid");
  fs::remove_all(dir);
  std::string digest;
  {
    PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    core::MemoryAccountant accountant;
    core::GovernorPolicy policy;
    policy.ceiling_bytes = std::size_t{1} << 30;
    core::Governor governor(policy, &accountant);
    store.attach_governor(&governor);
    store.upsert_pattern(first);
    store.upsert_pattern(second);
    EXPECT_EQ(store.pattern_count(), 1u);
    EXPECT_EQ(store.services(), (std::vector<std::string>{"c"}));
    const auto found = store.find(first.id());
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->service, "c");
    EXPECT_EQ(found->text(), "ab");
    EXPECT_EQ(found->stats.match_count, 5u);
    EXPECT_EQ(found->examples, (std::vector<std::string>{"ab", "a"}));
    EXPECT_FALSE(
        accountant.audit(store.recount_partition_bytes()).has_value());
    ASSERT_TRUE(store.checkpoint());
    digest = store_digest(store);
    store.attach_governor(nullptr);
  }
  PatternStore reopened;
  ASSERT_TRUE(reopened.open(dir.string()));
  EXPECT_GT(reopened.durability_stats().snapshot_seq, 0u);
  EXPECT_EQ(reopened.pattern_count(), 1u);
  EXPECT_EQ(store_digest(reopened), digest);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace seqrtg::store
