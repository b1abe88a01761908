#include "store/snapshot.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace seqrtg::store {
namespace {

const std::string kEmptyStoreTables =
    "table examples 3 -1\ncol pid TEXT\ncol seq INTEGER\ncol message TEXT\n"
    "end\n"
    "table patterns 9 0\ncol pid TEXT\ncol service TEXT\ncol ptext TEXT\n"
    "col tokens TEXT\ncol token_count INTEGER\ncol complexity REAL\n"
    "col match_count INTEGER\ncol first_seen INTEGER\n"
    "col last_matched INTEGER\nend\n";

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "_" + std::to_string(::getpid())))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Two patterns whose stamps interleave their examples.
PatternRows sample_rows() {
  PatternRows rows;
  PatternRow& a = rows["pid-a"];
  a.service = "svc\tone";
  a.ptext = "quote\"back\\slash %n%";
  a.tokens = R"([{"s":false,"v":false,"x":"quote"}])";
  a.token_count = 2;
  a.complexity = 1.0 / 3.0;
  a.match_count = 42;
  a.first_seen = -7;
  a.last_matched = 1700000000;
  a.stamp = 5;
  a.examples = {{"va\tl\nue", 9}, {"ctrl\x01\x7f", 6}};
  PatternRow& b = rows["pid-b"];
  b.service = "na\xc3\xafve";
  b.ptext = "tick";
  b.tokens = "not json";
  b.token_count = 1;
  b.complexity = 0.0;
  b.stamp = 2;
  b.examples = {{"x", 7}};
  return rows;
}

/// Pattern pids, then pid:message of each example, each in stamp order.
std::vector<std::string> stamp_order(const PatternRows& rows) {
  std::vector<std::pair<std::uint64_t, std::string>> patterns;
  std::vector<std::pair<std::uint64_t, std::string>> examples;
  for (const auto& [pid, row] : rows) {
    patterns.emplace_back(row.stamp, pid);
    for (const ExampleRow& e : row.examples) {
      examples.emplace_back(e.stamp, pid + ":" + e.message);
    }
  }
  std::sort(patterns.begin(), patterns.end());
  std::sort(examples.begin(), examples.end());
  std::vector<std::string> out;
  for (const auto& [stamp, name] : patterns) out.push_back(name);
  for (const auto& [stamp, name] : examples) out.push_back(name);
  return out;
}

TEST(Snapshot, SaveLoadRoundTrip) {
  const PatternRows rows = sample_rows();
  const std::string path = temp_path("seqrtg_snapshot_test.db");
  ASSERT_TRUE(save_snapshot(path, rows));
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), rows.size());
  for (const auto& [pid, want] : rows) {
    const PatternRow& got = loaded->at(pid);
    EXPECT_EQ(got.service, want.service) << pid;
    EXPECT_EQ(got.ptext, want.ptext) << pid;
    EXPECT_EQ(got.tokens, want.tokens) << pid;
    EXPECT_EQ(got.token_count, want.token_count) << pid;
    EXPECT_EQ(got.complexity, want.complexity) << pid;
    EXPECT_EQ(got.match_count, want.match_count) << pid;
    EXPECT_EQ(got.first_seen, want.first_seen) << pid;
    EXPECT_EQ(got.last_matched, want.last_matched) << pid;
    ASSERT_EQ(got.examples.size(), want.examples.size()) << pid;
    for (std::size_t i = 0; i < got.examples.size(); ++i) {
      EXPECT_EQ(got.examples[i].message, want.examples[i].message) << pid;
    }
  }
  // Stamps are renumbered in file order, which is stamp order.
  EXPECT_EQ(stamp_order(*loaded), stamp_order(rows));
  // A second save writes the same bytes.
  const std::string again = temp_path("seqrtg_snapshot_test_again.db");
  ASSERT_TRUE(save_snapshot(again, *loaded));
  EXPECT_EQ(read_file(again), read_file(path));
  std::remove(path.c_str());
  std::remove(again.c_str());
}

TEST(Snapshot, SaveCompactsTombstones) {
  // An erased row leaves nothing behind: the file holds the live rows
  // only, with seq renumbered from 0 in each pattern.
  PatternRows rows = sample_rows();
  rows.erase("pid-a");
  const std::string path = temp_path("seqrtg_snapshot_compact.db");
  ASSERT_TRUE(save_snapshot(path, rows));
  const std::string text = read_file(path);
  EXPECT_EQ(text.find("pid-a"), std::string::npos);
  EXPECT_NE(text.find("row\tTpid-b\tI0\tTx\n"), std::string::npos);
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->count("pid-a"), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, LoadRejectsGarbageFile) {
  const std::string path = temp_path("seqrtg_snapshot_garbage.db");
  write_file(path, "this is not a database\n");
  EXPECT_FALSE(load_snapshot(path).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, LoadMissingFileFails) {
  EXPECT_FALSE(load_snapshot("/nonexistent/path/db.file").has_value());
}

TEST(Snapshot, LoadRejectsKeyPastLastColumn) {
  // A third table is parsed and then ignored, but its key column 2 of
  // two columns cannot index any row.
  const std::string path = temp_path("seqrtg_snapshot_bad_key.db");
  const auto with_key = [](const char* key) {
    return "seqrtgdb 1\n" + kEmptyStoreTables + "table t 2 " + key +
           "\ncol a TEXT\ncol b TEXT\nrow\tTx\tTy\nend\n";
  };
  write_file(path, with_key("1"));
  EXPECT_TRUE(load_snapshot(path).has_value());
  write_file(path, with_key("2"));
  EXPECT_FALSE(load_snapshot(path).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyTableSurvivesRoundTrip) {
  const std::string path = temp_path("seqrtg_snapshot_empty.db");
  ASSERT_TRUE(save_snapshot(path, {}));
  EXPECT_EQ(read_file(path), "seqrtgdb 1\n" + kEmptyStoreTables);
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seqrtg::store
