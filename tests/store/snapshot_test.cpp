#include "store/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace seqrtg::store {
namespace {

class Snapshot : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    schema.columns = {{"id", ValueType::Text},
                      {"n", ValueType::Integer},
                      {"score", ValueType::Real}};
    schema.primary_key = 0;
    t_ = Table(schema);
  }

  void insert(const std::string& id, std::int64_t n, double score) {
    ASSERT_TRUE(t_.insert({Value(id), Value(n), Value(score)}));
  }

  static std::string temp_path(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }

  Table t_;
};

TEST_F(Snapshot, SaveLoadRoundTrip) {
  insert("a", 1, 0.5);
  insert("b", 2, 0.25);
  Schema other_schema;
  other_schema.columns = {{"k", ValueType::Text}, {"v", ValueType::Text}};
  Table other(other_schema);
  ASSERT_TRUE(other.insert({Value("key"), Value("va\tl\nue")}));

  const std::string path = temp_path("seqrtg_snapshot_test.db");
  ASSERT_TRUE(save_snapshot(path, {{"t", &t_}, {"other", &other}}));

  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  const Table& t = loaded->at("t");
  EXPECT_EQ(t.schema(), t_.schema());
  const auto b = t.find_pk(Value("b"));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(t.row(*b)[1].as_int(), 2);
  EXPECT_DOUBLE_EQ(t.row(*b)[2].as_real(), 0.25);
  const auto rows = loaded->at("other").snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ((*rows[0])[1].as_text(), "va\tl\nue");
  std::remove(path.c_str());
}

TEST_F(Snapshot, SaveCompactsTombstones) {
  insert("a", 1, 0.5);
  insert("b", 2, 0.5);
  t_.erase(*t_.find_pk(Value("a")));
  const std::string path = temp_path("seqrtg_snapshot_compact.db");
  ASSERT_TRUE(save_snapshot(path, {{"t", &t_}}));
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->at("t").size(), 1u);
  EXPECT_FALSE(loaded->at("t").find_pk(Value("a")).has_value());
  std::remove(path.c_str());
}

TEST_F(Snapshot, LoadRejectsGarbageFile) {
  const std::string path = temp_path("seqrtg_snapshot_garbage.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("this is not a database\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_snapshot(path).has_value());
  std::remove(path.c_str());
}

TEST_F(Snapshot, LoadMissingFileFails) {
  EXPECT_FALSE(load_snapshot("/nonexistent/path/db.file").has_value());
}

TEST_F(Snapshot, LoadRejectsKeyPastLastColumn) {
  const std::string path = temp_path("seqrtg_snapshot_bad_key.db");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // Key column 2 of a two-column table: no row can be indexed by it.
    std::fputs("seqrtgdb 1\ntable t 2 2\ncol a TEXT\ncol b TEXT\n"
               "row\tTx\tTy\nend\n",
               f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_snapshot(path).has_value());
  std::remove(path.c_str());
}

TEST_F(Snapshot, EmptyTableSurvivesRoundTrip) {
  const std::string path = temp_path("seqrtg_snapshot_empty.db");
  ASSERT_TRUE(save_snapshot(path, {{"t", &t_}}));
  const auto loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->count("t"), 1u);
  EXPECT_EQ(loaded->at("t").size(), 0u);
  EXPECT_EQ(loaded->at("t").schema(), t_.schema());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seqrtg::store
