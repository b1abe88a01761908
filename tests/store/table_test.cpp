#include "store/table.hpp"

#include <gtest/gtest.h>

namespace seqrtg::store {
namespace {

Schema people_schema() {
  Schema s;
  s.columns = {{"id", ValueType::Text},
               {"age", ValueType::Integer},
               {"city", ValueType::Text}};
  s.primary_key = 0;
  return s;
}

TEST(Schema, ColumnIndex) {
  const Schema s = people_schema();
  EXPECT_EQ(s.column_index("id"), 0);
  EXPECT_EQ(s.column_index("city"), 2);
  EXPECT_EQ(s.column_index("nope"), -1);
}

TEST(Table, InsertAndLookup) {
  Table t(people_schema());
  EXPECT_TRUE(t.insert({Value("a"), Value(30), Value("lyon")}));
  EXPECT_TRUE(t.insert({Value("b"), Value(25), Value("paris")}));
  EXPECT_EQ(t.size(), 2u);
  const auto id = t.find_pk(Value("b"));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(t.row(*id)[1].as_int(), 25);
  EXPECT_FALSE(t.find_pk(Value("zz")).has_value());
}

TEST(Table, PrimaryKeyViolationRejected) {
  Table t(people_schema());
  EXPECT_TRUE(t.insert({Value("a"), Value(1), Value("x")}));
  EXPECT_FALSE(t.insert({Value("a"), Value(2), Value("y")}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(Table, ArityMismatchRejected) {
  Table t(people_schema());
  EXPECT_FALSE(t.insert({Value("a"), Value(1)}));
}

TEST(Table, SecondaryIndexMatchesScan) {
  Table t(people_schema());
  t.insert({Value("a"), Value(30), Value("lyon")});
  t.insert({Value("b"), Value(40), Value("paris")});
  t.insert({Value("c"), Value(30), Value("nice")});
  // find_eq searches indexed columns only.
  EXPECT_TRUE(t.find_eq("age", Value(30)).empty());
  ASSERT_TRUE(t.add_index("age"));
  const auto scan = [&](std::int64_t age) {
    std::vector<std::string> ids;
    for (const Row* row : t.snapshot()) {
      if ((*row)[1].as_int() == age) ids.push_back((*row)[0].as_text());
    }
    return ids;
  };
  const auto indexed = [&](std::int64_t age) {
    std::vector<std::string> ids;
    for (RowId id : t.find_eq("age", Value(age))) {
      ids.push_back(t.row(id)[0].as_text());
    }
    return ids;
  };
  EXPECT_EQ(indexed(30), scan(30));
  // Index stays correct across later inserts.
  t.insert({Value("d"), Value(30), Value("nice")});
  EXPECT_EQ(indexed(30), scan(30));
  EXPECT_EQ(indexed(30).size(), 3u);
  EXPECT_TRUE(indexed(99).empty());
  EXPECT_TRUE(t.find_eq("bogus", Value(1)).empty());
}

TEST(Table, AddIndexUnknownColumn) {
  Table t(people_schema());
  EXPECT_FALSE(t.add_index("bogus"));
}

TEST(Table, UpdateMaintainsIndexes) {
  Table t(people_schema());
  t.add_index("city");
  t.insert({Value("a"), Value(30), Value("lyon")});
  const RowId id = *t.find_pk(Value("a"));
  EXPECT_TRUE(t.update_row(id, {Value("a"), Value(31), Value("paris")}));
  EXPECT_TRUE(t.find_eq("city", Value("lyon")).empty());
  EXPECT_EQ(t.find_eq("city", Value("paris")).size(), 1u);
}

TEST(Table, IndexesKeepInsertionOrderAcrossUpdates) {
  Table t(people_schema());
  t.add_index("city");
  t.insert({Value("a"), Value(1), Value("x")});
  t.insert({Value("b"), Value(2), Value("x")});
  t.insert({Value("c"), Value(3), Value("y")});
  const RowId a = *t.find_pk(Value("a"));
  const RowId c = *t.find_pk(Value("c"));
  // An update that leaves the indexed value alone keeps the row's place.
  ASSERT_TRUE(t.update_row(a, {Value("a"), Value(10), Value("x")}));
  EXPECT_EQ(t.find_eq("city", Value("x")),
            (std::vector<RowId>{a, *t.find_pk(Value("b"))}));
  // A row that moves into a key lands at its insertion position.
  ASSERT_TRUE(t.update_row(c, {Value("c"), Value(3), Value("x")}));
  ASSERT_TRUE(t.update_row(a, {Value("a"), Value(10), Value("y")}));
  ASSERT_TRUE(t.update_row(a, {Value("a"), Value(10), Value("x")}));
  EXPECT_EQ(t.find_eq("city", Value("x")),
            (std::vector<RowId>{a, *t.find_pk(Value("b")), c}));
}

TEST(Table, UpdateRejectsPkCollision) {
  Table t(people_schema());
  t.insert({Value("a"), Value(1), Value("x")});
  t.insert({Value("b"), Value(2), Value("y")});
  const RowId id = *t.find_pk(Value("b"));
  EXPECT_FALSE(t.update_row(id, {Value("a"), Value(2), Value("y")}));
  // Changing the pk to a fresh value is allowed.
  EXPECT_TRUE(t.update_row(id, {Value("c"), Value(2), Value("y")}));
  EXPECT_TRUE(t.find_pk(Value("c")).has_value());
  EXPECT_FALSE(t.find_pk(Value("b")).has_value());
}

TEST(Table, EraseTombstonesRow) {
  Table t(people_schema());
  t.add_index("city");
  t.insert({Value("a"), Value(1), Value("x")});
  t.insert({Value("b"), Value(2), Value("x")});
  const RowId id = *t.find_pk(Value("a"));
  t.erase(id);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.find_pk(Value("a")).has_value());
  EXPECT_EQ(t.find_eq("city", Value("x")).size(), 1u);
  // Pk becomes reusable after erase.
  EXPECT_TRUE(t.insert({Value("a"), Value(9), Value("z")}));
}

TEST(Table, SnapshotSkipsTombstones) {
  Table t(people_schema());
  t.insert({Value("a"), Value(1), Value("x")});
  t.insert({Value("b"), Value(2), Value("y")});
  t.erase(*t.find_pk(Value("a")));
  const auto rows = t.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ((*rows[0])[0].as_text(), "b");
}

TEST(Table, SnapshotInInsertionOrder) {
  Table t(people_schema());
  t.insert({Value("z"), Value(1), Value("x")});
  t.insert({Value("a"), Value(2), Value("y")});
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ((*snap[0])[0].as_text(), "z");
  EXPECT_EQ((*snap[1])[0].as_text(), "a");
}

TEST(Table, KeylessTableAllowsDuplicates) {
  Schema s;
  s.columns = {{"v", ValueType::Integer}};
  Table t(s);
  EXPECT_TRUE(t.insert({Value(1)}));
  EXPECT_TRUE(t.insert({Value(1)}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.find_pk(Value(1)).has_value());
}

}  // namespace
}  // namespace seqrtg::store
