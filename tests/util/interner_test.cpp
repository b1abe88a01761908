#include "util/interner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace seqrtg::util {
namespace {

TEST(StringInterner, SameStringSameId) {
  StringInterner interner;
  const auto a = interner.intern("hello");
  const auto b = interner.intern("hello");
  EXPECT_EQ(a, b);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, DistinctStringsDistinctIds) {
  StringInterner interner;
  const auto a = interner.intern("alpha");
  const auto b = interner.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.view(a), "alpha");
  EXPECT_EQ(interner.view(b), "beta");
}

TEST(StringInterner, InternCopiesTheBytes) {
  StringInterner interner;
  StringInterner::Id id;
  {
    std::string transient = "ephemeral-value";
    id = interner.intern(transient);
    transient.assign(transient.size(), 'x');  // clobber the source
  }
  EXPECT_EQ(interner.view(id), "ephemeral-value");
}

TEST(StringInterner, EmptyStringInternsFine) {
  StringInterner interner;
  const auto id = interner.intern("");
  EXPECT_NE(id, StringInterner::kInvalid);
  EXPECT_EQ(interner.view(id), "");
  EXPECT_EQ(interner.intern(""), id);
}

TEST(StringInterner, FindDoesNotInsert) {
  StringInterner interner;
  EXPECT_EQ(interner.find("missing"), StringInterner::kInvalid);
  EXPECT_EQ(interner.size(), 0u);
  const auto id = interner.intern("present");
  EXPECT_EQ(interner.find("present"), id);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(StringInterner, ViewsStayValidAcrossGrowth) {
  // Views point into the arena-backed byte pool; interning thousands more
  // strings must not invalidate earlier views (no reallocation of pools).
  StringInterner interner;
  const auto first = interner.intern("the-first-string");
  const std::string_view early = interner.view(first);
  std::vector<StringInterner::Id> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(interner.intern("key-" + std::to_string(i)));
  }
  EXPECT_EQ(early, "the-first-string");
  EXPECT_EQ(interner.view(first).data(), early.data());
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.view(ids[static_cast<std::size_t>(i)]),
              "key-" + std::to_string(i));
  }
  EXPECT_EQ(interner.size(), 5001u);
  EXPECT_GT(interner.bytes(), 0u);
}

TEST(StringInterner, IdsAreDense) {
  StringInterner interner;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.intern('s' + std::to_string(i)),
              static_cast<StringInterner::Id>(i));
  }
}

TEST(StringInterner, OneCharTokensCoverTheFullByteRange) {
  StringInterner interner;
  std::vector<StringInterner::Id> ids;
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    ids.push_back(interner.intern(s));
    EXPECT_EQ(ids.back(), static_cast<StringInterner::Id>(c));
  }
  EXPECT_EQ(interner.size(), 256u);
  for (int c = 0; c < 256; ++c) {
    const std::string s(1, static_cast<char>(c));
    EXPECT_EQ(interner.find(s), ids[static_cast<std::size_t>(c)]);
    EXPECT_EQ(interner.view(ids[static_cast<std::size_t>(c)]), s);
  }
}

// Property test (ISSUE 5 satellite): a seeded stream of mostly-colliding
// random strings — including empty and 1-char ones — checked against a
// reference map. Ids must be dense, stable, and view() must round-trip
// every byte.
TEST(StringInterner, RandomizedModelEquivalence) {
  util::Rng rng(kDefaultSeed ^ 0x17e47e4ULL);
  StringInterner interner;
  std::unordered_map<std::string, StringInterner::Id> model;
  for (int step = 0; step < 5000; ++step) {
    // Small alphabet + short lengths make repeats overwhelmingly likely.
    const std::size_t len = rng.next_below(5);
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.next_below(4));
    }
    const auto it = model.find(s);
    if (rng.chance(0.3)) {
      // find() must agree with the model and never insert.
      const std::size_t before = interner.size();
      EXPECT_EQ(interner.find(s),
                it == model.end() ? StringInterner::kInvalid : it->second)
          << "step " << step;
      EXPECT_EQ(interner.size(), before);
      continue;
    }
    const StringInterner::Id id = interner.intern(s);
    if (it == model.end()) {
      // New strings get the next dense id.
      EXPECT_EQ(id, static_cast<StringInterner::Id>(model.size()))
          << "step " << step;
      model.emplace(s, id);
    } else {
      EXPECT_EQ(id, it->second) << "step " << step;
    }
    EXPECT_EQ(interner.view(id), s) << "step " << step;
    EXPECT_EQ(interner.size(), model.size());
  }
  // The walk must have hit genuine collisions, not just fresh strings.
  EXPECT_LT(model.size(), 2000u);
  EXPECT_GT(model.size(), 100u);
}

}  // namespace
}  // namespace seqrtg::util
