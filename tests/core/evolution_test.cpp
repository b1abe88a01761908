#include "core/evolution.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/parser.hpp"
#include "core/repository.hpp"
#include "core/validation.hpp"
#include "store/pattern_store.hpp"
#include "util/rng.hpp"

namespace seqrtg::core {
namespace {

namespace fs = std::filesystem;

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

Pattern make_pattern(std::string service, std::vector<PatternToken> tokens,
                     std::vector<std::string> examples,
                     std::uint64_t count = 1) {
  Pattern p;
  p.service = std::move(service);
  p.tokens = std::move(tokens);
  p.examples = std::move(examples);
  p.stats.match_count = count;
  return p;
}

ValueSketch singleton_sketch(std::string value, std::uint64_t observations) {
  ValueSketch s;
  for (std::uint64_t i = 0; i < observations; ++i) s.observe(value);
  return s;
}

TEST(ValueSketch, TracksDistinctValuesUpToCap) {
  ValueSketch s;
  s.observe("a");
  s.observe("a");
  EXPECT_TRUE(s.singleton());
  EXPECT_EQ(s.observations, 2u);
  s.observe("b");
  EXPECT_FALSE(s.singleton());
  for (int i = 0; i < 20; ++i) s.observe('v' + std::to_string(i));
  EXPECT_TRUE(s.overflow);
  EXPECT_LE(s.values.size(), ValueSketch::kMaxValues);
}

TEST(SketchRegistry, ObservesForgetAndIgnoresArityDrift) {
  SketchRegistry reg;
  reg.observe("p1", {{"host", "alpha"}, {"port", "80"}});
  reg.observe("p1", {{"host", "alpha"}, {"port", "81"}});
  // Arity drift (pattern rewritten under the same id) must not crash or
  // corrupt the existing sketches.
  reg.observe("p1", {{"host", "alpha"}});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.at("p1").size(), 2u);
  EXPECT_TRUE(snap.at("p1")[0].singleton());
  EXPECT_FALSE(snap.at("p1")[1].singleton());
  EXPECT_EQ(reg.pattern_count(), 1u);
  reg.forget("p1");
  EXPECT_EQ(reg.pattern_count(), 0u);
}

/// Seeds for `rounds` rounds, or just SEQRTG_FUZZ_SEED when it is set.
std::vector<std::uint64_t> fuzz_seeds(int rounds) {
  if (const char* replay = std::getenv("SEQRTG_FUZZ_SEED")) {
    return {std::strtoull(replay, nullptr, 0)};
  }
  std::vector<std::uint64_t> out;
  for (int r = 0; r < rounds; ++r) {
    out.push_back(util::kDefaultSeed ^ 0x5ce7c4e5ULL ^
                  (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r + 1)));
  }
  return out;
}

// The engine observes each service pass into local sketches and folds
// them into the registry with merge(). Property: cutting any per-pattern
// observation sequence into chunks and merging each chunk's local
// sketches leaves the registry exactly as observe() record by record
// does, and the running approx_bytes() equals the walk after every step.
TEST(SketchRegistry, ChunkedMergeEqualsPerRecordObserve) {
  for (const std::uint64_t seed : fuzz_seeds(60)) {
    SCOPED_TRACE("repro: SEQRTG_FUZZ_SEED=" + std::to_string(seed) +
                 " ./evolution_test");
    util::Rng rng(seed);
    struct Spec {
      std::string id;
      std::size_t arity;
      std::size_t alphabet;
    };
    std::vector<Spec> specs;
    const std::size_t pattern_count = 1 + rng.next_below(6);
    for (std::size_t p = 0; p < pattern_count; ++p) {
      // Zero-field patterns, and alphabets both inside and well past the
      // kMaxValues cap so singletons, fills and overflows all occur.
      const std::size_t alphabet =
          rng.chance(0.5) ? 1 + rng.next_below(3) : 6 + rng.next_below(30);
      specs.push_back({'p' + std::to_string(p), rng.next_below(4), alphabet});
    }
    const auto value = [&](const Spec& spec) {
      return 'v' + std::to_string(rng.next_below(spec.alphabet));
    };

    SketchRegistry merged;
    SketchRegistry reference;
    const auto check = [&](const std::string& step) {
      SCOPED_TRACE(step);
      ASSERT_EQ(merged.snapshot(), reference.snapshot());
      ASSERT_EQ(merged.approx_bytes(), merged.recount_bytes());
      ASSERT_EQ(reference.approx_bytes(), reference.recount_bytes());
      ASSERT_EQ(merged.approx_bytes(), reference.approx_bytes());
    };
    if (rng.chance(0.5)) {
      // Restored history: some entries carry the pattern's arity, some
      // another one (their buffers must be ignored whole), some none.
      std::map<std::string, std::vector<ValueSketch>> restored;
      for (const Spec& spec : specs) {
        if (rng.chance(0.4)) continue;
        std::size_t arity = spec.arity;
        if (rng.chance(0.4)) arity = rng.next_below(4);
        std::vector<ValueSketch>& sketches = restored[spec.id];
        sketches.resize(arity);
        for (ValueSketch& s : sketches) {
          const std::size_t n = rng.next_below(12);
          for (std::size_t i = 0; i < n; ++i) s.observe(value(spec));
        }
      }
      merged.restore(restored);
      reference.restore(restored);
      check("restore");
    }

    const std::size_t steps = 20 + rng.next_below(40);
    for (std::size_t step = 0; step < steps; ++step) {
      const Spec& spec = rng.choice(specs);
      const std::string label = "step " + std::to_string(step) + " " + spec.id;
      if (rng.chance(0.05)) {
        merged.forget(spec.id);
        reference.forget(spec.id);
        check(label + " forget");
        continue;
      }
      // One chunk: what one service pass buffers for this pattern.
      std::vector<ValueSketch> local(spec.arity);
      const std::size_t records = 1 + rng.next_below(40);
      for (std::size_t r = 0; r < records; ++r) {
        ParsedFields fields;
        for (std::size_t i = 0; i < spec.arity; ++i) {
          fields.emplace_back('f' + std::to_string(i), value(spec));
          local[i].observe(fields.back().second);
        }
        reference.observe(spec.id, fields);
      }
      merged.merge(spec.id, local);
      check(label + " merge of " + std::to_string(records));
    }
    merged.clear();
    reference.clear();
    check("clear");
  }
}

TEST(Evolution, SpecialisesCollapsedStringWildcard) {
  const Pattern p = make_pattern(
      "s",
      {constant("connected", false), constant("to"),
       variable(TokenType::String, "host")},
      {"connected to backend"}, 10);
  std::map<std::string, std::vector<ValueSketch>> sketches;
  sketches[p.id()] = {singleton_sketch("backend", 5)};

  EvolutionReport report;
  const auto evolved = evolve_service({p}, sketches, EvolutionOptions{},
                                      &report);
  ASSERT_EQ(evolved.size(), 1u);
  EXPECT_EQ(evolved[0].text(), "connected to backend");
  EXPECT_EQ(report.specialised, 1u);
  EXPECT_EQ(evolved[0].stats.match_count, 10u);
}

TEST(Evolution, SpecialisationGateRejectsDeadTypedRewrite) {
  // "42" scans as an Integer token; a literal edge "42" would never match
  // it, so the empirical liveness gate must veto this rewrite even though
  // the sketch collapsed.
  const Pattern p = make_pattern(
      "s", {constant("took", false), variable(TokenType::Integer, "n")},
      {"took 42"}, 10);
  std::map<std::string, std::vector<ValueSketch>> sketches;
  sketches[p.id()] = {singleton_sketch("42", 8)};

  EvolutionReport report;
  const auto evolved = evolve_service({p}, sketches, EvolutionOptions{},
                                      &report);
  ASSERT_EQ(evolved.size(), 1u);
  EXPECT_EQ(evolved[0].text(), p.text());
  EXPECT_EQ(report.specialised, 0u);
}

TEST(Evolution, RespectsMinObservations) {
  const Pattern p = make_pattern(
      "s",
      {constant("connected", false), constant("to"),
       variable(TokenType::String, "host")},
      {"connected to backend"}, 10);
  std::map<std::string, std::vector<ValueSketch>> sketches;
  sketches[p.id()] = {singleton_sketch("backend", 2)};  // below default 3

  EvolutionReport report;
  const auto evolved = evolve_service({p}, sketches, EvolutionOptions{},
                                      &report);
  EXPECT_EQ(evolved[0].text(), p.text());
  EXPECT_EQ(report.specialised, 0u);
}

TEST(Evolution, MergesTypedNearDuplicatesIntoWidenedVariable) {
  // Same shape, differing only in the variable's type at one position:
  // widening folds them into one %string% pattern (which collides with
  // p2's id — the fold must merge, not duplicate).
  const Pattern p1 = make_pattern(
      "s", {constant("recv", false), variable(TokenType::Integer, "v")},
      {"recv 7"}, 4);
  const Pattern p2 = make_pattern(
      "s", {constant("recv", false), variable(TokenType::String, "v")},
      {"recv hello"}, 6);

  EvolutionReport report;
  const auto evolved =
      evolve_service({p1, p2}, {}, EvolutionOptions{}, &report);
  ASSERT_EQ(evolved.size(), 1u);
  // The members' shared field name survives; the type widened to String.
  EXPECT_EQ(evolved[0].text(), "recv %v%");
  ASSERT_TRUE(evolved[0].tokens[1].is_variable);
  EXPECT_EQ(evolved[0].tokens[1].var_type, TokenType::String);
  EXPECT_EQ(evolved[0].stats.match_count, 10u);
  EXPECT_EQ(report.merged, 1u);

  Parser parser{ScannerOptions{}, SpecialTokenOptions{}};
  parser.add_pattern(evolved[0]);
  EXPECT_TRUE(parser.parse("s", "recv 7").has_value());
  EXPECT_TRUE(parser.parse("s", "recv hello").has_value());
}

TEST(Evolution, MergesLiteralGroupAtCardinalityThreshold) {
  std::vector<Pattern> patterns;
  for (const std::string w : {"alpha", "beta", "gamma", "delta"}) {
    patterns.push_back(make_pattern(
        "s", {constant("state", false), constant(w)}, {"state " + w}, 2));
  }
  EvolutionReport report;
  const auto evolved =
      evolve_service(patterns, {}, EvolutionOptions{}, &report);
  ASSERT_EQ(evolved.size(), 1u);
  EXPECT_EQ(evolved[0].text(), "state %string%");
  EXPECT_EQ(evolved[0].stats.match_count, 8u);
  EXPECT_EQ(report.merged, 1u);
}

TEST(Evolution, SmallLiteralGroupDoesNotMerge) {
  const Pattern p1 = make_pattern(
      "s", {constant("state", false), constant("alpha")}, {"state alpha"});
  const Pattern p2 = make_pattern(
      "s", {constant("state", false), constant("beta")}, {"state beta"});
  EvolutionReport report;
  const auto evolved =
      evolve_service({p1, p2}, {}, EvolutionOptions{}, &report);
  EXPECT_EQ(evolved.size(), 2u);
  EXPECT_EQ(report.merged, 0u);
}

TEST(Evolution, EvictsByTtlAndKeepsUndatedPatterns) {
  const std::int64_t now = 1000 * 86400;
  Pattern stale = make_pattern(
      "s", {constant("old", false), constant("msg")}, {"old msg"}, 3);
  stale.stats.last_matched = now - 40 * 86400;
  Pattern fresh = make_pattern(
      "s", {constant("new", false), constant("msg")}, {"new msg"}, 3);
  fresh.stats.last_matched = now - 86400;
  const Pattern undated = make_pattern(
      "s", {constant("undated", false), constant("msg")}, {"undated msg"},
      3);

  EvolutionOptions opts;
  opts.ttl_days = 30;
  opts.now_unix = now;
  EvolutionReport report;
  const auto evolved =
      evolve_service({stale, fresh, undated}, {}, opts, &report);
  ASSERT_EQ(evolved.size(), 2u);
  EXPECT_EQ(report.evicted, 1u);
  for (const Pattern& p : evolved) {
    EXPECT_NE(p.id(), stale.id());
  }
}

TEST(Evolution, NoActionsReturnsInputUntouched) {
  const Pattern p = make_pattern(
      "s", {constant("boot", false), constant("ok")}, {"boot ok"}, 1);
  EvolutionReport report;
  const auto evolved = evolve_service({p}, {}, EvolutionOptions{}, &report);
  EXPECT_EQ(evolved.size(), 1u);
  EXPECT_FALSE(report.changed());
  EXPECT_EQ(report.services_rejected, 0u);
}

TEST(Evolution, EvolvedSetRevalidatesCleanly) {
  std::vector<Pattern> patterns;
  for (const std::string w : {"alpha", "beta", "gamma", "delta"}) {
    patterns.push_back(make_pattern(
        "s", {constant("state", false), constant(w)}, {"state " + w}, 2));
  }
  patterns.push_back(make_pattern(
      "s",
      {constant("recv", false), variable(TokenType::Integer, "n")},
      {"recv 12"}, 5));
  EvolutionReport report;
  const auto evolved =
      evolve_service(patterns, {}, EvolutionOptions{}, &report);
  EXPECT_TRUE(validate_patterns(evolved).ok());
}

TEST(Evolution, RepositoryRewriteDeletesConsumedPatterns) {
  InMemoryRepository repo;
  std::vector<std::string> old_ids;
  for (const std::string w : {"alpha", "beta", "gamma", "delta"}) {
    const Pattern p = make_pattern(
        "svc", {constant("state", false), constant(w)}, {"state " + w}, 2);
    old_ids.push_back(p.id());
    repo.upsert_pattern(p);
  }
  const Pattern untouched = make_pattern(
      "other", {constant("boot", false), constant("ok")}, {"boot ok"}, 1);
  repo.upsert_pattern(untouched);

  const EvolutionReport report =
      evolve_repository(repo, nullptr, EvolutionOptions{});
  EXPECT_EQ(report.services_seen, 2u);
  EXPECT_EQ(report.services_changed, 1u);
  EXPECT_EQ(report.merged, 1u);

  const auto svc = repo.load_service("svc");
  ASSERT_EQ(svc.size(), 1u);
  EXPECT_EQ(svc[0].text(), "state %string%");
  EXPECT_EQ(svc[0].stats.match_count, 8u);
  ASSERT_EQ(repo.load_service("other").size(), 1u);
  EXPECT_EQ(repo.load_service("other")[0].id(), untouched.id());
}

TEST(Evolution, SketchRegistryForgetsRewrittenPatterns) {
  InMemoryRepository repo;
  const Pattern p = make_pattern(
      "s",
      {constant("connected", false), constant("to"),
       variable(TokenType::String, "host")},
      {"connected to backend"}, 10);
  repo.upsert_pattern(p);
  SketchRegistry sketches;
  sketches.observe(p.id(), {{"host", "backend"}});
  sketches.observe(p.id(), {{"host", "backend"}});
  sketches.observe(p.id(), {{"host", "backend"}});

  const EvolutionReport report =
      evolve_repository(repo, &sketches, EvolutionOptions{});
  EXPECT_EQ(report.specialised, 1u);
  // The old id was rewritten away; its sketches must go with it.
  EXPECT_EQ(sketches.pattern_count(), 0u);
  const auto evolved = repo.load_service("s");
  ASSERT_EQ(evolved.size(), 1u);
  EXPECT_EQ(evolved[0].text(), "connected to backend");
}

// The crash-safety contract: an evolution rewrite of a durable store is one
// WAL commit group per service. Killing the process right after the pass
// (no checkpoint) and reopening cold must replay to exactly the evolved
// state — deletes included.
TEST(Evolution, DurableRewriteSurvivesColdReopenViaWalReplay) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("seqrtg_evolution_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  std::string merged_text;
  {
    store::PatternStore store;
    ASSERT_TRUE(store.open(dir.string()));
    for (const std::string w : {"alpha", "beta", "gamma", "delta"}) {
      store.upsert_pattern(make_pattern(
          "svc", {constant("state", false), constant(w)}, {"state " + w},
          2));
    }
    const EvolutionReport report =
        evolve_repository(store, nullptr, EvolutionOptions{});
    ASSERT_EQ(report.merged, 1u);
    const auto evolved = store.load_service("svc");
    ASSERT_EQ(evolved.size(), 1u);
    merged_text = evolved[0].text();
    // No checkpoint: the store closes with the rewrite only in the WAL.
  }

  store::PatternStore reopened;
  ASSERT_TRUE(reopened.open(dir.string()));
  const auto recovered = reopened.load_service("svc");
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].text(), merged_text);
  EXPECT_EQ(recovered[0].stats.match_count, 8u);
  fs::remove_all(dir);
}

TEST(SketchPersistence, JsonRoundTripIsLossless) {
  std::map<std::string, std::vector<ValueSketch>> sketches;
  ValueSketch a;
  a.values = {"10", "42", "97"};
  a.observations = 12;
  ValueSketch b;
  b.values = {"alpha"};
  b.overflow = true;
  b.observations = 1000;
  sketches["svc/pattern-1"] = {a, b};
  sketches["svc/pattern-2"] = {};
  sketches["other/p"] = {ValueSketch{}};

  const std::string json = sketches_to_json(sketches);
  const auto restored = sketches_from_json(json);
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), sketches.size());
  for (const auto& [id, positions] : sketches) {
    const auto it = restored->find(id);
    ASSERT_NE(it, restored->end()) << id;
    ASSERT_EQ(it->second.size(), positions.size()) << id;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      EXPECT_EQ(it->second[i].values, positions[i].values) << id;
      EXPECT_EQ(it->second[i].overflow, positions[i].overflow) << id;
      EXPECT_EQ(it->second[i].observations, positions[i].observations)
          << id;
    }
  }
}

TEST(SketchPersistence, MalformedOrSkewedJsonRestoresNothing) {
  EXPECT_FALSE(sketches_from_json("").has_value());
  EXPECT_FALSE(sketches_from_json("not json at all").has_value());
  EXPECT_FALSE(sketches_from_json("{\"patterns\":[]}").has_value());
  // Unknown version: start empty rather than guess at the schema.
  EXPECT_FALSE(
      sketches_from_json("{\"version\":2,\"patterns\":[]}").has_value());
  // Oversized value lists clamp to the overflow representation instead of
  // resurrecting an impossible sketch.
  std::string fat = "{\"version\":1,\"patterns\":[{\"id\":\"p\","
                    "\"positions\":[{\"values\":[";
  for (std::size_t i = 0; i <= ValueSketch::kMaxValues; ++i) {
    if (i != 0) fat += ',';
    fat += "\"v" + std::to_string(i) + "\"";
  }
  fat += "],\"overflow\":false,\"observations\":9}]}]}";
  const auto clamped = sketches_from_json(fat);
  ASSERT_TRUE(clamped.has_value());
  const auto& positions = clamped->at("p");
  ASSERT_EQ(positions.size(), 1u);
  EXPECT_EQ(positions[0].values.size(), ValueSketch::kMaxValues);
  EXPECT_TRUE(positions[0].overflow);
  EXPECT_EQ(positions[0].observations, 9u);
}

TEST(SketchPersistence, RegistryRestoreSeedsFutureObservations) {
  SketchRegistry registry;
  std::map<std::string, std::vector<ValueSketch>> seed;
  ValueSketch position;
  position.values = {"5", "6"};
  position.observations = 2;
  seed["svc/p"] = {position};
  registry.restore(seed);
  // New observations extend the restored sketch instead of starting over.
  registry.observe("svc/p", {{"field0", "7"}});
  const auto snapshot = registry.snapshot();
  const auto& restored = snapshot.at("svc/p");
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].values,
            (std::vector<std::string>{"5", "6", "7"}));
  EXPECT_EQ(restored[0].observations, 3u);
}

}  // namespace
}  // namespace seqrtg::core
