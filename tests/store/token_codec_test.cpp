// Differential test of the token codec (store/token_codec.hpp) against
// the util::Json DOM route it replaced, which survives here, and only
// here, as the reference:
//
//  - Encoding: seeded random token lists — every TokenType, names and
//    text with quotes, backslashes, control bytes, UTF-8 and empty
//    strings — encode to byte-identical JSON.
//  - Decoding: seeded documents with whitespace (including \v and \f,
//    which util::json_parse accepts), reordered, unknown and duplicate
//    keys, escaped keys, non-string "t"/"n", non-boolean "v"/"s", \u
//    escapes and deep nesting, then byte mutations (truncation, bad
//    escapes, stray and trailing bytes), get the same accept/reject
//    verdict and, when accepted, the same tokens.
//
// Rounds are independently seeded; replay a failing one alone with
//   SEQRTG_FUZZ_SEED=<seed> ./token_codec_test
#include "store/token_codec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace seqrtg::store {
namespace {

using Tokens = std::vector<core::PatternToken>;

// ---------------------------------------------------------------------------
// The reference: the DOM encoder/decoder the store used before the
// single-pass codec.

std::string dom_tokens_to_json(const Tokens& tokens) {
  util::JsonArray arr;
  for (const core::PatternToken& t : tokens) {
    util::JsonObject obj;
    obj["v"] = util::Json(t.is_variable);
    obj["s"] = util::Json(t.is_space_before);
    if (t.is_variable) {
      obj["t"] = util::Json(core::token_type_tag(t.var_type));
      obj["n"] = util::Json(t.name);
    } else {
      obj["x"] = util::Json(t.text);
    }
    arr.emplace_back(std::move(obj));
  }
  return util::Json(std::move(arr)).dump();
}

std::optional<Tokens> dom_tokens_from_json(std::string_view json) {
  const util::JsonParseResult parsed = util::json_parse(json);
  if (!parsed.ok() || !parsed.value.is_array()) return std::nullopt;
  Tokens out;
  for (const util::Json& item : parsed.value.as_array()) {
    if (!item.is_object()) return std::nullopt;
    core::PatternToken t;
    const util::Json* v = item.find("v");
    const util::Json* s = item.find("s");
    if (v == nullptr || !v->is_bool() || s == nullptr || !s->is_bool()) {
      return std::nullopt;
    }
    t.is_variable = v->as_bool();
    t.is_space_before = s->as_bool();
    if (t.is_variable) {
      t.var_type = core::token_type_from_tag(item.get_string("t", "string"));
      if (t.var_type == core::TokenType::Literal) {
        t.var_type = core::TokenType::String;
      }
      t.name = item.get_string("n", "");
    } else {
      const util::Json* x = item.find("x");
      if (x == nullptr || !x->is_string()) return std::nullopt;
      t.text = x->as_string();
    }
    out.push_back(std::move(t));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generators.

constexpr int kTokenTypeCount = static_cast<int>(core::TokenType::Rest) + 1;

std::uint64_t round_seed(std::uint64_t salt, int round) {
  return util::kDefaultSeed ^ salt ^
         (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(round + 1));
}

/// Seeds for `rounds` rounds, or just SEQRTG_FUZZ_SEED when it is set.
std::vector<std::uint64_t> seeds(std::uint64_t salt, int rounds) {
  if (const char* replay = std::getenv("SEQRTG_FUZZ_SEED")) {
    return {std::strtoull(replay, nullptr, 0)};
  }
  std::vector<std::uint64_t> out;
  for (int r = 0; r < rounds; ++r) out.push_back(round_seed(salt, r));
  return out;
}

std::string repro(std::uint64_t seed) {
  return "repro: SEQRTG_FUZZ_SEED=" + std::to_string(seed) +
         " ./token_codec_test";
}

/// Names and text: quotes, backslashes, every control byte class, DEL,
/// multi-byte and invalid UTF-8, NUL, and the characters the pattern
/// syntax itself uses.
std::string random_text(util::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "",       "a",        "login",  "\"",       "\\",     "\\\"",
      "/",      "\n",       "\t",     "\r",       "\b",     "\f",
      "\x01",   "\x1f",     "\x7f",   std::string(1, '\0'), "%",
      " ",      "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "\xff",
      "\x80",   "{}",       "[1,2]",  ":",        ",",      "\\u0041"};
  std::string out;
  const std::size_t n = rng.next_below(5);
  for (std::size_t i = 0; i < n; ++i) out += rng.choice(kPieces);
  return out;
}

Tokens random_tokens(util::Rng& rng) {
  Tokens out(rng.next_below(24));
  for (core::PatternToken& t : out) {
    t.is_variable = rng.chance(0.5);
    t.is_space_before = rng.chance(0.5);
    t.var_type = static_cast<core::TokenType>(rng.next_below(kTokenTypeCount));
    // Fields the encoder ignores for this kind of token are filled too.
    t.name = random_text(rng);
    t.text = random_text(rng);
  }
  return out;
}

/// A JSON string literal for `raw`, escaping differently from the encoder:
/// optional \/ and \u escapes (either hex case) of ordinary characters.
std::string quote(std::string_view raw, util::Rng& rng) {
  std::string out = "\"";
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    const bool must = c < 0x20 || c == '"' || c == '\\';
    if (c == '/' && rng.chance(0.5)) {
      out += "\\/";
    } else if (must || (c < 0x80 && rng.chance(0.1))) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += static_cast<char>(c);
      } else {
        char buf[8];
        std::snprintf(buf, sizeof(buf), rng.chance(0.5) ? "\\u%04x" : "\\u%04X",
                      c);
        out += buf;
      }
    } else {
      out += static_cast<char>(c);
    }
  }
  return out + "\"";
}

std::string whitespace(util::Rng& rng) {
  static const std::vector<std::string> kSpaces = {" ", "\t", "\n", "\r",
                                                   "\v", "\f"};
  std::string out;
  if (rng.chance(0.7)) return out;
  const std::size_t n = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < n; ++i) out += rng.choice(kSpaces);
  return out;
}

std::string random_number(util::Rng& rng) {
  static const std::vector<std::string> kNumbers = {
      "0", "-1", "42", "1.5", "-0.25", "1e5", "1E+5", "2e-3", "007",
      "123456789012345678901234567890"};
  return rng.choice(kNumbers);
}

/// Any JSON value; `depth` bounds the nesting it adds.
std::string random_value(util::Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 8 : 6)) {
    case 0: return "true";
    case 1: return "false";
    case 2: return "null";
    case 3: return random_number(rng);
    case 4: return quote(random_text(rng), rng);
    case 5: return quote(rng.choice(std::vector<std::string>{
                             "true", "integer", "x", ""}),
                         rng);
    case 6: {
      std::string out = "[" + whitespace(rng);
      const std::size_t n = rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += "," + whitespace(rng);
        out += random_value(rng, depth - 1) + whitespace(rng);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const std::size_t n = rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += ",";
        out += whitespace(rng) + quote(random_text(rng), rng) +
               whitespace(rng) + ":" + whitespace(rng) +
               random_value(rng, depth - 1);
      }
      return out + whitespace(rng) + "}";
    }
  }
}

/// `n` nested arrays around a scalar: probes the depth cap.
std::string nested(std::size_t n) {
  return std::string(n, '[') + "1" + std::string(n, ']');
}

std::string tag_value(util::Rng& rng) {
  std::string tag(core::token_type_tag(
      static_cast<core::TokenType>(rng.next_below(kTokenTypeCount))));
  if (rng.chance(0.1)) tag = rng.chance(0.5) ? "bogus" : "";
  return tag;
}

/// One token object: required, optional, wrong-typed, unknown and
/// duplicate fields in random order, keys sometimes written with escapes.
std::string random_object(util::Rng& rng) {
  const bool variable = rng.chance(0.5);
  std::vector<std::pair<std::string, std::string>> fields;
  const auto field_value = [&](const std::string& good) {
    if (rng.chance(0.92)) return good;
    return random_value(rng, 2);  // wrong type (or, rarely, the right one)
  };
  const auto maybe_add = [&](std::string key, std::string value, double p) {
    if (rng.chance(p)) fields.emplace_back(std::move(key), std::move(value));
  };
  maybe_add("v", field_value(variable ? "true" : "false"), 0.97);
  maybe_add("s", field_value(rng.chance(0.5) ? "true" : "false"), 0.97);
  maybe_add("t", field_value(quote(tag_value(rng), rng)),
            variable ? 0.85 : 0.1);
  maybe_add("n", field_value(quote(random_text(rng), rng)),
            variable ? 0.85 : 0.1);
  maybe_add("x", field_value(quote(random_text(rng), rng)),
            variable ? 0.1 : 0.95);
  static const std::vector<std::string> kUnknown = {"k", "vv", "", "V",
                                                    "extra", "\xc3\xa9"};
  const std::size_t unknown = rng.chance(0.3) ? 1 + rng.next_below(2) : 0;
  for (std::size_t i = 0; i < unknown; ++i) {
    fields.emplace_back(rng.choice(kUnknown),
                        rng.chance(0.05)
                            ? nested(124 + rng.next_below(6))
                            : random_value(rng, 3));
  }
  if (!fields.empty() && rng.chance(0.2)) {
    // A duplicate, before or after the original: the last one wins.
    auto dup = fields[rng.next_below(fields.size())];
    dup.second = rng.chance(0.5) ? random_value(rng, 1)
                                 : (dup.first == "v" || dup.first == "s"
                                        ? (rng.chance(0.5) ? "true" : "false")
                                        : quote(random_text(rng), rng));
    fields.push_back(std::move(dup));
  }
  for (std::size_t i = fields.size(); i > 1; --i) {
    std::swap(fields[i - 1], fields[rng.next_below(i)]);
  }
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += whitespace(rng) + quote(fields[i].first, rng) + whitespace(rng) +
           ":" + whitespace(rng) + fields[i].second + whitespace(rng);
  }
  return out + "}";
}

std::string random_document(util::Rng& rng) {
  if (rng.chance(0.2)) {
    // The encoder's own output, re-spaced.
    const std::string canonical = pattern_tokens_to_json(random_tokens(rng));
    std::string out;
    for (const char c : canonical) {
      out += c;
      if (c == ',' || c == '[' || c == '{') out += whitespace(rng);
    }
    return out;
  }
  std::string out = whitespace(rng) + "[" + whitespace(rng);
  const std::size_t n = rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += "," + whitespace(rng);
    out += random_object(rng) + whitespace(rng);
  }
  return out + "]" + whitespace(rng);
}

/// Byte mutations: truncation, deletion, insertion of a JSON-significant
/// or hostile byte, bad escapes, and trailing bytes.
void mutate(std::string& doc, util::Rng& rng) {
  static const std::vector<std::string> kInserts = {
      "\"", "\\", "{", "}", "[", "]", ",", ":", "0", "-", ".", "e",
      "t",  "f",  "n", "u", " ", "\v", std::string(1, '\0'), "\x01",
      "\xff", "\\q", "\\u12G4", "\\u00", "\\uD83D", "\\u0076"};
  static const std::vector<std::string> kTrailing = {"x", " ", "]", "{}",
                                                     "\n", ",", "0"};
  const std::size_t pos = doc.empty() ? 0 : rng.next_below(doc.size() + 1);
  switch (rng.next_below(5)) {
    case 0: doc.resize(pos); break;
    case 1:
      if (pos < doc.size()) doc.erase(pos, 1);
      break;
    case 2: doc.insert(pos, rng.choice(kInserts)); break;
    case 3:
      if (pos < doc.size()) doc[pos] = rng.choice(kInserts)[0];
      break;
    default: doc += rng.choice(kTrailing); break;
  }
}

void expect_same_decode(const std::string& doc, const std::string& trace) {
  const std::optional<Tokens> got = pattern_tokens_from_json(doc);
  const std::optional<Tokens> want = dom_tokens_from_json(doc);
  ASSERT_EQ(got.has_value(), want.has_value())
      << trace << "\ndocument: " << doc;
  if (want.has_value()) {
    ASSERT_EQ(*got, *want) << trace << "\ndocument: " << doc;
  }
}

// ---------------------------------------------------------------------------

TEST(TokenCodec, EncodesByteIdenticallyToTheDom) {
  std::set<core::TokenType> variable_types;
  std::set<core::TokenType> literal_types;
  for (const std::uint64_t seed : seeds(0x656e63, 400)) {
    SCOPED_TRACE(repro(seed));
    util::Rng rng(seed);
    for (int i = 0; i < 10; ++i) {
      const Tokens tokens = random_tokens(rng);
      for (const core::PatternToken& t : tokens) {
        (t.is_variable ? variable_types : literal_types).insert(t.var_type);
      }
      const std::string json = pattern_tokens_to_json(tokens);
      ASSERT_EQ(json, dom_tokens_to_json(tokens));
      expect_same_decode(json, repro(seed));
    }
  }
  if (std::getenv("SEQRTG_FUZZ_SEED") == nullptr) {
    EXPECT_EQ(variable_types.size(), static_cast<std::size_t>(kTokenTypeCount))
        << "every TokenType must be encoded as a variable";
    EXPECT_EQ(literal_types.size(), static_cast<std::size_t>(kTokenTypeCount));
  }
}

TEST(TokenCodec, DecodesMutatedDocumentsLikeTheDom) {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::uint64_t seed : seeds(0x646563, 600)) {
    SCOPED_TRACE(repro(seed));
    util::Rng rng(seed);
    for (int i = 0; i < 10; ++i) {
      std::string doc = random_document(rng);
      const std::size_t mutations =
          rng.chance(0.4) ? 0 : 1 + rng.next_below(3);
      for (std::size_t m = 0; m < mutations; ++m) mutate(doc, rng);
      expect_same_decode(doc, repro(seed));
      (dom_tokens_from_json(doc).has_value() ? accepted : rejected) += 1;
    }
  }
  if (std::getenv("SEQRTG_FUZZ_SEED") == nullptr) {
    // Vacuity guard: both verdicts are exercised in bulk.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
  }
}

TEST(TokenCodec, KnownWireForm) {
  Tokens tokens(3);
  tokens[0].text = "a\"b\\c";
  tokens[1].is_variable = true;
  tokens[1].is_space_before = true;
  tokens[1].var_type = core::TokenType::IPv4;
  tokens[1].name = "src\x01";
  tokens[2].is_space_before = true;
  tokens[2].text = "\xc3\xa9\t";
  const std::string json = pattern_tokens_to_json(tokens);
  EXPECT_EQ(json,
            "[{\"s\":false,\"v\":false,\"x\":\"a\\\"b\\\\c\"},"
            "{\"n\":\"src\\u0001\",\"s\":true,\"t\":\"ipv4\",\"v\":true},"
            "{\"s\":true,\"v\":false,\"x\":\"\xc3\xa9\\t\"}]");
  EXPECT_EQ(pattern_tokens_from_json(json), tokens);
  EXPECT_EQ(pattern_tokens_to_json({}), "[]");
  EXPECT_EQ(pattern_tokens_from_json(" [ ] "), Tokens{});
}

TEST(TokenCodec, FieldRulesMatchTheDom) {
  const std::vector<std::string> docs = {
      // Last duplicate wins, including over a wrong-typed earlier one.
      R"([{"v":"yes","v":true,"s":false,"n":"a","n":1}])",
      R"([{"v":true,"s":true,"n":1,"n":"b","t":"ipv4","t":null}])",
      // Escaped keys are keys.
      R"([{"\u0076":false,"\u0073":true,"\u0078":"lit"}])",
      // Unknown and irrelevant keys are skipped, not rejected.
      R"([{"v":false,"s":false,"x":"a","t":"hex","n":"ignored","z":[{}]}])",
      // "literal" and unknown tags read as String.
      R"([{"v":true,"s":false,"t":"literal"},{"v":true,"s":false,"t":"x"}])",
      // \u escapes, lone surrogates and NUL.
      R"([{"v":false,"s":false,"x":"\u00e9\uD83D\u0000\/"}])",
      // Whitespace util::json_parse accepts (\v, \f) around everything.
      "\v[\f{\"v\"\t:\ntrue ,\r\"s\":false}\v]\f",
      // Rejections: missing/non-bool v or s, non-string x, non-object item.
      R"([{"s":true,"x":"a"}])",
      R"([{"v":1,"s":true,"x":"a"}])",
      R"([{"v":false,"s":true,"x":5}])",
      R"([{"v":false,"s":true}])",
      R"([1])",
      R"({"v":true})",
      // Grammar errors.
      R"([{"v":true,"s":true,}])",
      R"([{"v":true,"s":true}],)",
      R"([{"v":tru,"s":true}])",
      R"([{"v":true,"s":true,"n":"\q"}])",
      R"([{"v":true,"s":true,"n":"\u12G4"}])",
      R"([{"v":true,"s":true,"n":"\u00"}])",
      R"([{"v":true,"s":true,"z":01.}])",
      R"([{"v":true,"s":true,"z":-}])",
      "[{\"v\":true,\"s\":true,\"n\":\"a\x01\"}]",
      R"([{"v":true,"s":true,"n":"a)",
      "",
      "[",
  };
  for (const std::string& doc : docs) expect_same_decode(doc, "fixed case");
}

TEST(TokenCodec, NestingCapMatchesTheDom) {
  bool saw_accept = false;
  bool saw_reject = false;
  for (std::size_t n = 120; n <= 132; ++n) {
    const std::string doc =
        "[{\"v\":true,\"s\":true,\"z\":" + nested(n) + "}]";
    expect_same_decode(doc, "nesting " + std::to_string(n));
    (dom_tokens_from_json(doc).has_value() ? saw_accept : saw_reject) = true;
  }
  EXPECT_TRUE(saw_accept && saw_reject) << "the range must straddle the cap";
}

}  // namespace
}  // namespace seqrtg::store
