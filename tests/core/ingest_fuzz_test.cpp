// Deterministic fuzz harness for the JSON-lines ingest surface: seeded
// mutations of well-formed records plus raw garbage are fed through
// parse_line / read_batch. The ingester must never crash, must account for
// every non-blank line as exactly accepted or malformed, and accepted
// records must round-trip identically through record_to_json. A second
// harness checks the single-pass record decoder against the util::Json
// DOM route it replaced, which survives here as the reference.
#include "core/ingest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace seqrtg::core {
namespace {

std::string random_text(util::Rng& rng, std::size_t max_len) {
  // Printable ASCII plus the characters that stress the JSON escaper:
  // quotes, backslashes, control bytes, and high (UTF-8 continuation) bytes.
  static constexpr char kSpice[] = "\"\\\t\b\f\n\r{}[]:,%";
  const std::size_t len = rng.next_below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    switch (rng.next_below(8)) {
      case 0:
        out += kSpice[rng.next_below(sizeof kSpice - 1)];
        break;
      case 1:
        out += static_cast<char>(rng.next_below(256));
        break;
      default:
        out += static_cast<char>(' ' + rng.next_below(95));
        break;
    }
  }
  return out;
}

/// One mutated line: a valid serialised record with seeded byte-level damage
/// (flips, inserts, deletes, truncation, duplication).
std::string mutate(util::Rng& rng, std::string line) {
  const std::size_t edits = 1 + rng.next_below(4);
  for (std::size_t e = 0; e < edits && !line.empty(); ++e) {
    const std::size_t pos = rng.next_below(line.size());
    switch (rng.next_below(5)) {
      case 0:  // flip a byte
        line[pos] = static_cast<char>(rng.next_below(256));
        break;
      case 1:  // insert a byte
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<char>(rng.next_below(256)));
        break;
      case 2:  // delete a byte
        line.erase(line.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      case 3:  // truncate
        line.resize(pos);
        break;
      case 4:  // duplicate a span
        line += line.substr(pos, rng.next_below(8) + 1);
        break;
    }
  }
  return line;
}

std::string build_line(util::Rng& rng) {
  switch (rng.next_below(10)) {
    case 0:
      return "";  // blank
    case 1:
      return "   \t  ";  // whitespace-only: also blank after trim
    case 2:
      return random_text(rng, 80);  // raw garbage
    case 3: {  // structurally valid JSON, wrong shape
      switch (rng.next_below(4)) {
        case 0: return "[1,2,3]";
        case 1: return "{\"service\":\"s\"}";
        case 2: return "{\"service\":42,\"message\":\"m\"}";
        default: return "\"just a string\"";
      }
    }
    case 4:
    case 5:
    case 6: {  // mutated valid record
      const LogRecord record{random_text(rng, 12), random_text(rng, 60)};
      return mutate(rng, record_to_json(record));
    }
    default: {  // valid record
      const LogRecord record{random_text(rng, 12), random_text(rng, 60)};
      return record_to_json(record);
    }
  }
}

/// Splits exactly like std::getline over the assembled stream: '\n' is the
/// separator, and a trailing fragment without one is still a line.
std::vector<std::string> getline_split(const std::string& stream) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= stream.size()) {
    const std::size_t nl = stream.find('\n', start);
    if (nl == std::string::npos) {
      if (start < stream.size()) lines.push_back(stream.substr(start));
      break;
    }
    lines.push_back(stream.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// The seed of one fuzz round. Rounds are independently seeded (not one
/// shared Rng stream) so a failing round replays alone:
///   SEQRTG_FUZZ_SEED=<seed> ctest -R ingest_fuzz --output-on-failure
std::uint64_t round_seed(int round) {
  return util::kDefaultSeed ^
         (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(round + 1));
}

TEST(IngestFuzz, ExactAccountingAndRoundTripUnderMutation) {
  const char* replay = std::getenv("SEQRTG_FUZZ_SEED");
  std::uint64_t total_accepted = 0;
  std::uint64_t total_malformed = 0;

  const int rounds = replay != nullptr ? 1 : 300;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        replay != nullptr ? std::strtoull(replay, nullptr, 0)
                          : round_seed(round);
    SCOPED_TRACE("failing seed " + std::to_string(seed) +
                 " — repro: SEQRTG_FUZZ_SEED=" + std::to_string(seed) +
                 " ./ingest_fuzz_test");
    util::Rng rng(seed);
    // Assemble a stream. Mutations may embed '\n' bytes, so the number of
    // fed lines is recomputed from the stream itself, not from the builder.
    std::string stream;
    const std::size_t count = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < count; ++i) {
      stream += build_line(rng);
      if (i + 1 < count || rng.next_below(2) == 0) stream += '\n';
    }
    const std::vector<std::string> lines = getline_split(stream);

    // Oracle: classify each line with parse_line directly.
    std::size_t expect_accepted = 0;
    std::size_t expect_malformed = 0;
    std::size_t expect_blank = 0;
    for (const std::string& line : lines) {
      const std::optional<LogRecord> record =
          JsonStreamIngester::parse_line(line);
      if (record.has_value()) {
        ++expect_accepted;
        // Round-trip identity: serialising the accepted record and parsing
        // it again must yield the identical record.
        const std::optional<LogRecord> again =
            JsonStreamIngester::parse_line(record_to_json(*record));
        ASSERT_TRUE(again.has_value()) << "round " << round;
        EXPECT_EQ(*again, *record) << "round " << round;
      } else if (util::trim(line).empty()) {
        ++expect_blank;
      } else {
        ++expect_malformed;
      }
    }
    ASSERT_EQ(expect_accepted + expect_malformed + expect_blank,
              lines.size());

    // The batch reader must agree with the oracle, whatever the batch size.
    JsonStreamIngester ingester(1 + rng.next_below(16));
    std::istringstream in(stream);
    std::size_t batched = 0;
    while (true) {
      const std::vector<LogRecord> batch = ingester.read_batch(in);
      if (batch.empty()) break;
      batched += batch.size();
    }
    EXPECT_EQ(batched, expect_accepted) << "round " << round;
    EXPECT_EQ(ingester.stats().accepted, expect_accepted)
        << "round " << round;
    EXPECT_EQ(ingester.stats().malformed, expect_malformed)
        << "round " << round;

    total_accepted += expect_accepted;
    total_malformed += expect_malformed;
  }

  // The harness must actually exercise both outcomes (full run only — a
  // single replayed round cannot meet the volume floor).
  if (replay == nullptr) {
    EXPECT_GT(total_accepted, 500u);
    EXPECT_GT(total_malformed, 500u);
  }
}

TEST(IngestFuzz, HugeAndPathologicalLinesDoNotCrash) {
  util::Rng rng(util::kDefaultSeed ^ 0x9e3779b97f4a7c15ULL);
  // A few adversarial shapes no mutation walk is guaranteed to hit.
  std::vector<std::string> lines;
  lines.push_back(std::string(1 << 20, 'x'));                      // 1 MiB junk
  lines.push_back("{\"service\":\"" + std::string(1 << 18, 'a') +
                  "\",\"message\":\"big\"}");
  lines.push_back(std::string(5000, '{'));                         // nesting
  lines.push_back(std::string(5000, '['));
  lines.push_back("{\"service\":\"s\",\"message\":\"" +
                  std::string(2000, '\\') + "\"}");
  std::string unterminated = "{\"service\":\"s\",\"message\":\"m";
  lines.push_back(unterminated);
  for (int i = 0; i < 50; ++i) lines.push_back(random_text(rng, 2000));

  IngestStats stats;
  std::size_t non_blank = 0;
  for (const std::string& line : lines) {
    if (!util::trim(line).empty()) ++non_blank;
    const std::optional<LogRecord> record =
        JsonStreamIngester::parse_and_count_line(line, stats);
    if (record.has_value()) {
      const std::optional<LogRecord> again =
          JsonStreamIngester::parse_line(record_to_json(*record));
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(*again, *record);
    }
  }
  EXPECT_EQ(stats.accepted + stats.malformed, non_blank);
}

// ---------------------------------------------------------------------------
// Decoder differential: parse_line against the DOM route.

/// The reference: parse_line as it was before the single-pass decoder —
/// util::json_parse of the trimmed line, then the two field checks.
std::optional<LogRecord> dom_parse_line(std::string_view line) {
  const std::string_view trimmed = util::trim(line);
  if (trimmed.empty()) return std::nullopt;
  const util::JsonParseResult parsed = util::json_parse(trimmed);
  if (!parsed.ok() || !parsed.value.is_object()) return std::nullopt;
  const util::Json* service = parsed.value.find("service");
  const util::Json* message = parsed.value.find("message");
  if (service == nullptr || message == nullptr || !service->is_string() ||
      !message->is_string()) {
    return std::nullopt;
  }
  return LogRecord{service->as_string(), message->as_string()};
}

/// Field text: quotes, backslashes, control bytes, DEL, NUL, multi-byte
/// and invalid UTF-8, and JSON punctuation.
std::string field_text(util::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "",     "a",    "sshd", "job 42 done", "\"", "\\", "/",  "\n",
      "\t",   "\r",   "\b",   "\f",          "\v", "\x01", "\x1f", "\x7f",
      std::string(1, '\0'),   "\xc3\xa9",    "\xe2\x82\xac", "\xf0\x9f\x98\x80",
      "\xff", "\x80", "{}",   "[1,2]",       ":",  ",",    " "};
  std::string out;
  const std::size_t n = rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) out += rng.choice(kPieces);
  return out;
}

/// A JSON string literal for `raw`, escaped differently from
/// record_to_json: optional \/ and \u escapes (either hex case) of
/// ordinary characters, and now and then an unpaired or paired UTF-16
/// surrogate escape, which the DOM decodes one code unit at a time.
std::string quoted(std::string_view raw, util::Rng& rng) {
  static const std::vector<std::string> kSurrogates = {
      "\\uD83D", "\\udE00", "\\uD83D\\uDE00", "\\uDBFF", "\\uDC00"};
  std::string out = "\"";
  for (const char ch : raw) {
    const auto c = static_cast<unsigned char>(ch);
    const bool must = c < 0x20 || c == '"' || c == '\\';
    if (rng.chance(0.02)) out += rng.choice(kSurrogates);
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
  if (rng.chance(0.05)) out += rng.choice(kSurrogates);
  return out + "\"";
}

/// Whitespace as util::is_space reads it: JSON's four plus \v and \f.
std::string ws(util::Rng& rng) {
  static const std::vector<std::string> kSpaces = {" ", "\t", "\n", "\r",
                                                   "\v", "\f"};
  std::string out;
  if (rng.chance(0.7)) return out;
  const std::size_t n = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < n; ++i) out += rng.choice(kSpaces);
  return out;
}

/// `n` nested arrays or objects around a scalar: probes the depth cap.
std::string nested(util::Rng& rng, std::size_t n) {
  if (rng.chance(0.5)) return std::string(n, '[') + "1" + std::string(n, ']');
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += "{\"k\":";
  return out + "null" + std::string(n, '}');
}

/// Any JSON value; `depth` bounds the nesting it adds.
std::string any_value(util::Rng& rng, int depth) {
  static const std::vector<std::string> kNumbers = {
      "0", "-1", "42", "1.5", "-0.25", "1e5", "1E+5", "2e-3", "007",
      "123456789012345678901234567890"};
  switch (rng.next_below(depth > 0 ? 8 : 6)) {
    case 0: return "true";
    case 1: return "false";
    case 2: return "null";
    case 3: return rng.choice(kNumbers);
    case 4:
    case 5: return quoted(field_text(rng), rng);
    case 6: {
      std::string out = "[" + ws(rng);
      const std::size_t n = rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += "," + ws(rng);
        out += any_value(rng, depth - 1) + ws(rng);
      }
      return out + "]";
    }
    default: {
      std::string out = "{";
      const std::size_t n = rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) out += ",";
        out += ws(rng) + quoted(field_text(rng), rng) + ws(rng) + ":" +
               ws(rng) + any_value(rng, depth - 1);
      }
      return out + ws(rng) + "}";
    }
  }
}

/// One record document: service and message (usually strings), unknown
/// keys of every JSON type — some nested up to and past the cap — and
/// duplicates whose last copy may not be a string, in random order with
/// keys sometimes \u-escaped. Now and then the top level is no object.
std::string record_document(util::Rng& rng) {
  if (rng.chance(0.05)) return ws(rng) + any_value(rng, 2) + ws(rng);
  std::vector<std::pair<std::string, std::string>> fields;
  const auto field_value = [&] {
    return rng.chance(0.9) ? quoted(field_text(rng), rng) : any_value(rng, 2);
  };
  if (rng.chance(0.95)) fields.emplace_back("service", field_value());
  if (rng.chance(0.95)) fields.emplace_back("message", field_value());
  static const std::vector<std::string> kUnknown = {
      "k", "Service", "messages", "", "servic", "service\x01", "\xc3\xa9"};
  const std::size_t unknown = rng.chance(0.4) ? 1 + rng.next_below(3) : 0;
  for (std::size_t i = 0; i < unknown; ++i) {
    fields.emplace_back(rng.choice(kUnknown),
                        rng.chance(0.1) ? nested(rng, 125 + rng.next_below(6))
                                        : any_value(rng, 3));
  }
  if (!fields.empty() && rng.chance(0.3)) {
    auto dup = fields[rng.next_below(fields.size())];
    dup.second = field_value();
    fields.push_back(std::move(dup));
  }
  for (std::size_t i = fields.size(); i > 1; --i) {
    std::swap(fields[i - 1], fields[rng.next_below(i)]);
  }
  std::string out = ws(rng) + "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += ws(rng) + quoted(fields[i].first, rng) + ws(rng) + ":" + ws(rng) +
           fields[i].second + ws(rng);
  }
  return out + "}" + ws(rng);
}

/// Byte mutations: truncation, deletion, insertion of a JSON-significant
/// or hostile byte (control bytes, bad escapes), and trailing bytes.
void damage(std::string& doc, util::Rng& rng) {
  static const std::vector<std::string> kInserts = {
      "\"", "\\", "{", "}", "[", "]", ",", ":", "0", "-", ".", "e",
      "t",  "f",  "n", "u", " ", "\v", "\f", std::string(1, '\0'), "\x01",
      "\x1f", "\xff", "\\q", "\\u12G4", "\\u00", "\\uD83D", "\\u0073"};
  static const std::vector<std::string> kTrailing = {"x", " ", "}", "{}",
                                                     "\f", ",", "0", "\""};
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

TEST(IngestFuzz, DecoderMatchesDomRoute) {
  const char* replay = std::getenv("SEQRTG_FUZZ_SEED");
  const int rounds = replay != nullptr ? 1 : 400;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed =
        replay != nullptr ? std::strtoull(replay, nullptr, 0)
                          : round_seed(round) ^ 0xdec0de;
    SCOPED_TRACE("repro: SEQRTG_FUZZ_SEED=" + std::to_string(seed) +
                 " ./ingest_fuzz_test");
    util::Rng rng(seed);
    for (int doc_index = 0; doc_index < 20; ++doc_index) {
      std::string doc = record_document(rng);
      if (rng.chance(0.4)) {
        const std::size_t edits = 1 + rng.next_below(3);
        for (std::size_t e = 0; e < edits; ++e) damage(doc, rng);
      }
      const std::optional<LogRecord> got = JsonStreamIngester::parse_line(doc);
      const std::optional<LogRecord> want = dom_parse_line(doc);
      ASSERT_EQ(got.has_value(), want.has_value()) << "document: " << doc;
      if (want.has_value()) {
        ASSERT_EQ(*got, *want) << "document: " << doc;
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  // Both verdicts must be exercised in volume (full run only).
  if (replay == nullptr) {
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
  }
}

TEST(IngestFuzz, DecoderEdgeCasesMatchDomRoute) {
  const std::string deep_ok = "{\"x\":" + std::string(127, '[') + "1" +
                              std::string(127, ']') +
                              ",\"service\":\"s\",\"message\":\"m\"}";
  const std::string deep_bad = "{\"x\":" + std::string(128, '[') + "1" +
                               std::string(128, ']') +
                               ",\"service\":\"s\",\"message\":\"m\"}";
  const std::vector<std::string> cases = {
      "{\"service\":\"s\",\"message\":\"m\"}",
      "\v\f {\"message\":\"m\",\"service\":\"s\"} \f\v",
      "{\"service\":\"a\",\"service\":\"b\",\"message\":\"m\"}",
      "{\"service\":\"a\",\"message\":\"m\",\"service\":1}",
      "{\"service\":1,\"message\":\"m\",\"service\":\"b\"}",
      "{\"\\u0073ervice\":\"s\",\"mess\\u0061ge\":\"\\uD83D\\uDE00\"}",
      "{\"service\":\"\\ud800\",\"message\":\"\\u0000\"}",
      "{\"service\":\"s\",\"message\":\"m\",\"x\":[1,{\"y\":null},true]}",
      deep_ok,
      deep_bad,
      "{\"service\":\"s\",\"message\":\"m\"} x",
      "{\"service\":\"s\",\"message\":\"m\"",
      "{\"service\":\"s\",\"message\":\"a\tb\"}",
      "{\"service\":\"s\",\"message\":\"m\",}",
      "[{\"service\":\"s\",\"message\":\"m\"}]",
      "\"service\"",
      "{}",
      "{\"service\":\"s\",\"message\":null}",
      "{\"service\":\"s\",\"message\":\"m\",\"n\":-}",
      "{\"service\":\"s\",\"message\":\"m\",\"n\":1.}",
      "{\"service\":\"s\",\"message\":\"m\",\"n\":01e+9}",
      "{\"service\":\"s\",\"message\":\"\\x\"}",
  };
  for (const std::string& doc : cases) {
    const std::optional<LogRecord> got = JsonStreamIngester::parse_line(doc);
    const std::optional<LogRecord> want = dom_parse_line(doc);
    ASSERT_EQ(got.has_value(), want.has_value()) << "document: " << doc;
    if (want.has_value()) {
      EXPECT_EQ(*got, *want) << "document: " << doc;
    }
  }
  EXPECT_TRUE(JsonStreamIngester::parse_line(deep_ok).has_value());
  EXPECT_FALSE(JsonStreamIngester::parse_line(deep_bad).has_value());
}

}  // namespace
}  // namespace seqrtg::core
