// Robustness property tests: the scanner, JSON parser and XML reader sit
// on untrusted input paths (log payloads arrive from every daemon in the
// fleet), so none of them may crash, hang or mis-account on arbitrary
// bytes. Seeds are fixed; each case runs thousands of random inputs.
#include <gtest/gtest.h>

#include <string>

#include "core/pattern.hpp"
#include "core/scanner.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/xml.hpp"

namespace seqrtg {
namespace {

/// Random byte string (full range, including NUL and high bytes).
std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.next_below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.next_below(256));
  }
  return out;
}

/// Random printable ASCII string with word structure.
std::string random_printable(util::Rng& rng, std::size_t max_len) {
  static constexpr char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789 .:/-_=[]{}()<>@%|\"'\\,;!?#&*+~^";
  const std::size_t len = rng.next_below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kChars[rng.next_below(sizeof(kChars) - 1)];
  }
  return out;
}

TEST(ScannerFuzz, ArbitraryBytesNeverCrash) {
  util::Rng rng(0xF00D);
  const core::Scanner scanner;
  for (int i = 0; i < 3000; ++i) {
    const std::string msg = random_bytes(rng, 300);
    const auto tokens = scanner.scan(msg);
    // Tokens (minus a possible Rest marker) never out-number the bytes.
    EXPECT_LE(tokens.size(), msg.size() + 1);
  }
}

TEST(ScannerFuzz, TokenValuesCoverOnlyMessageBytes) {
  // The concatenated token text must be reconstructible from the message:
  // every token value appears in order within the original message.
  util::Rng rng(0xBEEF);
  const core::Scanner scanner;
  for (int i = 0; i < 2000; ++i) {
    std::string msg = random_printable(rng, 200);
    // Single-line property (multi-line truncates by design).
    for (char& c : msg) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    std::size_t cursor = 0;
    for (const core::Token& t : scanner.scan(msg)) {
      if (t.type == core::TokenType::Rest) continue;
      const std::size_t found = msg.find(t.value, cursor);
      ASSERT_NE(found, std::string::npos)
          << "token '" << t.value << "' not found in '" << msg << "'";
      cursor = found + t.value.size();
    }
  }
}

TEST(ScannerFuzz, MaxTokenGuardBoundsOutput) {
  core::ScannerOptions opts;
  opts.max_tokens = 16;
  const core::Scanner scanner(opts);
  util::Rng rng(0xCAFE);
  for (int i = 0; i < 500; ++i) {
    // The message must outlive the tokens: token values view its bytes.
    const std::string msg = random_printable(rng, 2000);
    const auto tokens = scanner.scan(msg);
    EXPECT_LE(tokens.size(), 17u);  // 16 + Rest marker
  }
}

TEST(JsonFuzz, ArbitraryBytesNeverCrash) {
  util::Rng rng(0x1234);
  for (int i = 0; i < 5000; ++i) {
    const std::string doc = random_bytes(rng, 200);
    const auto result = util::json_parse(doc);
    // Either parses or reports an error; both must terminate.
    if (!result.ok()) {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(JsonFuzz, TruncationsOfValidDocumentNeverCrash) {
  const std::string doc =
      R"({"service":"sshd","message":"a \"b\" é [1,2,{\"x\":null}]",)"
      R"("nested":{"arr":[true,false,1.5e3],"s":"t"}})";
  for (std::size_t cut = 0; cut <= doc.size(); ++cut) {
    const auto result = util::json_parse(doc.substr(0, cut));
    if (cut == doc.size()) {
      EXPECT_TRUE(result.ok());
    } else {
      EXPECT_FALSE(result.ok()) << "cut at " << cut;
    }
  }
}

TEST(XmlFuzz, ArbitraryBytesNeverCrash) {
  util::Rng rng(0xD00D);
  for (int i = 0; i < 5000; ++i) {
    (void)util::xml_parse(random_bytes(rng, 200));
  }
}

TEST(XmlFuzz, TruncationsOfValidDocumentNeverCrash) {
  const std::string doc =
      "<?xml version=\"1.0\"?><a x=\"1\"><!-- c --><b>t&amp;t</b><c/></a>";
  for (std::size_t cut = 0; cut <= doc.size(); ++cut) {
    const auto result = util::xml_parse(doc.substr(0, cut));
    if (cut == doc.size()) {
      EXPECT_TRUE(result.ok());
    }
  }
}

TEST(PatternTextFuzz, ParsePatternTextNeverCrashes) {
  util::Rng rng(0xABCD);
  for (int i = 0; i < 3000; ++i) {
    (void)core::parse_pattern_text(random_printable(rng, 120));
  }
}

TEST(PatternTextFuzz, PercentLimitationReproduced) {
  // Paper §IV: "log messages that contain fields delimited by the % sign,
  // which Sequence uses to delimit its tokens. If these remain in the
  // pattern as static text, unfortunately they will cause an unknown tag
  // error at parsing time." A stray '%' makes the text form unparseable.
  EXPECT_FALSE(core::parse_pattern_text("load 100% done").has_value());
  EXPECT_FALSE(core::parse_pattern_text("93% %integer%").has_value());
}

}  // namespace
}  // namespace seqrtg
