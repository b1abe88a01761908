// Differential suite for the vectorised byte-class tokeniser (ISSUE 7):
// the scalar and AVX2 TokenBoundaryMap kernels must be bit-identical
// over the full 0-255 byte range, and a Scanner pinned to each dispatch
// level must emit byte-identical token streams. Levels above what the host
// CPU supports are clamped by override_simd_level(), so on a scalar-only
// machine every section degenerates to scalar-vs-scalar and still passes.
#include "util/simd_classify.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/scanner.hpp"
#include "core/token.hpp"
#include "loggen/corpus.hpp"
#include "util/byteclass.hpp"
#include "util/cpuid.hpp"
#include "util/rng.hpp"

namespace seqrtg {
namespace {

using core::Scanner;
using core::Token;
using util::SimdLevel;
using util::TokenBoundaryMap;

constexpr std::array<SimdLevel, 2> kLevels = {SimdLevel::kScalar,
                                              SimdLevel::kAvx2};

/// Restores the ambient dispatch decision when a test scope ends, even on
/// assertion failure.
struct SimdOverrideGuard {
  ~SimdOverrideGuard() { util::reset_simd_override(); }
};

/// Random bytes spanning the whole 0-255 range: the SIMD kernels use signed
/// compares and pshufb (which zeroes high-bit lanes), so bytes >= 0x80 are
/// exactly the inputs where a wrong kernel would diverge from the table.
std::string random_bytes(util::Rng& rng, std::size_t len) {
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.next_below(256));
  }
  return out;
}

/// Compares a built map against the scalar byte-class table, bit for bit:
/// boundary bit, digit bit (via single-byte any_digit) and next_delim from
/// every start position.
void expect_map_matches_table(const TokenBoundaryMap& map,
                              std::string_view text, const char* label) {
  ASSERT_EQ(map.size(), text.size()) << label;
  std::size_t expected_next = text.size();
  for (std::size_t i = text.size(); i-- > 0;) {
    const std::uint8_t cls = util::byte_class(text[i]);
    const bool delim = (cls & util::kByteDelim) != 0;
    const bool digit = (cls & util::kByteDigit) != 0;
    ASSERT_EQ(map.is_delim(i), delim) << label << " boundary bit @" << i;
    ASSERT_EQ(map.any_digit(i, i + 1), digit) << label << " digit bit @" << i;
    ASSERT_EQ(map.all_digits(i, i + 1), digit)
        << label << " digit bit @" << i;
    if (delim) expected_next = i;
    ASSERT_EQ(map.next_delim(i), expected_next) << label << " next @" << i;
  }
}

TEST(SimdEquivalence, AllKernelsMatchScalarTableOnRandomBytes) {
  util::Rng rng(util::kDefaultSeed);
  TokenBoundaryMap map;
  for (int round = 0; round < 200; ++round) {
    const std::string text = random_bytes(rng, rng.next_below(300));
    for (const SimdLevel level : kLevels) {
      map.build(text, level);
      expect_map_matches_table(map, text,
                               util::simd_level_name(level));
    }
  }
}

TEST(SimdEquivalence, VectorBlockBoundaryLengths) {
  // Exact lengths around the 16/32/64-byte kernel block sizes, where the
  // SIMD main loop hands off to the scalar tail.
  util::Rng rng(util::kDefaultSeed ^ 0xB10C);
  TokenBoundaryMap map;
  for (const std::size_t len :
       {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 47u, 48u, 63u, 64u, 65u, 95u,
        96u, 127u, 128u, 129u, 191u, 192u, 193u}) {
    const std::string text = random_bytes(rng, len);
    for (const SimdLevel level : kLevels) {
      map.build(text, level);
      expect_map_matches_table(map, text, util::simd_level_name(level));
    }
  }
}

TEST(SimdEquivalence, CapacityReuseAcrossShrinkingMessages) {
  // A map warmed by a long message keeps its word capacity; bits of the old
  // message beyond the new length must never leak into range queries.
  util::Rng rng(util::kDefaultSeed ^ 0x5124);
  TokenBoundaryMap map;
  for (const SimdLevel level : kLevels) {
    map.build(std::string(257, '1'), level);  // all digit bits set, 5 words
    const std::string text = random_bytes(rng, 70);
    map.build(text, level);
    expect_map_matches_table(map, text, util::simd_level_name(level));
  }
}

void expect_tokens_equal(const std::vector<Token>& a,
                         const std::vector<Token>& b, const std::string& msg) {
  ASSERT_EQ(a.size(), b.size()) << msg;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].type, b[i].type) << msg << " @" << i;
    ASSERT_EQ(a[i].value, b[i].value) << msg << " @" << i;
    ASSERT_EQ(a[i].is_space_before, b[i].is_space_before) << msg << " @" << i;
    ASSERT_EQ(a[i].key, b[i].key) << msg << " @" << i;
  }
}

TEST(SimdEquivalence, ScannerTokenStreamsIdenticalAcrossLevels) {
  SimdOverrideGuard guard;
  const Scanner scanner;
  core::TokenBuffer buf;
  for (const auto& spec : loggen::loghub_datasets()) {
    for (const std::string& m :
         loggen::generate_corpus(spec, 120, /*seed=*/0x51D).messages) {
      util::override_simd_level(SimdLevel::kScalar);
      const std::vector<Token> scalar = scanner.scan(m);
      util::override_simd_level(SimdLevel::kAvx2);
      scanner.scan_into(m, buf);
      expect_tokens_equal(scalar, buf.tokens(), spec.name + ": " + m);
    }
  }
}

TEST(SimdEquivalence, ScannerHandlesHostileBytesIdenticallyAcrossLevels) {
  // Raw fuzz input: NULs, newlines, high bytes, and delimiter runs. The
  // scanner truncates at line breaks, so streams may be short — they must
  // just be the *same* short stream at every level.
  SimdOverrideGuard guard;
  util::Rng rng(util::kDefaultSeed ^ 0xF022);
  const Scanner scanner;
  core::TokenBuffer buf;
  std::vector<std::string> messages = {
      std::string("\0\0with embedded\0nuls", 19),
      "line one\nline two\r\nline three",
      "\n",
      std::string(200, ':'),
      "caf\xc3\xa9 r\xc3\xa9sum\xc3\xa9 \xff\xfe\x80 high bytes",
  };
  for (int round = 0; round < 150; ++round) {
    messages.push_back(random_bytes(rng, rng.next_below(260)));
  }
  for (const std::string& m : messages) {
    util::override_simd_level(SimdLevel::kScalar);
    const std::vector<Token> scalar = scanner.scan(m);
    util::override_simd_level(SimdLevel::kAvx2);
    scanner.scan_into(m, buf);
    expect_tokens_equal(scalar, buf.tokens(), "fuzz message");
  }
}

TEST(SimdEquivalence, ReconstructIdenticalAtEveryLevel) {
  // reconstruct() is canonicalising (runs of spaces render as one), so the
  // invariant is that every dispatch level reconstructs the *same* string,
  // not necessarily the original bytes.
  SimdOverrideGuard guard;
  const Scanner scanner;
  core::TokenBuffer buf;
  for (const auto& spec : loggen::loghub_datasets()) {
    for (const std::string& m :
         loggen::generate_corpus(spec, 60, /*seed=*/0x1D).messages) {
      util::override_simd_level(SimdLevel::kScalar);
      scanner.scan_into(m, buf);
      const std::string scalar = core::reconstruct(buf.tokens());
      util::override_simd_level(SimdLevel::kAvx2);
      scanner.scan_into(m, buf);
      EXPECT_EQ(core::reconstruct(buf.tokens()), scalar) << m;
    }
  }
}

}  // namespace
}  // namespace seqrtg
