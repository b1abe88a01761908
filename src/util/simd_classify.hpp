// Vectorised token-boundary classification.
//
// The scanner's inner loops used to walk the message one byte at a time
// asking "is this whitespace or break punctuation?". TokenBoundaryMap
// answers that for the whole message in one pass: 32-byte loads are
// classified against the shared byte-class table (via pshufb nibble LUTs
// derived from it at compile time) and compressed with movemask into one
// boundary bit per byte. The scanner then finds chunk ends branchlessly
// with ctz over the bitmap instead of a per-character predicate loop.
//
// The same pass also emits a digit bitmap (one bit per ASCII '0'-'9'
// byte), so the scanner's dominant chunk classifications — "no digit at
// all" (a plain word: Literal) and "all digits" (Integer) — become one or
// two masked word tests instead of a per-byte accumulation loop.
//
// The AVX2 (32-byte) and scalar kernels produce bit-identical maps — the
// SIMD LUTs are *generated from* the scalar table (util/byteclass.hpp), and
// the equivalence is fuzzed over the full 0-255 byte range in
// tests/core/simd_equivalence_test.cpp.
//
// Reuse: build() keeps the word vector's capacity, so a thread-local map
// reused across messages allocates nothing in steady state (same contract
// as TokenBuffer).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/byteclass.hpp"
#include "util/cpuid.hpp"

namespace seqrtg::util {

class TokenBoundaryMap {
 public:
  /// Classifies `text`: bit i (word i/64, bit i%64) is set when byte i is
  /// a token boundary (kByteDelim: whitespace or break punctuation). Bits
  /// past the text length are zero.
  void build(std::string_view text) { build(text, simd_level()); }
  void build(std::string_view text, SimdLevel level);

  /// First position >= `pos` whose boundary bit is set; size() when none.
  std::size_t next_delim(std::size_t pos) const {
    if (pos >= size_) return size_;
    std::size_t w = pos >> 6;
    std::uint64_t word = words_[w] & (~std::uint64_t{0} << (pos & 63));
    // word_count_, not words_.size(): the vector keeps its capacity across
    // build() calls, so trailing words may hold bits of a previous, longer
    // message.
    while (word == 0) {
      if (++w == word_count_) return size_;
      word = words_[w];
    }
    return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  }

  bool is_delim(std::size_t pos) const {
    return (words_[pos >> 6] >> (pos & 63)) & 1;
  }

  /// True when any byte in [begin, end) is an ASCII digit. Requires
  /// begin < end <= size().
  bool any_digit(std::size_t begin, std::size_t end) const {
    const std::size_t wb = begin >> 6;
    const std::size_t we = (end - 1) >> 6;
    const std::uint64_t head = ~std::uint64_t{0} << (begin & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (wb == we) return (digits_[wb] & head & tail) != 0;
    if ((digits_[wb] & head) != 0) return true;
    for (std::size_t w = wb + 1; w < we; ++w) {
      if (digits_[w] != 0) return true;
    }
    return (digits_[we] & tail) != 0;
  }

  /// True when every byte in [begin, end) is an ASCII digit. Requires
  /// begin < end <= size().
  bool all_digits(std::size_t begin, std::size_t end) const {
    const std::size_t wb = begin >> 6;
    const std::size_t we = (end - 1) >> 6;
    const std::uint64_t head = ~std::uint64_t{0} << (begin & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (wb == we) {
      const std::uint64_t want = head & tail;
      return (digits_[wb] & want) == want;
    }
    if ((digits_[wb] & head) != head) return false;
    for (std::size_t w = wb + 1; w < we; ++w) {
      if (digits_[w] != ~std::uint64_t{0}) return false;
    }
    return (digits_[we] & tail) == tail;
  }

  /// Length of the classified text.
  std::size_t size() const { return size_; }

 private:
  std::vector<std::uint64_t> words_;    // boundary bits
  std::vector<std::uint64_t> digits_;   // ASCII-digit bits
  std::size_t size_ = 0;
  std::size_t word_count_ = 0;  // live words for the current text
};

}  // namespace seqrtg::util
