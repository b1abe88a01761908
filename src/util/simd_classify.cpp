#include "util/simd_classify.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SEQRTG_X86 1
#endif

namespace seqrtg::util {

namespace {

/// pshufb nibble LUTs for kByteDelim membership, derived from the scalar
/// byte-class table at compile time so the two can never diverge.
///
/// Scheme (simdjson-style shuffle lookup): every distinct high nibble among
/// the delimiter bytes gets one bit; hi[h] carries that bit, lo[l] carries
/// the bits of all groups that contain low nibble l. A byte c is a
/// delimiter iff (lo[c & 15] & hi[c >> 4]) != 0. Exact because a bit is
/// set in both LUTs only for (hi, lo) pairs that name a delimiter byte.
/// Bytes >= 0x80 classify as non-delimiters: pshufb zeroes lanes whose
/// index has the high bit set, and the static_assert below guarantees the
/// delimiter set is pure ASCII.
struct NibbleLuts {
  std::uint8_t lo[16] = {};
  std::uint8_t hi[16] = {};
};

constexpr NibbleLuts make_delim_luts() {
  NibbleLuts luts;
  std::uint8_t group_bit[16] = {};  // hi nibble -> assigned bit (0 = none)
  int groups = 0;
  for (unsigned c = 0; c < 256; ++c) {
    if ((kByteClassTable[c] & kByteDelim) == 0) continue;
    if (c >= 0x80) return NibbleLuts{};  // poisoned; caught by static_assert
    const unsigned hi = c >> 4;
    if (group_bit[hi] == 0) {
      if (groups >= 8) return NibbleLuts{};
      group_bit[hi] = static_cast<std::uint8_t>(1u << groups);
      ++groups;
      luts.hi[hi] = group_bit[hi];
    }
    luts.lo[c & 15] = static_cast<std::uint8_t>(luts.lo[c & 15] | group_bit[hi]);
  }
  return luts;
}

inline constexpr NibbleLuts kDelimLuts = make_delim_luts();

constexpr bool luts_match_table() {
  for (unsigned c = 0; c < 256; ++c) {
    const bool table = (kByteClassTable[c] & kByteDelim) != 0;
    const bool lut =
        c < 0x80 && (kDelimLuts.lo[c & 15] & kDelimLuts.hi[c >> 4]) != 0;
    if (table != lut) return false;
  }
  return true;
}

static_assert(luts_match_table(),
              "delimiter nibble LUTs diverge from kByteClassTable (more "
              "than 8 high-nibble groups, or a non-ASCII delimiter?)");

/// One 64-byte block's worth of classification bits.
struct Masks64 {
  std::uint64_t delim = 0;
  std::uint64_t digit = 0;
};

/// Scalar kernel: also the tail handler for the SIMD kernels, so all paths
/// share one definition of "boundary" and "digit".
inline Masks64 classify64_scalar(const char* data, std::size_t n) {
  Masks64 m;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t cls = byte_class(data[i]);
    if (cls & kByteDelim) m.delim |= std::uint64_t{1} << i;
    if (cls & kByteDigit) m.digit |= std::uint64_t{1} << i;
  }
  return m;
}

void build_scalar(const char* data, std::size_t n, std::uint64_t* words,
                  std::uint64_t* digits) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; i += 64, ++w) {
    const Masks64 m = classify64_scalar(data + i, n - i < 64 ? n - i : 64);
    words[w] = m.delim;
    digits[w] = m.digit;
  }
}

#ifdef SEQRTG_X86

/// One 32-byte block's worth of classification bits.
struct Masks32 {
  std::uint32_t delim = 0;
  std::uint32_t digit = 0;
};

__attribute__((target("avx2"))) inline Masks32 classify32_avx2(
    const char* data) {
  const __m256i lo_lut = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kDelimLuts.lo)));
  const __m256i hi_lut = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kDelimLuts.hi)));
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
  // lo lookup indexes with the raw byte: pshufb zeroes lanes >= 0x80.
  const __m256i lo = _mm256_shuffle_epi8(lo_lut, _mm256_and_si256(v, nib));
  const __m256i hi = _mm256_shuffle_epi8(
      hi_lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), nib));
  const __m256i hit = _mm256_and_si256(lo, hi);
  const __m256i miss = _mm256_cmpeq_epi8(hit, _mm256_setzero_si256());
  // Digits are the contiguous range '0'..'9'; signed compares are exact
  // because the range sits below 0x80 (bytes >= 0x80 compare negative).
  const __m256i dig =
      _mm256_and_si256(_mm256_cmpgt_epi8(v, _mm256_set1_epi8('0' - 1)),
                       _mm256_cmpgt_epi8(_mm256_set1_epi8('9' + 1), v));
  Masks32 m;
  m.delim = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(miss));
  m.digit = static_cast<std::uint32_t>(_mm256_movemask_epi8(dig));
  return m;
}

__attribute__((target("avx2"))) void build_avx2(const char* data,
                                                std::size_t n,
                                                std::uint64_t* words,
                                                std::uint64_t* digits) {
  std::size_t i = 0;
  std::size_t w = 0;
  for (; i + 64 <= n; i += 64, ++w) {
    const Masks32 a = classify32_avx2(data + i);
    const Masks32 b = classify32_avx2(data + i + 32);
    words[w] = static_cast<std::uint64_t>(a.delim) |
               static_cast<std::uint64_t>(b.delim) << 32;
    digits[w] = static_cast<std::uint64_t>(a.digit) |
                static_cast<std::uint64_t>(b.digit) << 32;
  }
  if (i < n) {
    std::uint64_t delim_bits = 0;
    std::uint64_t digit_bits = 0;
    std::size_t shift = 0;
    if (i + 32 <= n) {
      const Masks32 m = classify32_avx2(data + i);
      delim_bits = m.delim;
      digit_bits = m.digit;
      i += 32;
      shift = 32;
    }
    if (i < n) {
      const Masks64 m = classify64_scalar(data + i, n - i);
      delim_bits |= m.delim << shift;
      digit_bits |= m.digit << shift;
    }
    words[w] = delim_bits;
    digits[w] = digit_bits;
  }
}

#endif  // SEQRTG_X86

}  // namespace

void TokenBoundaryMap::build(std::string_view text, SimdLevel level) {
  size_ = text.size();
  word_count_ = (size_ + 63) / 64;
  if (words_.size() < word_count_) {
    words_.resize(word_count_);
    digits_.resize(word_count_);
  }
  if (word_count_ == 0) return;
#ifdef SEQRTG_X86
  switch (level) {
    case SimdLevel::kAvx2:
      build_avx2(text.data(), size_, words_.data(), digits_.data());
      return;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  build_scalar(text.data(), size_, words_.data(), digits_.data());
}

}  // namespace seqrtg::util
