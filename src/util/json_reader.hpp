// Single-pass JSON reader: util::json_parse's grammar without a DOM.
//
// The hot decoders that read a fixed document shape — the store's token
// codec (store/token_codec.hpp) and the stream ingester's record decoder
// (core/ingest.hpp) — walk the bytes once with this cursor and copy out
// only the fields they keep. Every grammar rule mirrors util::json_parse,
// so a decoder built on it gives the DOM route's accept/reject verdict:
//
//   - whitespace is util::is_space (which, beyond JSON's four, also
//     admits \v and \f);
//   - strings reject raw control bytes and decode \u escapes one code
//     unit at a time, with no surrogate pairing;
//   - numbers are -?digits(.digits)?([eE][+-]?digits)?, leading zeros
//     allowed;
//   - a value inside more than kMaxDepth arrays/objects is rejected.
//
// The DOM (util/json.hpp) survives as the differential reference in
// tests/store/token_codec_test.cpp and tests/core/ingest_fuzz_test.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/strings.hpp"

namespace seqrtg::util {

class JsonReader {
 public:
  /// util::json_parse's nesting cap.
  static constexpr int kMaxDepth = 128;

  explicit JsonReader(std::string_view in) : in_(in) {}

  bool at(char c) const { return pos_ < in_.size() && in_[pos_] == c; }
  bool at_end() const { return pos_ == in_.size(); }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < in_.size() && is_space(in_[pos_])) ++pos_;
  }

  /// Consumes `word` (true/false/null) when the input continues with it.
  bool keyword(std::string_view word) {
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// Reads the string whose opening quote is at the cursor. An escape-free
  /// string comes back as a view into the input; any other is decoded
  /// into an internal buffer, so `value` is valid until the next call.
  bool read_string(std::string_view& value);

  /// Validates and skips any JSON value; `depth` counts the arrays and
  /// objects around it.
  bool skip_value(int depth);

 private:
  bool digits();
  bool number();

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string unescaped_;
};

}  // namespace seqrtg::util
