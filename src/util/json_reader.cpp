#include "util/json_reader.hpp"

namespace seqrtg::util {

namespace {

int hex_value(char h) {
  if (h >= '0' && h <= '9') return h - '0';
  if (h >= 'a' && h <= 'f') return h - 'a' + 10;
  if (h >= 'A' && h <= 'F') return h - 'A' + 10;
  return -1;
}

/// util::json_parse's \u handling: one code unit, no surrogate pairing.
void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

}  // namespace

bool JsonReader::digits() {
  const std::size_t start = pos_;
  while (pos_ < in_.size() && is_digit(in_[pos_])) ++pos_;
  return pos_ > start;
}

bool JsonReader::number() {
  consume('-');
  if (!digits()) return false;
  if (consume('.') && !digits()) return false;
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    if (!digits()) return false;
  }
  return true;
}

bool JsonReader::read_string(std::string_view& value) {
  const std::size_t start = ++pos_;
  while (pos_ < in_.size()) {
    const auto c = static_cast<unsigned char>(in_[pos_]);
    if (c == '"') {
      value = in_.substr(start, pos_++ - start);
      return true;
    }
    if (c == '\\') break;
    if (c < 0x20) return false;
    ++pos_;
  }
  unescaped_.assign(in_.data() + start, pos_ - start);
  while (pos_ < in_.size()) {
    const char c = in_[pos_++];
    if (c == '"') {
      value = unescaped_;
      return true;
    }
    if (static_cast<unsigned char>(c) < 0x20) return false;
    if (c != '\\') {
      unescaped_ += c;
      continue;
    }
    if (pos_ >= in_.size()) return false;
    switch (in_[pos_++]) {
      case '"': unescaped_ += '"'; break;
      case '\\': unescaped_ += '\\'; break;
      case '/': unescaped_ += '/'; break;
      case 'b': unescaped_ += '\b'; break;
      case 'f': unescaped_ += '\f'; break;
      case 'n': unescaped_ += '\n'; break;
      case 'r': unescaped_ += '\r'; break;
      case 't': unescaped_ += '\t'; break;
      case 'u': {
        if (pos_ + 4 > in_.size()) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const int h = hex_value(in_[pos_++]);
          if (h < 0) return false;
          code = (code << 4) | static_cast<unsigned>(h);
        }
        append_utf8(unescaped_, code);
        break;
      }
      default: return false;
    }
  }
  return false;
}

bool JsonReader::skip_value(int depth) {
  if (depth > kMaxDepth || pos_ >= in_.size()) return false;
  std::string_view ignored;
  switch (in_[pos_]) {
    case '"': return read_string(ignored);
    case 't': return keyword("true");
    case 'f': return keyword("false");
    case 'n': return keyword("null");
    case '[':
      ++pos_;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        skip_ws();
        if (!skip_value(depth + 1)) return false;
        skip_ws();
        if (consume(']')) return true;
        if (!consume(',')) return false;
      }
    case '{':
      ++pos_;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        if (!at('"') || !read_string(ignored)) return false;
        skip_ws();
        if (!consume(':')) return false;
        skip_ws();
        if (!skip_value(depth + 1)) return false;
        skip_ws();
        if (consume('}')) return true;
        if (!consume(',')) return false;
      }
    default: return number();
  }
}

}  // namespace seqrtg::util
