#include "store/token_codec.hpp"

#include <cstdint>

#include "util/strings.hpp"

namespace seqrtg::store {

namespace {

/// util::json_escape, appended in place: runs of bytes that need no escape
/// are copied with one append.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
}

/// util::json_parse's nesting cap: a value inside more than this many
/// arrays/objects is rejected.
constexpr int kMaxDepth = 128;

/// Nesting depth of a token object's values (top array, token object).
constexpr int kFieldDepth = 2;

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

/// Single-pass decoder of the token-list wire form. Every grammar rule
/// mirrors util::json_parse so the accept/reject verdict is the same.
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  bool decode(std::vector<core::PatternToken>& out) {
    skip_ws();
    if (!consume('[')) return false;
    skip_ws();
    if (!consume(']')) {
      while (true) {
        skip_ws();
        if (!at('{')) return false;
        if (!read_token(out.emplace_back())) return false;
        skip_ws();
        if (consume(']')) break;
        if (!consume(',')) return false;
      }
    }
    skip_ws();
    return pos_ == in_.size();
  }

 private:
  bool at(char c) const { return pos_ < in_.size() && in_[pos_] == c; }

  bool consume(char c) {
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < in_.size() && util::is_space(in_[pos_])) ++pos_;
  }

  bool keyword(std::string_view word) {
    if (in_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < in_.size() && util::is_digit(in_[pos_])) ++pos_;
    return pos_ > start;
  }

  bool number() {
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

  /// Reads the string whose opening quote is at pos_. An escape-free
  /// string comes back as a view into the input; any other is decoded
  /// into unescaped_, so `value` is valid until the next read_string.
  bool read_string(std::string_view& value) {
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

  /// Validates and skips any JSON value; `depth` counts the arrays and
  /// objects around it.
  bool skip_value(int depth) {
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

  /// A "v"/"s" field: `slot` becomes 0/1 for a boolean, -1 otherwise.
  bool read_bool(int& slot) {
    if (at('t') || at('f')) {
      slot = at('t') ? 1 : 0;
      return keyword(slot == 1 ? "true" : "false");
    }
    slot = -1;
    return skip_value(kFieldDepth);
  }

  /// A "t"/"n"/"x" field: copied into `target` when it is a string.
  bool read_text(std::string& target, bool& is_string) {
    is_string = at('"');
    if (!is_string) return skip_value(kFieldDepth);
    std::string_view value;
    if (!read_string(value)) return false;
    target.assign(value.data(), value.size());
    return true;
  }

  bool read_token(core::PatternToken& token) {
    ++pos_;  // '{'
    int variable = -1;
    int space = -1;
    bool has_tag = false;
    bool has_name = false;
    bool has_text = false;
    skip_ws();
    if (!consume('}')) {
      while (true) {
        skip_ws();
        std::string_view key;
        if (!at('"') || !read_string(key)) return false;
        // The key may live in unescaped_, which the value read reuses.
        const char k = key.size() == 1 ? key[0] : '\0';
        skip_ws();
        if (!consume(':')) return false;
        skip_ws();
        bool ok = false;
        switch (k) {
          case 'v': ok = read_bool(variable); break;
          case 's': ok = read_bool(space); break;
          case 't': ok = read_text(tag_, has_tag); break;
          case 'n': ok = read_text(token.name, has_name); break;
          case 'x': ok = read_text(token.text, has_text); break;
          default: ok = skip_value(kFieldDepth);
        }
        if (!ok) return false;
        skip_ws();
        if (consume('}')) break;
        if (!consume(',')) return false;
      }
    }
    if (variable < 0 || space < 0) return false;
    token.is_variable = variable == 1;
    token.is_space_before = space == 1;
    if (!token.is_variable) {
      token.name.clear();
      return has_text;
    }
    token.text.clear();
    if (!has_name) token.name.clear();
    token.var_type = has_tag ? core::token_type_from_tag(tag_)
                             : core::TokenType::String;
    if (token.var_type == core::TokenType::Literal) {
      token.var_type = core::TokenType::String;
    }
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string unescaped_;
  std::string tag_;
};

/// Smallest encoded token (`{"s":true,"v":false,"x":""}`): bounds the
/// decoder's up-front reserve by the input size.
constexpr std::size_t kMinTokenBytes = 27;

}  // namespace

std::string pattern_tokens_to_json(
    const std::vector<core::PatternToken>& tokens) {
  std::size_t estimate = 2;
  for (const core::PatternToken& t : tokens) {
    estimate += 40 + t.name.size() + t.text.size();
  }
  std::string out;
  out.reserve(estimate);
  out += '[';
  for (const core::PatternToken& t : tokens) {
    if (out.size() > 1) out += ',';
    const char* space = t.is_space_before ? "true" : "false";
    if (t.is_variable) {
      out += "{\"n\":\"";
      append_escaped(out, t.name);
      out += "\",\"s\":";
      out += space;
      out += ",\"t\":\"";
      append_escaped(out, core::token_type_tag(t.var_type));
      out += "\",\"v\":true}";
    } else {
      out += "{\"s\":";
      out += space;
      out += ",\"v\":false,\"x\":\"";
      append_escaped(out, t.text);
      out += "\"}";
    }
  }
  out += ']';
  return out;
}

std::optional<std::vector<core::PatternToken>> pattern_tokens_from_json(
    std::string_view json) {
  std::vector<core::PatternToken> out;
  out.reserve(json.size() / kMinTokenBytes);
  if (!Decoder(json).decode(out)) return std::nullopt;
  return out;
}

}  // namespace seqrtg::store
