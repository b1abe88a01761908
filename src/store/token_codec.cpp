#include "store/token_codec.hpp"

#include <cstdint>

#include "util/json_reader.hpp"

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

/// Nesting depth of a token object's values (top array, token object).
constexpr int kFieldDepth = 2;

/// Single-pass decoder of the token-list wire form, on the shared reader
/// whose grammar mirrors util::json_parse (util/json_reader.hpp).
class Decoder {
 public:
  explicit Decoder(std::string_view in) : in_(in) {}

  bool decode(std::vector<core::PatternToken>& out) {
    in_.skip_ws();
    if (!in_.consume('[')) return false;
    in_.skip_ws();
    if (!in_.consume(']')) {
      while (true) {
        in_.skip_ws();
        if (!in_.at('{')) return false;
        if (!read_token(out.emplace_back())) return false;
        in_.skip_ws();
        if (in_.consume(']')) break;
        if (!in_.consume(',')) return false;
      }
    }
    in_.skip_ws();
    return in_.at_end();
  }

 private:
  /// A "v"/"s" field: `slot` becomes 0/1 for a boolean, -1 otherwise.
  bool read_bool(int& slot) {
    if (in_.at('t') || in_.at('f')) {
      slot = in_.at('t') ? 1 : 0;
      return in_.keyword(slot == 1 ? "true" : "false");
    }
    slot = -1;
    return in_.skip_value(kFieldDepth);
  }

  /// A "t"/"n"/"x" field: copied into `target` when it is a string.
  bool read_text(std::string& target, bool& is_string) {
    is_string = in_.at('"');
    if (!is_string) return in_.skip_value(kFieldDepth);
    std::string_view value;
    if (!in_.read_string(value)) return false;
    target.assign(value.data(), value.size());
    return true;
  }

  bool read_token(core::PatternToken& token) {
    in_.consume('{');
    int variable = -1;
    int space = -1;
    bool has_tag = false;
    bool has_name = false;
    bool has_text = false;
    in_.skip_ws();
    if (!in_.consume('}')) {
      while (true) {
        in_.skip_ws();
        std::string_view key;
        if (!in_.at('"') || !in_.read_string(key)) return false;
        // The key may live in the reader's buffer, which the value read
        // reuses.
        const char k = key.size() == 1 ? key[0] : '\0';
        in_.skip_ws();
        if (!in_.consume(':')) return false;
        in_.skip_ws();
        bool ok = false;
        switch (k) {
          case 'v': ok = read_bool(variable); break;
          case 's': ok = read_bool(space); break;
          case 't': ok = read_text(tag_, has_tag); break;
          case 'n': ok = read_text(token.name, has_name); break;
          case 'x': ok = read_text(token.text, has_text); break;
          default: ok = in_.skip_value(kFieldDepth);
        }
        if (!ok) return false;
        in_.skip_ws();
        if (in_.consume('}')) break;
        if (!in_.consume(',')) return false;
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

  util::JsonReader in_;
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
