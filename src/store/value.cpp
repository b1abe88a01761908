#include "store/value.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/json.hpp"

namespace seqrtg::store {

const std::string Value::kEmpty;

std::string_view value_type_name(ValueType t) {
  switch (t) {
    case ValueType::Null: return "NULL";
    case ValueType::Integer: return "INTEGER";
    case ValueType::Real: return "REAL";
    case ValueType::Text: return "TEXT";
  }
  return "NULL";
}

std::int64_t Value::as_int() const {
  switch (type()) {
    case ValueType::Integer: return std::get<std::int64_t>(v_);
    case ValueType::Real: return static_cast<std::int64_t>(std::get<double>(v_));
    default: return 0;
  }
}

double Value::as_real() const {
  switch (type()) {
    case ValueType::Integer:
      return static_cast<double>(std::get<std::int64_t>(v_));
    case ValueType::Real: return std::get<double>(v_);
    default: return 0.0;
  }
}

const std::string& Value::as_text() const {
  if (type() == ValueType::Text) return std::get<std::string>(v_);
  return kEmpty;
}

int Value::compare(const Value& other) const {
  const ValueType a = type();
  const ValueType b = other.type();
  // Type classes: NULL < numeric < text.
  const auto cls = [](ValueType t) {
    if (t == ValueType::Null) return 0;
    if (t == ValueType::Text) return 2;
    return 1;
  };
  if (cls(a) != cls(b)) return cls(a) < cls(b) ? -1 : 1;
  switch (cls(a)) {
    case 0:
      return 0;
    case 1: {
      if (a == ValueType::Integer && b == ValueType::Integer) {
        const auto x = std::get<std::int64_t>(v_);
        const auto y = std::get<std::int64_t>(other.v_);
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      const double x = as_real();
      const double y = other.as_real();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    default: {
      const std::string& x = std::get<std::string>(v_);
      const std::string& y = std::get<std::string>(other.v_);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
  }
}

std::string Value::encode() const {
  switch (type()) {
    case ValueType::Null:
      return "N";
    case ValueType::Integer: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "I%lld",
                    static_cast<long long>(std::get<std::int64_t>(v_)));
      return buf;
    }
    case ValueType::Real: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "R%.17g", std::get<double>(v_));
      return buf;
    }
    case ValueType::Text:
      return 'T' + util::json_escape(std::get<std::string>(v_));
  }
  return "N";
}

Value Value::decode(std::string_view text, bool* ok) {
  *ok = true;
  if (text.empty()) {
    *ok = false;
    return Value();
  }
  const char tag = text[0];
  const std::string_view body = text.substr(1);
  switch (tag) {
    case 'N':
      return Value();
    case 'I': {
      char* end = nullptr;
      const std::string s(body);
      const long long v = std::strtoll(s.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') *ok = false;
      return Value(static_cast<std::int64_t>(v));
    }
    case 'R': {
      const std::string s(body);
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (end == nullptr || *end != '\0') *ok = false;
      return Value(v);
    }
    case 'T': {
      // The text payload is JSON-escaped; reuse the JSON string parser.
      const std::string quoted = '"' + std::string(body) + '"';
      const util::JsonParseResult parsed = util::json_parse(quoted);
      if (!parsed.ok() || !parsed.value.is_string()) {
        *ok = false;
        return Value();
      }
      return Value(parsed.value.as_string());
    }
    default:
      *ok = false;
      return Value();
  }
}

}  // namespace seqrtg::store
