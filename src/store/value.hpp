// Typed values for the pattern store's tables.
//
// The paper persists patterns "in a SQL database in a one-to-many
// relationship with their related services" (§III). This repository has no
// external database dependency, so src/store keeps the two tables itself:
// typed tables with equality indexes (store/table) persisted as snapshot
// files (store/snapshot). Value is their scalar type system: NULL, INTEGER
// (int64), REAL (double) and TEXT.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace seqrtg::store {

enum class ValueType : std::uint8_t { Null, Integer, Real, Text };

std::string_view value_type_name(ValueType t);

class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(std::int64_t i) : v_(i) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(std::string_view s) : v_(std::string(s)) {}
  Value(const char* s) : v_(std::string(s)) {}

  ValueType type() const {
    switch (v_.index()) {
      case 0: return ValueType::Null;
      case 1: return ValueType::Integer;
      case 2: return ValueType::Real;
      default: return ValueType::Text;
    }
  }

  std::int64_t as_int() const;
  double as_real() const;
  const std::string& as_text() const;

  /// Total order used for sorting rows: NULLs sort first, cross-numeric
  /// types compare numerically, numbers sort before text.
  int compare(const Value& other) const;

  bool operator==(const Value& other) const { return compare(other) == 0; }
  bool operator<(const Value& other) const { return compare(other) < 0; }

  /// Round-trip text encoding used by the persistence layer (JSON-escaped
  /// text, exact integers, %.17g reals).
  std::string encode() const;
  static Value decode(std::string_view text, bool* ok);

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> v_;
  static const std::string kEmpty;
};

using Row = std::vector<Value>;

}  // namespace seqrtg::store
