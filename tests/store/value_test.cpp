#include "store/value.hpp"

#include <gtest/gtest.h>

namespace seqrtg::store {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::Null);
  EXPECT_EQ(Value(42).type(), ValueType::Integer);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_EQ(Value(2.5).type(), ValueType::Real);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("text").type(), ValueType::Text);
  EXPECT_EQ(Value("text").as_text(), "text");
}

TEST(Value, CrossTypeAccessorsAreSafe) {
  EXPECT_EQ(Value("x").as_int(), 0);
  EXPECT_EQ(Value().as_text(), "");
  EXPECT_DOUBLE_EQ(Value(7).as_real(), 7.0);
  EXPECT_EQ(Value(7.9).as_int(), 7);
}

TEST(Value, CompareWithinTypes) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_EQ(Value("x"), Value("x"));
  EXPECT_LT(Value(1.5), Value(2.5));
}

TEST(Value, CompareAcrossNumericTypes) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_LT(Value(1), Value(1.5));
  EXPECT_LT(Value(1.5), Value(2));
}

TEST(Value, SqlOrdering) {
  // NULL < numbers < text.
  EXPECT_LT(Value(), Value(0));
  EXPECT_LT(Value(999), Value(""));
  EXPECT_LT(Value(), Value(""));
  EXPECT_EQ(Value(), Value());
}

TEST(Value, EncodeDecodeRoundTrip) {
  for (const Value& v :
       {Value(), Value(42), Value(-17), Value(3.25),
        Value("plain"), Value("tabs\tand\nnewlines"),
        Value(std::string("\x01\x02 control", 11)),
        Value(""), Value(std::int64_t{1} << 62)}) {
    bool ok = false;
    const Value back = Value::decode(v.encode(), &ok);
    EXPECT_TRUE(ok) << v.encode();
    EXPECT_EQ(back, v) << v.encode();
    EXPECT_EQ(back.type(), v.type());
  }
}

TEST(Value, EncodeHasNoRawTabsOrNewlines) {
  // The persistence format is tab/newline-delimited.
  const std::string enc = Value("a\tb\nc").encode();
  EXPECT_EQ(enc.find('\t'), std::string::npos);
  EXPECT_EQ(enc.find('\n'), std::string::npos);
}

TEST(Value, DecodeRejectsGarbage) {
  bool ok = true;
  Value::decode("", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  Value::decode("Inotanumber", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  Value::decode("Zx", &ok);
  EXPECT_FALSE(ok);
  ok = true;
  Value::decode("T\\q", &ok);  // invalid escape in text payload
  EXPECT_FALSE(ok);
}

TEST(ValueTypeName, Names) {
  EXPECT_EQ(value_type_name(ValueType::Null), "NULL");
  EXPECT_EQ(value_type_name(ValueType::Integer), "INTEGER");
  EXPECT_EQ(value_type_name(ValueType::Real), "REAL");
  EXPECT_EQ(value_type_name(ValueType::Text), "TEXT");
}

}  // namespace
}  // namespace seqrtg::store
