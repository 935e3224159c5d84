// Strict numeric parsing: the whole string must be a valid number; the
// atoll-style "garbage becomes 0" behaviour these helpers replace must
// never come back.

#include "util/parse.hpp"

#include <gtest/gtest.h>

namespace capes::util {
namespace {

TEST(ParseI64, AcceptsPlainIntegers) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_i64("-17", &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(parse_i64("0", &v));
  EXPECT_EQ(v, 0);
}

TEST(ParseI64, RejectsGarbage) {
  std::int64_t v = 99;
  EXPECT_FALSE(parse_i64("abc", &v));
  EXPECT_FALSE(parse_i64("12abc", &v));
  EXPECT_FALSE(parse_i64("", &v));
  EXPECT_FALSE(parse_i64("1.5", &v));
  EXPECT_FALSE(parse_i64(" 3", &v));  // no silent whitespace trimming
  EXPECT_FALSE(parse_i64("99999999999999999999999", &v));  // overflow
  EXPECT_EQ(v, 99);  // failures leave the output untouched
}

TEST(ParseU64, AcceptsAndRejects) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("-1", &v));  // strtoull would wrap this silently
  EXPECT_FALSE(parse_u64("1e3", &v));
  EXPECT_FALSE(parse_u64("", &v));
}

TEST(ParseDouble, AcceptsDecimalForms) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("0.3", &v));
  EXPECT_DOUBLE_EQ(v, 0.3);
  EXPECT_TRUE(parse_double("-2.5e-3", &v));
  EXPECT_DOUBLE_EQ(v, -2.5e-3);
  EXPECT_TRUE(parse_double("7", &v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ParseDouble, RejectsNonDecimalForms) {
  double v = 1.0;
  EXPECT_FALSE(parse_double("abc", &v));
  EXPECT_FALSE(parse_double("0.3x", &v));
  EXPECT_FALSE(parse_double("nan", &v));
  EXPECT_FALSE(parse_double("inf", &v));
  EXPECT_FALSE(parse_double("0x10", &v));
  EXPECT_FALSE(parse_double("", &v));
  EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(ParseBool, AcceptsConfSpellingsOnly) {
  bool v = false;
  EXPECT_TRUE(parse_bool("On", &v));
  EXPECT_TRUE(v);
  EXPECT_TRUE(parse_bool("NO", &v));
  EXPECT_FALSE(v);
  for (const char* bad : {"maybe", "", " true", "2", "t"}) {
    v = true;
    EXPECT_FALSE(parse_bool(bad, &v)) << bad;
    EXPECT_TRUE(v) << bad;  // failures leave the output untouched
  }
}

TEST(ParseFlag, SplitsNameValueArguments) {
  std::string value;
  EXPECT_TRUE(parse_flag("--ticks=150", "--ticks", &value));
  EXPECT_EQ(value, "150");
  EXPECT_TRUE(parse_flag("--json=", "--json", &value));
  EXPECT_EQ(value, "");
  value = "untouched";
  EXPECT_FALSE(parse_flag("--ticks", "--ticks", &value));     // no '='
  EXPECT_FALSE(parse_flag("--ticksx=1", "--ticks", &value));  // wrong name
  EXPECT_FALSE(parse_flag("--tick=1", "--ticks", &value));
  EXPECT_EQ(value, "untouched");
}

}  // namespace
}  // namespace capes::util
