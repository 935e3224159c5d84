#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/parse.hpp"

namespace capes::util {
namespace {

TEST(Config, ParseBasicKeyValue) {
  Config c;
  ASSERT_TRUE(c.parse_string("a = 1\nb = hello\n"));
  EXPECT_EQ(c.get("a"), "1");
  EXPECT_EQ(c.get("b"), "hello");
}

TEST(Config, CommentsAndBlanksIgnored) {
  Config c;
  ASSERT_TRUE(c.parse_string("# comment\n\n  # indented comment\nx = 2\n"));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.get("x"), "2");
}

TEST(Config, WhitespaceTrimmed) {
  Config c;
  ASSERT_TRUE(c.parse_string("  key.with.dots   =   some value  \n"));
  EXPECT_EQ(c.get("key.with.dots"), "some value");
}

TEST(Config, MalformedLineFails) {
  Config c;
  EXPECT_FALSE(c.parse_string("novalue\n"));
  EXPECT_FALSE(c.parse_string("= novalue\n"));
}

TEST(Config, LaterKeysOverride) {
  Config c;
  ASSERT_TRUE(c.parse_string("k = 1\nk = 2\n"));
  EXPECT_EQ(c.get("k"), "2");
}

TEST(Config, EmptyValueAllowed) {
  Config c;
  ASSERT_TRUE(c.parse_string("k =\n"));
  EXPECT_EQ(c.get("k"), "");
}

// Config stores raw strings; typed conf values go through the strict
// util::parse_* parsers (core/config_io.cpp), never a lenient fallback.
TEST(Config, IntRejectsTrailingGarbage) {
  Config c;
  c.set("k", "12abc");
  std::int64_t v = -1;
  EXPECT_FALSE(parse_i64(*c.get("k"), &v));
  EXPECT_EQ(v, -1);
}

TEST(Config, DoubleParsesScientific) {
  Config c;
  c.set("k", "1e-4");
  double v = 0.0;
  ASSERT_TRUE(parse_double(*c.get("k"), &v));
  EXPECT_DOUBLE_EQ(v, 1e-4);
}

TEST(Config, NegativeNumbers) {
  Config c;
  c.set("k", "-17");
  std::int64_t i = 0;
  double d = 0.0;
  ASSERT_TRUE(parse_i64(*c.get("k"), &i));
  ASSERT_TRUE(parse_double(*c.get("k"), &d));
  EXPECT_EQ(i, -17);
  EXPECT_DOUBLE_EQ(d, -17.0);
}

TEST(Config, BoolVariants) {
  Config c;
  bool v = false;
  for (const char* t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
    c.set("k", t);
    v = false;
    EXPECT_TRUE(parse_bool(*c.get("k"), &v) && v) << t;
  }
  for (const char* f : {"false", "0", "no", "off", "FALSE"}) {
    c.set("k", f);
    v = true;
    EXPECT_TRUE(parse_bool(*c.get("k"), &v) && !v) << f;
  }
  c.set("k", "maybe");
  EXPECT_FALSE(parse_bool(*c.get("k"), &v));
}

TEST(Config, SettersRoundTrip) {
  Config c;
  c.set_int("i", -5);
  c.set_double("d", 0.125);
  c.set_bool("b", true);
  EXPECT_EQ(c.get("i"), "-5");
  EXPECT_EQ(c.get("d"), "0.125");
  EXPECT_EQ(c.get("b"), "true");
}

TEST(Config, StrictGetReturnsNullopt) {
  Config c;
  EXPECT_FALSE(c.get("missing").has_value());
  c.set("k", "v");
  ASSERT_TRUE(c.get("k").has_value());
  EXPECT_EQ(*c.get("k"), "v");
}

TEST(Config, KeysSorted) {
  Config c;
  c.set("zebra", "1");
  c.set("apple", "2");
  c.set("mango", "3");
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "apple");
  EXPECT_EQ(keys[2], "zebra");
}

TEST(Config, DumpParsesBack) {
  Config c;
  c.set_int("a.b", 7);
  c.set("s", "text value");
  Config c2;
  ASSERT_TRUE(c2.parse_string(c.dump()));
  EXPECT_EQ(c2.get("a.b"), "7");
  EXPECT_EQ(c2.get("s"), "text value");
}

TEST(Config, MergeOtherWins) {
  Config a, b;
  a.set("k", "old");
  a.set("only_a", "1");
  b.set("k", "new");
  a.merge(b);
  EXPECT_EQ(a.get("k"), "new");
  EXPECT_EQ(a.get("only_a"), "1");
}

TEST(Config, ParseFileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "capes_cfg_test.conf").string();
  {
    std::ofstream out(path);
    out << "# test\nlustre.num_clients = 3\ndrl.gamma = 0.9\n";
  }
  Config c;
  ASSERT_TRUE(c.parse_file(path));
  EXPECT_EQ(c.get("lustre.num_clients"), "3");
  EXPECT_EQ(c.get("drl.gamma"), "0.9");
  std::remove(path.c_str());
}

TEST(Config, ParseFileMissingFails) {
  Config c;
  EXPECT_FALSE(c.parse_file("/nonexistent/capes.conf"));
}

}  // namespace
}  // namespace capes::util
