// The flag-table parser every tool shares: one table drives the parse
// loop, the error messages and the usage synopsis, so these pin the
// contract the tools' exit codes and --help rely on.

#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace capes::util {
namespace {

/// A small table: one repeatable value flag, one validated value flag,
/// one boolean flag.
struct Table {
  std::vector<std::string> names;
  std::int64_t count = 0;
  bool verbose = false;
  std::vector<Flag> flags;

  Table() {
    flags = {
        {"--name", "NAME", "a name; repeatable",
         [this](const std::string& v, std::string*) {
           names.push_back(v);
           return true;
         }},
        {"--count", "N", "how many, at least 1",
         [this](const std::string& v, std::string* why) {
           return parse_int_flag(v, 1, std::numeric_limits<std::int64_t>::max(),
                                 &count, why);
         }},
        {"--verbose", "", "say more",
         [this](const std::string&, std::string*) {
           verbose = true;
           return true;
         }},
    };
  }

  ParseOutcome parse(std::vector<const char*> args, std::string* error) {
    args.insert(args.begin(), "tool");
    return parse_flags(static_cast<int>(args.size()), args.data(), flags,
                       error);
  }
};

TEST(Cli, AcceptsEveryKindOfFlag) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--name=a", "--count=3", "--verbose"}, &error),
            ParseOutcome::kOk);
  EXPECT_EQ(t.names, std::vector<std::string>{"a"});
  EXPECT_EQ(t.count, 3);
  EXPECT_TRUE(t.verbose);
  EXPECT_TRUE(error.empty());
}

TEST(Cli, NoArgumentsIsOk) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({}, &error), ParseOutcome::kOk);
  EXPECT_FALSE(t.verbose);
}

TEST(Cli, SynopsisListsEveryEntry) {
  Table t;
  const std::string usage = usage_text("tool", t.flags);
  EXPECT_EQ(usage.rfind("usage: tool ", 0), 0u) << usage;
  for (const char* spelled :
       {"[--name=NAME]", "[--count=N]", "[--verbose]", "[--help]"}) {
    EXPECT_NE(usage.find(spelled), std::string::npos) << spelled << "\n"
                                                      << usage;
  }
  for (const auto& flag : t.flags) {
    EXPECT_NE(usage.find(flag.help), std::string::npos) << flag.help;
  }
}

TEST(Cli, SynopsisWrapsLongTables) {
  std::vector<Flag> flags;
  for (int i = 0; i < 12; ++i) {
    flags.push_back({"--flag-number-" + std::to_string(i), "VALUE", "help",
                     nullptr});
  }
  const std::string usage = usage_text("tool", flags);
  std::size_t start = 0;
  while (start < usage.size()) {
    const std::size_t end = usage.find('\n', start);
    EXPECT_LE(end - start, 78u) << usage.substr(start, end - start);
    start = end + 1;
  }
}

TEST(Cli, HelpReturnsHelp) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--count=2", "--help", "--bogus"}, &error),
            ParseOutcome::kHelp);
}

TEST(Cli, UnknownFlagIsAnError) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--frobnicate"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error, "unknown argument: --frobnicate");
  // A prefix of a real flag is not that flag.
  EXPECT_EQ(t.parse({"--nam=x"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error, "unknown argument: --nam=x");
}

TEST(Cli, ValueFlagWithoutValueIsAnError) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--count"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error, "invalid value for --count: '' (expected --count=N)");
  EXPECT_EQ(t.count, 0);
}

TEST(Cli, BooleanFlagWithValueIsAnError) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--verbose=x"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error, "invalid value for --verbose: 'x' (--verbose takes no value)");
  EXPECT_FALSE(t.verbose);
}

TEST(Cli, HandlerReasonIsPassedThrough) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--count=0"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error, "invalid value for --count: '0' (expected an integer >= 1)");
  EXPECT_EQ(t.parse({"--count=abc"}, &error), ParseOutcome::kError);
  EXPECT_EQ(error,
            "invalid value for --count: 'abc' (expected an integer >= 1)");
  EXPECT_EQ(t.count, 0);
}

TEST(Cli, ErrorStopsTheParse) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--count=0", "--verbose"}, &error), ParseOutcome::kError);
  EXPECT_FALSE(t.verbose);
}

TEST(Cli, RepeatedFlagCallsItsHandlerEachTime) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--name=a", "--count=1", "--name=b", "--name=a"}, &error),
            ParseOutcome::kOk);
  EXPECT_EQ(t.names, (std::vector<std::string>{"a", "b", "a"}));
}

TEST(Cli, ValueMayContainEqualsSigns) {
  Table t;
  std::string error;
  EXPECT_EQ(t.parse({"--name=sim:drop=0.1,seed=7"}, &error), ParseOutcome::kOk);
  EXPECT_EQ(t.names, std::vector<std::string>{"sim:drop=0.1,seed=7"});
}

TEST(ParseIntFlag, ReasonNamesTheRange) {
  std::int64_t v = 7;
  std::string why;
  EXPECT_TRUE(parse_int_flag("65535", 0, 65535, &v, &why));
  EXPECT_EQ(v, 65535);
  EXPECT_FALSE(parse_int_flag("65536", 0, 65535, &v, &why));
  EXPECT_EQ(why, "expected an integer in [0, 65535]");
  EXPECT_FALSE(parse_int_flag("x", std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max(), &v,
                              &why));
  EXPECT_EQ(why, "expected an integer");
  EXPECT_EQ(v, 65535);  // failures leave the output untouched
}

}  // namespace
}  // namespace capes::util
