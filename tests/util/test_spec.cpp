// The one spec grammar (NAME[:KEY=VALUE,...]) behind --transport,
// --faults and --workload: util::parse_spec_options over a util::Flag
// table, and the three front doors that must all reject the same
// malformed option lists.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "lustre/cluster.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "workload/registry.hpp"

namespace capes::util {
namespace {

/// A table with a positional entry (like random's read fraction) and
/// two keys; every handler call is recorded.
struct Table {
  std::vector<std::string> calls;
  double fraction = 0.0;
  std::int64_t count = 0;
  std::vector<Flag> flags;

  explicit Table(bool positional = true) {
    if (positional) {
      flags.push_back({"", "frac", "", store_double(&fraction, 0.0, 1.0)});
    }
    flags.push_back({"count", "N", "", store_int(&count, 1, 9)});
    flags.push_back({"name", "S", "",
                     [this](const std::string& v, std::string*) {
                       calls.push_back(v);
                       return true;
                     }});
  }

  bool parse(SpecOptions options, std::string* error) {
    return parse_spec_options(options, flags, "demo", error);
  }
};

TEST(SpecSplit, SplitsAtTheFirstColon) {
  const SpecParts bare = split_spec("sim");
  EXPECT_EQ(bare.name, "sim");
  EXPECT_FALSE(bare.options.has_value());
  const SpecParts empty = split_spec("sim:");
  EXPECT_EQ(empty.name, "sim");
  ASSERT_TRUE(empty.options.has_value());
  EXPECT_EQ(*empty.options, "");
  const SpecParts full = split_spec("tcp:host=a:b,port=1");
  EXPECT_EQ(full.name, "tcp");
  EXPECT_EQ(*full.options, "host=a:b,port=1");
}

TEST(SpecOptions, NoOptionTextParsesToNothing) {
  Table t;
  std::string error;
  EXPECT_TRUE(t.parse(std::nullopt, &error)) << error;
  EXPECT_TRUE(t.calls.empty());
}

TEST(SpecOptions, PositionalAndKeyedItemsReachTheirEntries) {
  Table t;
  std::string error;
  ASSERT_TRUE(t.parse("name=x,0.25,count=3", &error)) << error;
  EXPECT_DOUBLE_EQ(t.fraction, 0.25);
  EXPECT_EQ(t.count, 3);
  EXPECT_EQ(t.calls, std::vector<std::string>{"x"});
}

TEST(SpecOptions, BareItemWithoutAPositionalEntryIsMalformed) {
  Table t(/*positional=*/false);
  std::string error;
  EXPECT_FALSE(t.parse("0.25", &error));
  EXPECT_EQ(error, "malformed demo option '0.25' (expected key=value)");
}

TEST(SpecOptions, EmptyItemsAreMalformed) {
  for (const char* options : {"", ",", "count=1,", ",count=1",
                              "count=1,,name=a"}) {
    Table t;
    std::string error;
    EXPECT_FALSE(t.parse(options, &error)) << options;
    EXPECT_EQ(error, "malformed demo option '' (expected key=value)")
        << options;
  }
}

TEST(SpecOptions, EmptyKeyIsMalformed) {
  Table t;
  std::string error;
  EXPECT_FALSE(t.parse("=3", &error));
  EXPECT_EQ(error, "malformed demo option '=3' (expected key=value)");
}

TEST(SpecOptions, EmptyValueReachesTheHandler) {
  Table t;
  std::string error;
  ASSERT_TRUE(t.parse("name=", &error)) << error;
  EXPECT_EQ(t.calls, std::vector<std::string>{""});
  EXPECT_FALSE(t.parse("count=", &error));
  EXPECT_EQ(error, "invalid value for count: '' (expected an integer in "
                   "[1, 9])");
}

TEST(SpecOptions, InvalidValuesUseTheFlagFormat) {
  Table t;
  std::string error;
  EXPECT_FALSE(t.parse("count=10", &error));
  EXPECT_EQ(error,
            "invalid value for count: '10' (expected an integer in [1, 9])");
  // A positional value is named by its entry's metavar.
  EXPECT_FALSE(t.parse("1.5", &error));
  EXPECT_EQ(error, "invalid value for frac: '1.5' (expected a number in "
                   "[0, 1])");
}

TEST(SpecOptions, RepeatedKeyIsRejected) {
  Table t;
  std::string error;
  EXPECT_FALSE(t.parse("count=1,count=2", &error));
  EXPECT_EQ(error, "invalid value for count: '2' (repeated option)");
  EXPECT_EQ(t.count, 1);  // the second value never reached the handler
  EXPECT_FALSE(t.parse("0.1,0.2", &error));
  EXPECT_EQ(error, "invalid value for frac: '0.2' (repeated option)");
}

TEST(SpecOptions, UnknownKeyListsTheTablesKeys) {
  Table t;
  std::string error;
  EXPECT_FALSE(t.parse("colour=red", &error));
  EXPECT_EQ(error, "unknown demo option 'colour' (expected count or name)");
  Table three;
  three.flags.push_back({"size", "N", "", store_int(&three.count, 0)});
  EXPECT_FALSE(three.parse("colour=red", &error));
  EXPECT_EQ(error,
            "unknown demo option 'colour' (expected count, name or size)");
}

TEST(SpecOptions, StopsAtTheFirstBadItem) {
  Table t;
  std::string error;
  EXPECT_FALSE(t.parse("name=a,bogus=1,name=b", &error));
  EXPECT_EQ(t.calls, std::vector<std::string>{"a"});
  EXPECT_FALSE(parse_spec_options("bogus", t.flags, "demo", nullptr));
}

TEST(ParseDoubleFlag, ClosedAndHalfOpenRanges) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double x = -1.0;
  std::string why;
  EXPECT_TRUE(parse_double_flag("1", 0.0, 1.0, false, &x, &why));
  EXPECT_DOUBLE_EQ(x, 1.0);
  EXPECT_FALSE(parse_double_flag("1", 0.0, 1.0, true, &x, &why));
  EXPECT_EQ(why, "expected a number in [0, 1)");
  EXPECT_FALSE(parse_double_flag("nan", 0.0, 1.0, false, &x, &why));
  EXPECT_FALSE(parse_double_flag("0.5x", 0.0, 1.0, false, &x, &why));
  EXPECT_FALSE(parse_double_flag("0.5", 1.0, kInf, false, &x, &why));
  EXPECT_EQ(why, "expected a number >= 1");
  EXPECT_DOUBLE_EQ(x, 1.0);  // a rejected value never writes
}

// ---- the three front doors --------------------------------------------------

/// Option lists every front door must reject, whatever its keys: empty
/// items, an empty key, a repeated key, a bare item where no positional
/// entry takes it, an empty seed and an unknown key.
const char* const kMalformedOptions[] = {
    "",   ",",             "seed=1,", ",seed=1", "seed=1,,seed=2",
    "=1", "seed=1,seed=2", "seed",    "seed=",   "bogus=1",
};

TEST(SpecFrontDoors, AllThreeRejectTheSameMalformedOptions) {
  sim::Simulator sim;
  lustre::ClusterOptions cluster_opts;
  cluster_opts.num_clients = 1;
  cluster_opts.num_servers = 1;
  lustre::Cluster cluster(sim, cluster_opts);
  for (const char* options : kMalformedOptions) {
    const std::string list = options;
    std::string error;
    bus::TransportOptions transport;
    EXPECT_FALSE(bus::parse_transport_spec("sim:" + list, &transport, &error))
        << "transport accepted '" << list << "'";
    sim::FaultPlan plan;
    EXPECT_FALSE(sim::parse_fault_spec("faults:" + list, &plan, &error))
        << "faults accepted '" << list << "'";
    EXPECT_EQ(workload::Registry::instance().create("random:" + list, cluster,
                                                    &error),
              nullptr)
        << "workload accepted '" << list << "'";
  }
}

}  // namespace
}  // namespace capes::util
