// Transport policies and the spec grammar: sync immediacy, the sim
// model's counter-based determinism, strict parse rejection, and a
// conformance suite every transport kind must pass through bus::Channel
// (per-sender FIFO, drop accounting, late-delivery counting).

#include "bus/transport.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bus/channel.hpp"

namespace capes::bus {
namespace {

TEST(SyncTransport, DeliversEveryMessageOnItsSendTick) {
  SyncTransport sync;
  for (std::int64_t t : {0, 1, 7, 1000}) {
    const Delivery d = sync.plan(1, 3, t);
    EXPECT_FALSE(d.dropped);
    EXPECT_EQ(d.deliver_tick, t);
  }
}

TEST(SimTransport, FixedLatencyNoJitterNoDrop) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.latency_ticks = 3;
  SimTransport sim(opts);
  for (std::int64_t t = 0; t < 50; ++t) {
    const Delivery d = sim.plan(1, 0, t);
    EXPECT_FALSE(d.dropped);
    EXPECT_EQ(d.deliver_tick, t + 3);
  }
}

TEST(SimTransport, PlanIsPureAndSeedDeterministic) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.jitter = 4.0;
  opts.drop = 0.3;
  opts.seed = 42;
  SimTransport a(opts), b(opts);
  for (std::uint64_t sender = 0; sender < 8; ++sender) {
    for (std::int64_t t = 0; t < 64; ++t) {
      const Delivery da = a.plan(1, sender, t);
      const Delivery db = b.plan(1, sender, t);
      EXPECT_EQ(da.dropped, db.dropped);
      EXPECT_EQ(da.deliver_tick, db.deliver_tick);
      // Repeated calls on one instance agree too (publishers pre-check
      // the drop fate, then publish recomputes it).
      const Delivery da2 = a.plan(1, sender, t);
      EXPECT_EQ(da.dropped, da2.dropped);
      EXPECT_EQ(da.deliver_tick, da2.deliver_tick);
    }
  }
}

TEST(SimTransport, SeedChangesTheRealization) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.drop = 0.5;
  opts.seed = 1;
  SimTransport a(opts);
  opts.seed = 2;
  SimTransport b(opts);
  std::size_t differing = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    if (a.plan(1, 0, t).dropped != b.plan(1, 0, t).dropped) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(SimTransport, DropRateTracksTheConfiguredProbability) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.drop = 0.2;
  opts.seed = 7;
  SimTransport sim(opts);
  std::size_t drops = 0;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    if (sim.plan(1, i % 16, static_cast<std::int64_t>(i / 16)).dropped) {
      ++drops;
    }
  }
  const double rate = static_cast<double>(drops) / static_cast<double>(n);
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(SimTransport, JitterStaysWithinItsBound) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.latency_ticks = 1;
  opts.jitter = 3.0;  // extra delay in {0, 1, 2}
  SimTransport sim(opts);
  bool saw_extra = false;
  for (std::int64_t t = 0; t < 500; ++t) {
    const Delivery d = sim.plan(1, 0, t);
    ASSERT_GE(d.deliver_tick, t + 1);
    ASSERT_LE(d.deliver_tick, t + 3);
    if (d.deliver_tick > t + 1) saw_extra = true;
  }
  EXPECT_TRUE(saw_extra);
}

TEST(SimTransport, TopicsSeeIndependentRealizations) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.drop = 0.5;
  opts.seed = 11;
  SimTransport sim(opts);
  std::size_t differing = 0;
  for (std::int64_t t = 0; t < 200; ++t) {
    if (sim.plan(1, 0, t).dropped != sim.plan(2, 0, t).dropped) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

// ---------------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------------

TEST(TransportSpec, ParsesSync) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec("sync", &opts, &error)) << error;
  EXPECT_EQ(opts.kind, TransportKind::kSync);
}

TEST(TransportSpec, ParsesBareSimWithDefaults) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec("sim", &opts, &error)) << error;
  EXPECT_EQ(opts.kind, TransportKind::kSim);
  EXPECT_EQ(opts.latency_ticks, 1);
  EXPECT_DOUBLE_EQ(opts.jitter, 0.0);
  EXPECT_DOUBLE_EQ(opts.drop, 0.0);
  EXPECT_FALSE(opts.seed_explicit);
}

TEST(TransportSpec, ParsesFullOptionList) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec(
      "sim:latency_ticks=4,jitter=2.5,drop=0.25,seed=99", &opts, &error))
      << error;
  EXPECT_EQ(opts.kind, TransportKind::kSim);
  EXPECT_EQ(opts.latency_ticks, 4);
  EXPECT_DOUBLE_EQ(opts.jitter, 2.5);
  EXPECT_DOUBLE_EQ(opts.drop, 0.25);
  EXPECT_EQ(opts.seed, 99u);
  EXPECT_TRUE(opts.seed_explicit);
}

TEST(TransportSpec, RejectsBadInput) {
  TransportOptions opts;
  std::string error;
  EXPECT_FALSE(parse_transport_spec("udp", &opts, &error));
  EXPECT_NE(error.find("unknown transport"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("sync:latency_ticks=1", &opts, &error));
  EXPECT_FALSE(parse_transport_spec("sim:bogus=1", &opts, &error));
  EXPECT_NE(error.find("unknown transport option"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("sim:drop", &opts, &error));
  EXPECT_NE(error.find("key=value"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("sim:drop=1.5", &opts, &error));
  EXPECT_FALSE(parse_transport_spec("sim:drop=abc", &opts, &error));
  EXPECT_FALSE(parse_transport_spec("sim:latency_ticks=-2", &opts, &error));
  EXPECT_FALSE(parse_transport_spec("sim:jitter=-1", &opts, &error));
  EXPECT_FALSE(parse_transport_spec("sim:seed=-5", &opts, &error));
}

TEST(TransportSpec, RejectionLeavesOutputUntouched) {
  TransportOptions opts;
  opts.kind = TransportKind::kSim;
  opts.latency_ticks = 9;
  EXPECT_FALSE(parse_transport_spec("sim:latency_ticks=3,drop=oops", &opts));
  EXPECT_EQ(opts.latency_ticks, 9);  // not the half-parsed 3
}

TEST(TransportSpec, RoundTripsThroughSpecString) {
  // The writer is gone (config_from_options() round-trips the options);
  // the parse half stays: fractional values, and 17-digit doubles parse
  // value-exactly.
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec("sim:latency_ticks=2,jitter=1.5,drop=0.1",
                                   &opts, &error));
  EXPECT_EQ(opts.kind, TransportKind::kSim);
  EXPECT_EQ(opts.latency_ticks, 2);
  EXPECT_DOUBLE_EQ(opts.jitter, 1.5);
  EXPECT_DOUBLE_EQ(opts.drop, 0.1);

  TransportOptions nasty_back;
  ASSERT_TRUE(parse_transport_spec(
      "sim:jitter=0.66666666666666663,drop=0.12345678901234568", &nasty_back,
      &error))
      << error;
  EXPECT_EQ(nasty_back.jitter, 2.0 / 3.0);
  EXPECT_EQ(nasty_back.drop, 0.123456789012345678);
}

TEST(MakeTransport, BuildsTheRequestedKind) {
  TransportOptions opts;
  EXPECT_STREQ(make_transport(opts)->name(), "sync");
  opts.kind = TransportKind::kSim;
  EXPECT_STREQ(make_transport(opts)->name(), "sim");
  opts.kind = TransportKind::kTcp;
  EXPECT_STREQ(make_transport(opts)->name(), "tcp");
}

// ---------------------------------------------------------------------------
// tcp: spec grammar
// ---------------------------------------------------------------------------

TEST(TransportSpec, ParsesTcpWithDefaults) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec("tcp:host=10.0.0.7,port=4890", &opts,
                                   &error))
      << error;
  EXPECT_EQ(opts.kind, TransportKind::kTcp);
  EXPECT_EQ(opts.tcp_host, "10.0.0.7");
  EXPECT_EQ(opts.tcp_port, 4890);
  EXPECT_EQ(opts.connect_timeout_ms, 5000);
  EXPECT_EQ(opts.io_threads, 1);
}

TEST(TransportSpec, ParsesFullTcpOptionList) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec(
      "tcp:host=localhost,port=19,connect_timeout_ms=250,io_threads=2", &opts,
      &error))
      << error;
  EXPECT_EQ(opts.tcp_host, "localhost");
  EXPECT_EQ(opts.tcp_port, 19);
  EXPECT_EQ(opts.connect_timeout_ms, 250);
  EXPECT_EQ(opts.io_threads, 2);
}

TEST(TransportSpec, TcpRoundTripsThroughSpecString) {
  TransportOptions opts;
  std::string error;
  ASSERT_TRUE(parse_transport_spec(
      "tcp:host=example.org,port=7777,connect_timeout_ms=1,io_threads=8",
      &opts, &error))
      << error;
  EXPECT_EQ(opts.kind, TransportKind::kTcp);
  EXPECT_EQ(opts.tcp_host, "example.org");
  EXPECT_EQ(opts.tcp_port, 7777);
  EXPECT_EQ(opts.connect_timeout_ms, 1);
  EXPECT_EQ(opts.io_threads, 8);
}

TEST(TransportSpec, RejectsMalformedTcpSpecs) {
  TransportOptions opts;
  std::string error;
  // host and port are mandatory; the error names the whole spec.
  EXPECT_FALSE(parse_transport_spec("tcp", &opts, &error));
  EXPECT_NE(error.find("requires host="), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:port=4890", &opts, &error));
  EXPECT_NE(error.find("requires host="), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=a", &opts, &error));
  EXPECT_NE(error.find("requires port="), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=,port=1", &opts, &error));
  EXPECT_NE(error.find("host must be non-empty"), std::string::npos) << error;
}

TEST(TransportSpec, TcpRejectionEchoesTheOffendingToken) {
  TransportOptions opts;
  std::string error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=a,port=0", &opts, &error));
  EXPECT_NE(error.find("'0'"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=a,port=70000", &opts, &error));
  EXPECT_NE(error.find("'70000'"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=a,port=http", &opts, &error));
  EXPECT_NE(error.find("'http'"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec(
      "tcp:host=a,port=1,connect_timeout_ms=-3", &opts, &error));
  EXPECT_NE(error.find("'-3'"), std::string::npos) << error;
  EXPECT_FALSE(
      parse_transport_spec("tcp:host=a,port=1,io_threads=0", &opts, &error));
  EXPECT_NE(error.find("io_threads"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("tcp:host=a,port=1,nagle=off", &opts,
                                    &error));
  EXPECT_NE(error.find("'nagle'"), std::string::npos) << error;
  // sim keys are not tcp keys and vice versa.
  EXPECT_FALSE(parse_transport_spec("tcp:host=a,port=1,drop=0.1", &opts,
                                    &error));
  EXPECT_NE(error.find("'drop'"), std::string::npos) << error;
  EXPECT_FALSE(parse_transport_spec("sim:host=a", &opts, &error));
  EXPECT_NE(error.find("'host'"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Channel conformance: contracts every transport kind must honor
// ---------------------------------------------------------------------------

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Transport> make() {
    TransportOptions opts;
    std::string error;
    EXPECT_TRUE(parse_transport_spec(GetParam(), &opts, &error)) << error;
    return make_transport(opts);
  }
};

TEST_P(TransportConformance, PerSenderFifoHoldsUnderDrain) {
  auto transport = make();
  Channel<int> channel(*transport, 1);
  constexpr std::uint64_t kSenders = 4;
  for (std::int64_t t = 0; t < 64; ++t) {
    for (std::uint64_t s = 0; s < kSenders; ++s) {
      channel.publish(s, t, static_cast<int>(t));
    }
  }
  // Drain far in the future so every surviving message is due; per
  // sender, payloads (the send ticks) must arrive strictly in order.
  std::map<std::uint64_t, int> last;
  channel.drain(1000, [&](Message<int>& msg) {
    const auto it = last.find(msg.sender);
    if (it != last.end()) {
      EXPECT_GT(msg.payload, it->second)
          << "sender " << msg.sender << " reordered";
    }
    last[msg.sender] = msg.payload;
  });
}

TEST_P(TransportConformance, CountsEveryPublishExactlyOnce) {
  auto transport = make();
  Channel<int> channel(*transport, 1);
  constexpr std::uint64_t kAttempts = 500;
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kAttempts; ++i) {
    if (channel.publish(i % 8, static_cast<std::int64_t>(i / 8), 0)) {
      ++accepted;
    }
  }
  const ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.published, accepted);
  EXPECT_EQ(stats.published + stats.dropped, kAttempts);
  std::size_t drained = 0;
  while (drained < accepted) {
    const std::size_t n = channel.drain(1000, [](Message<int>&) {});
    if (n == 0) break;
    drained += n;
  }
  EXPECT_EQ(drained, accepted);
  EXPECT_EQ(channel.stats().delivered, accepted);
  EXPECT_EQ(channel.pending(), 0u);
}

TEST_P(TransportConformance, LateCountsOnlyDelayedDeliveries) {
  auto transport = make();
  Channel<int> channel(*transport, 1);
  for (std::int64_t t = 0; t < 128; ++t) channel.publish(0, t, 0);
  std::uint64_t late_seen = 0;
  for (std::int64_t t = 0; t < 256; ++t) {
    channel.drain(t, [&](Message<int>& msg) {
      if (msg.deliver_tick > msg.send_tick) ++late_seen;
      EXPECT_LE(msg.deliver_tick, t);
    });
  }
  EXPECT_EQ(channel.stats().late, late_seen);
  // Same-tick transports must never manufacture lateness.
  const std::string spec = GetParam();
  if (spec.rfind("sim", 0) != 0) {
    EXPECT_EQ(late_seen, 0u);
  }
}

// The tcp: entry exercises only the local Channel staging policy (real
// wire loss is the endpoint's, counted separately) — it must behave
// exactly like sync: reliable, same-tick, in-order.
INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformance,
    ::testing::Values("sync", "sim:latency_ticks=2,jitter=3,seed=5",
                      "sim:drop=0.3,seed=9", "tcp:host=127.0.0.1,port=9"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!(std::isalnum(static_cast<unsigned char>(c)))) c = '_';
      }
      return name;
    });

TEST(TransportScheme, EachKindHasOneSpellingThatParsesBack) {
  for (const TransportKind kind :
       {TransportKind::kSync, TransportKind::kSim, TransportKind::kTcp}) {
    TransportKind parsed = TransportKind::kSync;
    ASSERT_TRUE(parse_transport_scheme(transport_scheme_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  std::string error;
  TransportKind untouched = TransportKind::kSim;
  EXPECT_FALSE(parse_transport_scheme("udp", &untouched, &error));
  EXPECT_EQ(untouched, TransportKind::kSim);
  EXPECT_NE(error.find("'udp'"), std::string::npos) << error;
}

}  // namespace
}  // namespace capes::bus
