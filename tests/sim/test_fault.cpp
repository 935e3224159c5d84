// Deterministic fault injection: the strict spec grammar (parse /
// reject), fate purity (order- and thread-count-
// independence of the crash/straggler/partition hashes), the injector's
// exact restart scheduling against the pure window predicates, and the
// zero-rate plan being a true no-op object.

#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace capes::sim {
namespace {

// ---- spec grammar ---------------------------------------------------------

TEST(FaultSpec, OffParsesToDisabledPlan) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_spec("off", &plan, &error)) << error;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultSpec, FullSpecRoundTrips) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_spec(
      "faults:ost_crash=0.001,restart_ticks=12,straggler=0.01,"
      "slow_factor=8.5,straggler_ticks=30,partition=0.002,"
      "partition_ticks=7,seed=99",
      &plan, &error))
      << error;
  EXPECT_TRUE(plan.enabled());
  EXPECT_DOUBLE_EQ(plan.ost_crash, 0.001);
  EXPECT_EQ(plan.restart_ticks, 12);
  EXPECT_DOUBLE_EQ(plan.straggler, 0.01);
  EXPECT_DOUBLE_EQ(plan.slow_factor, 8.5);
  EXPECT_EQ(plan.straggler_ticks, 30);
  EXPECT_DOUBLE_EQ(plan.partition, 0.002);
  EXPECT_EQ(plan.partition_ticks, 7);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_TRUE(plan.seed_explicit);
}

TEST(FaultSpec, BareFaultsSchemeIsValidButDisabled) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(parse_fault_spec("faults", &plan, &error)) << error;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultSpec, RejectsMalformedAndOutOfRange) {
  FaultPlan plan;
  std::string error;
  // Unknown scheme.
  EXPECT_FALSE(parse_fault_spec("gremlins", &plan, &error));
  EXPECT_NE(error.find("gremlins"), std::string::npos);
  // Unknown option key.
  EXPECT_FALSE(parse_fault_spec("faults:gremlins=0.1", &plan, &error));
  EXPECT_NE(error.find("gremlins"), std::string::npos);
  // Rates must sit in [0, 1).
  EXPECT_FALSE(parse_fault_spec("faults:ost_crash=1.0", &plan, &error));
  EXPECT_NE(error.find("[0, 1)"), std::string::npos);
  EXPECT_FALSE(parse_fault_spec("faults:straggler=-0.1", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:partition=2", &plan, &error));
  // Windows must be >= 1, the multiplier >= 1.
  EXPECT_FALSE(parse_fault_spec("faults:restart_ticks=0", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:straggler_ticks=-3", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:slow_factor=0.5", &plan, &error));
  // Malformed tokens.
  EXPECT_FALSE(parse_fault_spec("faults:ost_crash", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:=0.1", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:ost_crash=abc", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("faults:seed=xyz", &plan, &error));
  EXPECT_FALSE(parse_fault_spec("", &plan, &error));
}

TEST(FaultSpec, RejectionLeavesOutputUntouched) {
  FaultPlan plan;
  plan.ost_crash = 0.25;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("faults:ost_crash=7", &plan, &error));
  EXPECT_DOUBLE_EQ(plan.ost_crash, 0.25);  // failed parse never writes
}

TEST(FaultSpec, SeedOnlyEchoesExplicitly) {
  FaultPlan plan;
  std::string error;
  // config_from_options() writes the seed key only when seed_explicit.
  ASSERT_TRUE(parse_fault_spec("faults:ost_crash=0.01", &plan, &error));
  EXPECT_FALSE(plan.seed_explicit);
  ASSERT_TRUE(parse_fault_spec("faults:ost_crash=0.01,seed=5", &plan, &error));
  EXPECT_TRUE(plan.seed_explicit);
  EXPECT_EQ(plan.seed, 5u);
}

// ---- pure fates -----------------------------------------------------------

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.ost_crash = 0.05;
  plan.restart_ticks = 7;
  plan.straggler = 0.08;
  plan.slow_factor = 4.0;
  plan.straggler_ticks = 11;
  plan.partition = 0.04;
  plan.partition_ticks = 5;
  plan.seed = 42;
  return plan;
}

TEST(FaultFates, AreOrderIndependent) {
  const FaultPlan plan = busy_plan();
  // Forward sweep...
  std::vector<bool> forward;
  for (std::int64_t t = 0; t < 200; ++t) {
    for (std::uint32_t n = 0; n < 8; ++n) {
      forward.push_back(crash_starts(plan, fault_node_key(0, n), t));
      forward.push_back(straggle_starts(plan, fault_node_key(0, n), t));
      forward.push_back(partition_starts(plan, n, t));
    }
  }
  // ...must equal the reverse sweep bit for bit: no hidden stream state.
  std::vector<bool> reverse;
  for (std::int64_t t = 199; t >= 0; --t) {
    for (std::uint32_t n = 8; n-- > 0;) {
      std::vector<bool> triple = {
          crash_starts(plan, fault_node_key(0, n), t),
          straggle_starts(plan, fault_node_key(0, n), t),
          partition_starts(plan, n, t)};
      reverse.insert(reverse.end(), triple.rbegin(), triple.rend());
    }
  }
  std::vector<bool> reversed(reverse.rbegin(), reverse.rend());
  EXPECT_EQ(forward, reversed);
}

TEST(FaultFates, AreThreadCountIndependent) {
  const FaultPlan plan = busy_plan();
  const std::int64_t ticks = 400;
  const std::uint32_t nodes = 8;
  auto serial = [&] {
    std::vector<char> fates(static_cast<std::size_t>(ticks) * nodes * 3);
    for (std::int64_t t = 0; t < ticks; ++t) {
      for (std::uint32_t n = 0; n < nodes; ++n) {
        const std::size_t base =
            (static_cast<std::size_t>(t) * nodes + n) * 3;
        fates[base + 0] = crash_starts(plan, fault_node_key(0, n), t);
        fates[base + 1] = ost_down(plan, fault_node_key(0, n), t);
        fates[base + 2] = domain_partitioned(plan, n, t);
      }
    }
    return fates;
  }();
  // The same grid evaluated by 4 threads, each striding the tick range,
  // must agree entry for entry (and TSan sees no races).
  std::vector<char> parallel(serial.size());
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (std::int64_t t = w; t < ticks; t += 4) {
        for (std::uint32_t n = 0; n < nodes; ++n) {
          const std::size_t base =
              (static_cast<std::size_t>(t) * nodes + n) * 3;
          parallel[base + 0] = crash_starts(plan, fault_node_key(0, n), t);
          parallel[base + 1] = ost_down(plan, fault_node_key(0, n), t);
          parallel[base + 2] = domain_partitioned(plan, n, t);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(serial, parallel);
}

TEST(FaultFates, KindsAndNodesDrawIndependentStreams) {
  const FaultPlan plan = busy_plan();
  // Distinct kinds and distinct nodes must not mirror each other: over a
  // long window the fates cannot be identical across any pairing.
  int crash_vs_straggle = 0, node0_vs_node1 = 0;
  for (std::int64_t t = 0; t < 5000; ++t) {
    crash_vs_straggle += crash_starts(plan, fault_node_key(0, 0), t) !=
                         straggle_starts(plan, fault_node_key(0, 0), t);
    node0_vs_node1 += crash_starts(plan, fault_node_key(0, 0), t) !=
                      crash_starts(plan, fault_node_key(0, 1), t);
  }
  EXPECT_GT(crash_vs_straggle, 0);
  EXPECT_GT(node0_vs_node1, 0);
}

TEST(FaultFates, WindowIsUnionOfStarts) {
  const FaultPlan plan = busy_plan();
  const std::uint64_t key = fault_node_key(0, 3);
  // ost_down(t) must equal "some crash start within the last
  // restart_ticks ticks" — the documented until-extension semantics.
  for (std::int64_t t = 0; t < 1000; ++t) {
    bool expected = false;
    for (std::int64_t s = t - plan.restart_ticks + 1; s <= t; ++s) {
      expected = expected || crash_starts(plan, key, s);
    }
    EXPECT_EQ(ost_down(plan, key, t), expected) << "tick " << t;
  }
}

TEST(FaultFates, NegativeTicksAndZeroRatesNeverFire) {
  const FaultPlan plan = busy_plan();
  EXPECT_FALSE(crash_starts(plan, fault_node_key(0, 0), -1));
  EXPECT_FALSE(ost_down(plan, fault_node_key(0, 0), -1));
  FaultPlan zero;
  zero.seed = 42;
  for (std::int64_t t = 0; t < 500; ++t) {
    EXPECT_FALSE(crash_starts(zero, fault_node_key(0, 0), t));
    EXPECT_FALSE(straggle_starts(zero, fault_node_key(0, 0), t));
    EXPECT_FALSE(partition_starts(zero, 0, t));
  }
}

// ---- injector -------------------------------------------------------------

/// Records every actuator call and mirrors the applied state.
class RecordingTarget : public FaultTarget {
 public:
  explicit RecordingTarget(std::size_t nodes)
      : down_(nodes, false), slow_(nodes, 1.0) {}

  std::size_t num_fault_nodes() const override { return down_.size(); }
  void apply_node_down(std::size_t node, bool down) override {
    down_[node] = down;
    ++transitions_;
  }
  void apply_node_slow(std::size_t node, double factor) override {
    slow_[node] = factor;
    ++transitions_;
  }

  std::vector<bool> down_;
  std::vector<double> slow_;
  int transitions_ = 0;
};

/// Drive `injector` through tick `t` the way CapesSystem does: on_tick at
/// the barrier, then the scheduled transition events execute in the next
/// simulator advance.
void step(Simulator& sim, FaultInjector& injector, std::int64_t t) {
  injector.on_tick(t);
  sim.run_until(sim.now() + 1);
}

TEST(FaultInjector, AppliedStateTracksPureFatesExactly) {
  const FaultPlan plan = busy_plan();
  Simulator sim;
  RecordingTarget target(4);
  FaultInjector injector(sim, plan, 0, &target);
  int crashes_seen = 0;
  for (std::int64_t t = 0; t < 300; ++t) {
    step(sim, injector, t);
    for (std::uint32_t n = 0; n < 4; ++n) {
      const std::uint64_t key = fault_node_key(0, n);
      // After the transition events run, the target's state must equal
      // the pure window predicate at this tick — which pins restart
      // scheduling to the exact tick: the restore lands on the first
      // tick ost_down turns false, restart_ticks after the last start.
      EXPECT_EQ(target.down_[n], ost_down(plan, key, t))
          << "node " << n << " tick " << t;
      const double expected_slow =
          disk_straggling(plan, key, t) ? plan.slow_factor : 1.0;
      EXPECT_EQ(target.slow_[n], expected_slow)
          << "node " << n << " tick " << t;
      crashes_seen += crash_starts(plan, key, t);
    }
    EXPECT_EQ(injector.partitioned(t), domain_partitioned(plan, 0, t));
  }
  ASSERT_GT(crashes_seen, 0) << "rate too low to exercise the window";
  EXPECT_EQ(injector.counters().ost_crashes,
            static_cast<std::uint64_t>(crashes_seen));
}

TEST(FaultInjector, RestartLandsOnExactTick) {
  // A plan whose hash fires at least one crash in 200 ticks on node 0;
  // find an isolated start (no second start inside its window) and pin
  // the restore to start + restart_ticks exactly.
  const FaultPlan plan = busy_plan();
  const std::uint64_t key = fault_node_key(0, 0);
  std::int64_t start = -1;
  for (std::int64_t t = 0; t < 2000; ++t) {
    if (!crash_starts(plan, key, t)) continue;
    bool isolated = true;
    for (std::int64_t s = t + 1; s < t + plan.restart_ticks; ++s) {
      isolated = isolated && !crash_starts(plan, key, s);
    }
    if (isolated) {
      start = t;
      break;
    }
  }
  ASSERT_GE(start, 0) << "no isolated crash in 2000 ticks";

  Simulator sim;
  RecordingTarget target(1);
  FaultInjector injector(sim, plan, 0, &target);
  for (std::int64_t t = 0; t <= start + plan.restart_ticks; ++t) {
    step(sim, injector, t);
    if (t >= start && t < start + plan.restart_ticks) {
      EXPECT_TRUE(target.down_[0]) << "tick " << t;
    }
  }
  // The restore landed on exactly start + restart_ticks, not one late.
  EXPECT_FALSE(target.down_[0]);
}

TEST(FaultInjector, CountersAndEventsMatchStarts) {
  const FaultPlan plan = busy_plan();
  Simulator sim;
  RecordingTarget target(4);
  FaultInjector injector(sim, plan, 2, &target);
  FaultCounters expected;
  for (std::int64_t t = 0; t < 200; ++t) {
    step(sim, injector, t);
    bool any_active = injector.partitioned(t);
    std::size_t starts = 0;
    for (std::uint32_t n = 0; n < 4; ++n) {
      const std::uint64_t key = fault_node_key(2, n);
      expected.ost_crashes += crash_starts(plan, key, t);
      expected.stragglers += straggle_starts(plan, key, t);
      starts += crash_starts(plan, key, t) + straggle_starts(plan, key, t);
      any_active = any_active || ost_down(plan, key, t) ||
                   disk_straggling(plan, key, t);
    }
    expected.partitions += partition_starts(plan, 2, t);
    starts += partition_starts(plan, 2, t);
    expected.faults_injected += starts;
    expected.ticks_degraded += any_active;
    // last_events carries every start plus the kDegraded marker.
    EXPECT_EQ(injector.last_events().size(), starts + (any_active ? 1 : 0));
  }
  EXPECT_EQ(injector.counters().faults_injected, expected.faults_injected);
  EXPECT_EQ(injector.counters().ost_crashes, expected.ost_crashes);
  EXPECT_EQ(injector.counters().stragglers, expected.stragglers);
  EXPECT_EQ(injector.counters().partitions, expected.partitions);
  EXPECT_EQ(injector.counters().ticks_degraded, expected.ticks_degraded);
}

TEST(FaultInjector, ZeroRatePlanIsANoOp) {
  FaultPlan zero;
  zero.seed = 7;
  EXPECT_FALSE(zero.enabled());
  Simulator sim;
  RecordingTarget target(4);
  FaultInjector injector(sim, zero, 0, &target);
  for (std::int64_t t = 0; t < 100; ++t) step(sim, injector, t);
  EXPECT_EQ(target.transitions_, 0);
  EXPECT_EQ(injector.counters().faults_injected, 0u);
  EXPECT_EQ(injector.counters().ticks_degraded, 0u);
  EXPECT_TRUE(injector.last_events().empty());
}

TEST(FaultInjector, NullTargetAppliesOnlyPartitions) {
  const FaultPlan plan = busy_plan();
  Simulator sim;
  FaultInjector injector(sim, plan, 0, nullptr);
  for (std::int64_t t = 0; t < 100; ++t) step(sim, injector, t);
  EXPECT_EQ(injector.counters().ost_crashes, 0u);
  EXPECT_EQ(injector.counters().stragglers, 0u);
  EXPECT_GT(injector.counters().partitions, 0u);
}

}  // namespace
}  // namespace capes::sim
