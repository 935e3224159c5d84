// Fault-regime integration: the acceptance pins for deterministic fault
// injection. A build that never calls faults() (or passes "off") is
// bit-identical to pre-fault behaviour; a seeded faulted run is
// bit-identical run-to-run, at any shard/thread count, under the rate
// shard plan, and composes with the sim transport's own drops; an OST
// crash mid-phase never stalls the sampling-tick barrier (the TSan leg
// runs this suite too); and a captured faulted run replays with exactly
// the live per-phase fault counters and changepoint counts.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/trace_replay.hpp"
#include "stats/changepoint.hpp"
#include "util/config.hpp"

namespace capes::core {
namespace {

const char kBusyFaults[] =
    "faults:ost_crash=0.02,restart_ticks=8,straggler=0.05,slow_factor=6,"
    "straggler_ticks=12,partition=0.02,partition_ticks=4";

/// Train + tuned over three heterogeneous bundled domains; every
/// per-tick sample, the fault counters, and the final parameters, so any
/// divergence anywhere in the run shows up in the comparison.
std::vector<double> run_fingerprint(const std::string& faults,
                                    std::size_t sim_shards,
                                    std::size_t threads,
                                    const std::string& shard_plan = "",
                                    const std::string& transport = "") {
  auto builder = Experiment::builder()
                     .seed(7)
                     .workload("random:0.3")
                     .add_cluster("seqwrite")
                     .add_cluster("random:0.7")
                     .warmup_seconds(2)
                     .worker_threads(threads)
                     .sim_shards(sim_shards);
  if (!faults.empty()) builder.faults(faults);
  if (!shard_plan.empty()) builder.shard_plan(shard_plan);
  if (!transport.empty()) builder.transport(transport);
  std::string error;
  auto exp = builder.build(&error);
  EXPECT_NE(exp, nullptr) << error;
  if (!exp) return {};
  const PhaseReport training = exp->run_training(50);
  const PhaseReport tuned = exp->run_tuned(20);

  std::vector<double> out;
  for (const PhaseReport* phase : {&training, &tuned}) {
    const auto& tput = phase->result.throughput.samples();
    const auto& lat = phase->result.latency_ms.samples();
    out.insert(out.end(), tput.begin(), tput.end());
    out.insert(out.end(), lat.begin(), lat.end());
    out.insert(out.end(), phase->result.rewards.begin(),
               phase->result.rewards.end());
    out.push_back(static_cast<double>(phase->result.messages_late));
    out.push_back(static_cast<double>(phase->result.messages_dropped));
    out.push_back(static_cast<double>(phase->result.faults_injected));
    out.push_back(static_cast<double>(phase->result.ost_crashes));
    out.push_back(static_cast<double>(phase->result.stragglers));
    out.push_back(static_cast<double>(phase->result.partitions));
    out.push_back(static_cast<double>(phase->result.ticks_degraded));
    out.push_back(static_cast<double>(phase->result.regime_shifts));
  }
  const std::vector<double> params = exp->parameter_values();
  out.insert(out.end(), params.begin(), params.end());
  return out;
}

TEST(Faults, OffIsBitIdenticalToNeverConfigured) {
  // The first acceptance pin: an explicit "off" spec and a builder that
  // never mentions faults produce identical runs — the fault seam adds
  // no RNG draws, no transport wrap, no float perturbation.
  const std::vector<double> unset = run_fingerprint("", 1, 0);
  const std::vector<double> off = run_fingerprint("off", 1, 0);
  ASSERT_FALSE(unset.empty());
  EXPECT_EQ(unset, off);
}

TEST(Faults, OffReportsZeroCountersAndComputesRegimeShifts) {
  std::string error;
  auto exp = Experiment::builder()
                 .seed(7)
                 .workload("random:0.3")
                 .warmup_seconds(2)
                 .build(&error);
  ASSERT_NE(exp, nullptr) << error;
  const PhaseReport training = exp->run_training(40);
  EXPECT_EQ(training.result.faults_injected, 0u);
  EXPECT_EQ(training.result.ticks_degraded, 0u);
  // regime_shifts is computed unconditionally (live and replay must
  // agree whether or not faults fired) — just not printed when off.
  EXPECT_EQ(training.result.regime_shifts,
            stats::pelt_mean_shift(training.result.throughput.samples())
                .size());
}

TEST(Faults, SeededFaultedRunIsRepeatable) {
  const std::vector<double> first = run_fingerprint(kBusyFaults, 1, 0);
  const std::vector<double> second = run_fingerprint(kBusyFaults, 1, 0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first, run_fingerprint("", 1, 0));  // the faults actually bite
}

TEST(Faults, FaultedRunBitIdenticalAcrossShardAndThreadCounts) {
  // The core determinism pin: fates are pure hashes of
  // (seed, kind, node, tick), injection runs at the barrier under the
  // domain's shard binding, so partitioning and thread count are
  // invisible.
  const std::vector<double> serial = run_fingerprint(kBusyFaults, 1, 0);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_fingerprint(kBusyFaults, 0, 0));
  EXPECT_EQ(serial, run_fingerprint(kBusyFaults, 0, 3));
  EXPECT_EQ(serial, run_fingerprint(kBusyFaults, 2, 2));
}

TEST(Faults, FaultedRunBitIdenticalUnderRateShardPlan) {
  // Injected transitions are scheduled into the domain-tagged queue, so
  // they migrate with the domain when the rate plan re-packs at phase
  // boundaries.
  const std::vector<double> serial =
      run_fingerprint(kBusyFaults, 1, 0, "static");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_fingerprint(kBusyFaults, 0, 3, "rate"));
}

TEST(Faults, ComposesWithSimTransportDrops) {
  // Partition windows OR onto the sim transport's own per-message drop
  // fates (FaultingTransport wraps, never replaces) — and the composed
  // run stays bit-identical across shard/thread counts.
  const std::string transport = "sim:latency_ticks=1,jitter=2,drop=0.1";
  const std::vector<double> serial =
      run_fingerprint(kBusyFaults, 1, 0, "", transport);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_fingerprint(kBusyFaults, 0, 3, "rate", transport));
  // The partitions drop strictly more messages than the transport alone.
  const std::vector<double> transport_only =
      run_fingerprint("", 1, 0, "", transport);
  EXPECT_NE(serial, transport_only);
}

TEST(Faults, PartitionsSurfaceAsDroppedMessages) {
  // Partition windows on the default (sync) transport: the only message
  // loss possible comes from the fault seam.
  std::string error;
  auto exp = Experiment::builder()
                 .seed(7)
                 .workload("random:0.3")
                 .add_cluster("seqwrite")
                 .warmup_seconds(2)
                 .faults("faults:partition=0.05,partition_ticks=6")
                 .build(&error);
  ASSERT_NE(exp, nullptr) << error;
  const PhaseReport training = exp->run_training(60);
  EXPECT_GT(training.result.partitions, 0u);
  EXPECT_GT(training.result.messages_dropped, 0u);
  EXPECT_EQ(training.result.ost_crashes, 0u);
  EXPECT_EQ(training.result.stragglers, 0u);
}

TEST(Faults, OstCrashMidPhaseNeverStallsTheBarrier) {
  // A harsh crash regime (every server down ~20% of ticks) on the worker
  // pool with sharded queues: the run must complete every tick — queued
  // I/O is rejected, in-flight replies suppressed, and the OSC-side
  // retransmit machinery absorbs the gap without deadlock. The TSan CI
  // leg runs this test too.
  std::string error;
  auto exp = Experiment::builder()
                 .seed(11)
                 .workload("random:0.3")
                 .add_cluster("seqwrite")
                 .warmup_seconds(2)
                 .worker_threads(2)
                 .sim_shards(0)
                 .faults("faults:ost_crash=0.03,restart_ticks=8")
                 .build(&error);
  ASSERT_NE(exp, nullptr) << error;
  const PhaseReport training = exp->run_training(80);
  EXPECT_EQ(training.result.rewards.size(), 80u);
  EXPECT_GT(training.result.ost_crashes, 0u);
  EXPECT_GT(training.result.ticks_degraded, 0u);
  const PhaseReport tuned = exp->run_tuned(30);
  EXPECT_EQ(tuned.result.rewards.size(), 30u);
}

TEST(Faults, CapturedFaultedRunReplaysWithIdenticalCounters) {
  // Capture/replay parity: every kFault record written live lets the
  // replayer rebuild the exact per-phase counters, and the changepoint
  // statistic recomputed from the traced per-tick throughput matches the
  // live run's.
  const std::string path = ::testing::TempDir() + "faulted_trace.cap";
  std::string error;
  auto exp = Experiment::builder()
                 .seed(7)
                 .workload("random:0.3")
                 .warmup_seconds(2)
                 .faults(kBusyFaults)
                 .capture(path)
                 .build(&error);
  ASSERT_NE(exp, nullptr) << error;
  const PhaseReport training = exp->run_training(60);
  const PhaseReport tuned = exp->run_tuned(25);
  ASSERT_GT(training.result.faults_injected, 0u);
  const std::uint32_t live_fingerprint =
      exp->system().training_fingerprint();
  ASSERT_TRUE(exp->system().capture_writer()->close());
  ASSERT_EQ(exp->system().capture_writer()->records_dropped(), 0u);

  TraceReplayer replayer;
  ASSERT_TRUE(replayer.open(path, {}, &error)) << error;
  const TraceReplayReport replay = replayer.run();
  std::remove(path.c_str());

  EXPECT_EQ(replay.weights_fingerprint, live_fingerprint);
  EXPECT_GT(replay.fault_records, 0u);
  ASSERT_EQ(replay.phases.size(), 2u);
  const PhaseReport* live_phases[] = {&training, &tuned};
  for (std::size_t i = 0; i < 2; ++i) {
    const RunResult& live = live_phases[i]->result;
    const ReplayPhaseSummary& traced = replay.phases[i];
    EXPECT_EQ(traced.faults_injected, live.faults_injected) << "phase " << i;
    EXPECT_EQ(traced.ost_crashes, live.ost_crashes) << "phase " << i;
    EXPECT_EQ(traced.stragglers, live.stragglers) << "phase " << i;
    EXPECT_EQ(traced.partitions, live.partitions) << "phase " << i;
    EXPECT_EQ(traced.ticks_degraded, live.ticks_degraded) << "phase " << i;
    EXPECT_EQ(traced.regime_shifts, live.regime_shifts) << "phase " << i;
  }
}

TEST(Faults, MalformedSpecFailsTheBuild) {
  std::string error;
  auto exp = Experiment::builder()
                 .workload("random:0.5")
                 .faults("faults:gremlins=0.1")
                 .build(&error);
  EXPECT_EQ(exp, nullptr);
  EXPECT_NE(error.find("gremlins"), std::string::npos) << error;
}

TEST(Faults, TcpTransportRejectsFaults) {
  // Fault fates are functions of the simulated tick clock; a real
  // control network has none to share. The builder refuses the combo.
  std::string error;
  auto exp = Experiment::builder()
                 .workload("random:0.5")
                 .faults("faults:ost_crash=0.01")
                 .transport("tcp:host=localhost,port=4242")
                 .build(&error);
  EXPECT_EQ(exp, nullptr);
  EXPECT_NE(error.find("tcp"), std::string::npos) << error;
}

TEST(Faults, ConfKeysRoundTripAndClamp) {
  // The overlay path: capes.sim.faults.* keys land in the plan (clamping
  // out-of-range values, like every conf numeric), and an explicit plan
  // emits keys that read back identically.
  const std::string path = ::testing::TempDir() + "faults.conf";
  {
    std::ofstream out(path);
    out << "capes.sim.faults.ost_crash = 0.01\n"
        << "capes.sim.faults.restart_ticks = 9\n"
        << "capes.sim.faults.straggler = 2.0\n"   // clamps to 0.999
        << "capes.sim.faults.slow_factor = 0.5\n" // clamps to 1.0
        << "capes.sim.faults.partition = 0.003\n"
        << "capes.sim.faults.seed = 77\n";
  }
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_file(path));
  std::remove(path.c_str());
  CapesOptions opts;
  lustre::ClusterOptions cluster;
  std::string error;
  ASSERT_TRUE(apply_config(cfg, &opts, &cluster, &error)) << error;
  EXPECT_DOUBLE_EQ(opts.faults.ost_crash, 0.01);
  EXPECT_EQ(opts.faults.restart_ticks, 9);
  EXPECT_DOUBLE_EQ(opts.faults.straggler, 0.999);
  EXPECT_DOUBLE_EQ(opts.faults.slow_factor, 1.0);
  EXPECT_DOUBLE_EQ(opts.faults.partition, 0.003);
  EXPECT_EQ(opts.faults.seed, 77u);
  EXPECT_TRUE(opts.faults.seed_explicit);

  const util::Config dumped = config_from_options(opts, {});
  CapesOptions reread;
  ASSERT_TRUE(apply_config(dumped, &reread, &cluster, &error)) << error;
  EXPECT_DOUBLE_EQ(reread.faults.ost_crash, opts.faults.ost_crash);
  EXPECT_EQ(reread.faults.restart_ticks, opts.faults.restart_ticks);
  EXPECT_DOUBLE_EQ(reread.faults.straggler, opts.faults.straggler);
  EXPECT_DOUBLE_EQ(reread.faults.slow_factor, opts.faults.slow_factor);
  EXPECT_DOUBLE_EQ(reread.faults.partition, opts.faults.partition);
  EXPECT_EQ(reread.faults.seed, opts.faults.seed);

  // A faultless options struct emits no capes.sim.faults.* keys at all:
  // dumped configs from faultless runs stay byte-identical to pre-fault
  // builds.
  const util::Config clean = config_from_options(CapesOptions{}, {});
  EXPECT_FALSE(clean.get("capes.sim.faults.ost_crash").has_value());
  EXPECT_FALSE(clean.get("capes.sim.faults.seed").has_value());
}

}  // namespace
}  // namespace capes::core
