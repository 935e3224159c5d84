// Integration coverage for the asynchronous learner and the
// allocation-free tick path, on the full simulated Lustre stack:
//   * async training is bit-identical to sync (same weights, same
//     per-tick results), with and without a worker pool;
//   * async runs are deterministic run-to-run;
//   * learner checkpoints written mid-phase rebuild a tuner that
//     resumes training with the exact interrupted state;
//   * the steady-state tick path performs zero heap allocations in
//     the audited configuration, with the brain in process or behind a
//     loopback tcp link.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/capes_system.hpp"
#include "core/presets.hpp"
#include "lustre/cluster.hpp"
#include "util/alloc_hook.hpp"
#include "workload/random_rw.hpp"
#include "service_thread.hpp"

namespace capes {
namespace {

core::EvaluationPreset learner_preset() {
  auto p = core::fast_preset(11);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

/// One full training session; returns the per-tick throughput samples
/// plus the final policy fingerprint and train-step count.
struct SessionResult {
  std::vector<double> throughput;
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::int64_t training_ticks = 0;
};

SessionResult run_session(const core::EvaluationPreset& preset,
                          std::int64_t ticks) {
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));
  const auto result = capes.run_training(ticks);
  SessionResult out;
  out.throughput.assign(result.throughput.samples().begin(),
                        result.throughput.samples().end());
  out.fingerprint = capes.engine().weights_fingerprint();
  out.train_steps = capes.engine().total_train_steps();
  out.training_ticks = capes.engine().training_ticks();
  return out;
}

TEST(LearnerIntegration, AsyncPhaseIsBitIdenticalToSync) {
  auto sync_preset = learner_preset();
  sync_preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  auto async_preset = learner_preset();
  async_preset.capes.engine.learner_mode = core::LearnerMode::kAsync;

  const auto s = run_session(sync_preset, 120);
  const auto a = run_session(async_preset, 120);

  ASSERT_GT(s.train_steps, 0u);
  EXPECT_EQ(s.train_steps, a.train_steps);
  EXPECT_EQ(s.fingerprint, a.fingerprint);
  EXPECT_EQ(s.throughput, a.throughput);
}

TEST(LearnerIntegration, AsyncWithWorkerPoolStillMatchesSerialSync) {
  auto sync_preset = learner_preset();
  sync_preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  sync_preset.capes.worker_threads = 0;
  auto async_preset = learner_preset();
  async_preset.capes.engine.learner_mode = core::LearnerMode::kAsync;
  async_preset.capes.worker_threads = 4;

  const auto s = run_session(sync_preset, 100);
  const auto a = run_session(async_preset, 100);

  ASSERT_GT(s.train_steps, 0u);
  EXPECT_EQ(s.train_steps, a.train_steps);
  EXPECT_EQ(s.fingerprint, a.fingerprint);
  EXPECT_EQ(s.throughput, a.throughput);
}

TEST(LearnerIntegration, AsyncRunsAreDeterministicRunToRun) {
  auto preset = learner_preset();
  preset.capes.engine.learner_mode = core::LearnerMode::kAsync;
  preset.capes.worker_threads = 2;

  const auto a = run_session(preset, 100);
  const auto b = run_session(preset, 100);

  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.train_steps, b.train_steps);
  EXPECT_EQ(a.throughput, b.throughput);
}

// Satellite: kill an async training session mid-phase and rebuild the
// tuner from its durable learner checkpoint. With checkpoint_ticks=1
// the last checkpoint captures the exact interrupted state, so the
// rebuilt engine must resume with the same weights, train-step count
// and epsilon clock — and keep training from there.
TEST(LearnerIntegration, CheckpointRebuildsTunerMidTraining) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "capes_learner_ckpt_test";
  std::filesystem::remove_all(dir);

  auto preset = learner_preset();
  preset.capes.engine.learner_mode = core::LearnerMode::kAsync;
  preset.capes.engine.checkpoint_ticks = 1;
  preset.capes.replay_db_dir = dir.string();

  SessionResult interrupted;
  {
    sim::Simulator sim;
    lustre::Cluster cluster(sim, preset.cluster);
    workload::RandomRwOptions wopts;
    wopts.read_fraction = 0.1;
    workload::RandomRw wl(cluster, wopts);
    wl.start();
    core::CapesSystem capes(sim, cluster, preset.capes);
    sim.run_until(sim::seconds(3));
    capes.run_training(90);
    ASSERT_GT(capes.engine().checkpoints_written(), 0u);
    interrupted.fingerprint = capes.engine().weights_fingerprint();
    interrupted.train_steps = capes.engine().total_train_steps();
    interrupted.training_ticks = capes.engine().training_ticks();
    // The system is destroyed here without any explicit save — the
    // durable checkpoint is all a restarted tuner gets.
  }
  ASSERT_GT(interrupted.train_steps, 0u);

  {
    sim::Simulator sim;
    lustre::Cluster cluster(sim, preset.cluster);
    workload::RandomRwOptions wopts;
    wopts.read_fraction = 0.1;
    workload::RandomRw wl(cluster, wopts);
    wl.start();
    core::CapesSystem capes(sim, cluster, preset.capes);
    // Restored in the constructor, before any new training.
    EXPECT_EQ(capes.engine().weights_fingerprint(), interrupted.fingerprint);
    EXPECT_EQ(capes.engine().total_train_steps(), interrupted.train_steps);
    EXPECT_EQ(capes.engine().training_ticks(), interrupted.training_ticks);

    // And the resumed tuner trains onward.
    sim.run_until(sim::seconds(3));
    capes.run_training(40);
    EXPECT_GT(capes.engine().total_train_steps(), interrupted.train_steps);
  }

  std::filesystem::remove_all(dir);
}

// The audited configuration: sync learner, no worker pool, memory-only
// DB, bounded replay retention. After warm-up the per-tick control path
// must not touch the heap at all. `tcp_port` 0 keeps the brain in
// process; otherwise it is a BrainService on that loopback port, whose
// thread shares the process-wide allocation counter.
void expect_steady_state_tick_path_allocation_free(std::uint16_t tcp_port) {
  auto preset = learner_preset();
  preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  preset.capes.worker_threads = 0;
  preset.capes.replay.max_ticks_retained = 64;
  if (tcp_port != 0) {
    preset.capes.transport.kind = bus::TransportKind::kTcp;
    preset.capes.transport.tcp_host = "127.0.0.1";
    preset.capes.transport.tcp_port = tcp_port;
  }

  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  // Warm up: fill the replay window, trigger retention trimming, grow
  // every scratch buffer and payload pool to its steady-state size.
  capes.run_training(120);
  const std::uint64_t warm = capes.hot_path_allocations();

  capes.run_training(80);
  const std::uint64_t after = capes.hot_path_allocations();
  EXPECT_EQ(after - warm, 0u)
      << "tick path allocated " << (after - warm)
      << " times across 80 steady-state ticks";
}

TEST(LearnerIntegration, SteadyStateTickPathIsAllocationFree) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  expect_steady_state_tick_path_allocation_free(0);
}

TEST(LearnerIntegration, SteadyStateTickPathIsAllocationFreeOverTcp) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  testing::ServiceThread service;
  ASSERT_TRUE(service.start());
  expect_steady_state_tick_path_allocation_free(service.port());
  const core::BrainServiceReport report = service.join();
  EXPECT_TRUE(report.hello_ok) << report.error;
  EXPECT_TRUE(report.clean_shutdown);
}

}  // namespace
}  // namespace capes
