// Flight-recorder integration: a seeded live run captured at the daemon
// boundary, replayed into a fresh daemon + engine, must reproduce the
// live training fingerprint bit-for-bit (the round-trip guarantee).
// Also pinned here: torn-tail tolerance, config-overlay (diff) replays
// on identical traffic, and the capture hot path staying allocation-free
// once warm.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "capture/wire_log_reader.hpp"
#include "capture/wire_log_writer.hpp"
#include "core/capes_system.hpp"
#include "core/presets.hpp"
#include "core/trace_replay.hpp"
#include "lustre/cluster.hpp"
#include "util/alloc_hook.hpp"
#include "util/config.hpp"
#include "workload/random_rw.hpp"

namespace capes {
namespace {

class CaptureIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("capes_capint_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "trace.cap").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

core::EvaluationPreset capture_preset() {
  auto p = core::fast_preset(7);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

struct LiveRun {
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::uint64_t records = 0;
};

/// Seeded train + tuned session with the flight recorder on.
LiveRun run_captured(const std::string& path, int train_ticks = 100,
                     int tuned_ticks = 40) {
  auto preset = capture_preset();
  preset.capes.capture_path = path;
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));
  capes.run_training(train_ticks);
  if (tuned_ticks > 0) capes.run_tuned(tuned_ticks);
  LiveRun live;
  live.fingerprint = capes.engine().weights_fingerprint();
  live.train_steps = capes.engine().total_train_steps();
  auto* writer = capes.capture_writer();
  EXPECT_NE(writer, nullptr);
  EXPECT_TRUE(writer->close());
  EXPECT_EQ(writer->records_dropped(), 0u);
  live.records = writer->records_logged();
  return live;
}

TEST_F(CaptureIntegration, RoundTripFingerprintIsBitIdentical) {
  const LiveRun live = run_captured(path_);
  ASSERT_GT(live.train_steps, 0u);
  ASSERT_GT(live.records, 0u);

  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  std::string error;
  ASSERT_TRUE(replayer.open(path_, opts, &error)) << error;
  EXPECT_TRUE(replayer.fresh_weights_match());
  const auto report = replayer.run();

  EXPECT_EQ(report.read_stats.valid_records, live.records);
  EXPECT_FALSE(report.tail_truncated);
  EXPECT_EQ(report.decode_errors, 0u);
  // Every traced suggestion is re-derived identically: same seeds, same
  // replay DB contents, same RNG consumption order.
  EXPECT_EQ(report.action_mismatches, 0u);
  EXPECT_EQ(report.total_train_steps, live.train_steps);
  EXPECT_EQ(report.weights_fingerprint, live.fingerprint);
  // Both phases show up in the report with sane tick accounting.
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0].phase, core::RunPhase::kTraining);
  EXPECT_EQ(report.phases[0].ticks, 100);
  EXPECT_GT(report.phases[0].train_steps, 0u);
  EXPECT_EQ(report.phases[1].phase, core::RunPhase::kTuned);
  EXPECT_EQ(report.phases[1].ticks, 40);
}

TEST_F(CaptureIntegration, ReplayIsRepeatable) {
  run_captured(path_, 60, 0);
  auto replay_fp = [&] {
    core::TraceReplayer replayer;
    std::string error;
    EXPECT_TRUE(replayer.open(path_, {}, &error)) << error;
    return replayer.run().weights_fingerprint;
  };
  EXPECT_EQ(replay_fp(), replay_fp());
}

TEST_F(CaptureIntegration, TornTailReplaysValidPrefix) {
  const LiveRun live = run_captured(path_, 60, 0);
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 7);

  core::TraceReplayer replayer;
  std::string error;
  ASSERT_TRUE(replayer.open(path_, {}, &error)) << error;
  const auto report = replayer.run();
  EXPECT_TRUE(report.tail_truncated);
  EXPECT_GE(report.read_stats.truncated_records, 1u);
  EXPECT_EQ(report.read_stats.valid_records, live.records - 1);
  EXPECT_GT(report.total_train_steps, 0u);
}

TEST_F(CaptureIntegration, ConfigOverlayDivergesOnIdenticalTraffic) {
  run_captured(path_, 80, 0);

  core::TraceReplayer base;
  std::string error;
  ASSERT_TRUE(base.open(path_, {}, &error)) << error;
  const auto base_report = base.run();

  // Same capture, harsher learning rate: the policy diverges, the
  // traffic (status/reward records, ticks) cannot.
  util::Config overlay;
  overlay.set("drl.learning_rate", "0.05");
  core::TraceReplayOptions opts;
  opts.conf_overlay = &overlay;
  core::TraceReplayer diff;
  ASSERT_TRUE(diff.open(path_, opts, &error)) << error;
  const auto diff_report = diff.run();

  EXPECT_EQ(diff_report.status_records, base_report.status_records);
  EXPECT_EQ(diff_report.reward_records, base_report.reward_records);
  EXPECT_EQ(diff_report.action_records, base_report.action_records);
  ASSERT_EQ(diff_report.phases.size(), base_report.phases.size());
  for (std::size_t i = 0; i < diff_report.phases.size(); ++i) {
    EXPECT_EQ(diff_report.phases[i].ticks, base_report.phases[i].ticks);
  }
  EXPECT_NE(diff_report.weights_fingerprint, base_report.weights_fingerprint);
}

TEST_F(CaptureIntegration, EmptyOverlayReplaysTheLiveRun) {
  // The overlay lands on the traced configuration, not on defaults: with
  // no keys it must replay the live run exactly, as no overlay does.
  const LiveRun live = run_captured(path_, 80, 0);
  const util::Config empty;
  core::TraceReplayOptions opts;
  opts.conf_overlay = &empty;
  core::TraceReplayer replayer;
  std::string error;
  ASSERT_TRUE(replayer.open(path_, opts, &error)) << error;
  const auto report = replayer.run();
  EXPECT_EQ(report.weights_fingerprint, live.fingerprint);
  EXPECT_EQ(report.total_train_steps, live.train_steps);
  EXPECT_EQ(report.action_mismatches, 0u);
}

TEST_F(CaptureIntegration, OverlayWithUnknownKeyFailsOpen) {
  run_captured(path_, 20, 0);
  util::Config overlay;
  overlay.set("drl.learning_rat", "0.05");
  core::TraceReplayOptions opts;
  opts.conf_overlay = &overlay;
  core::TraceReplayer replayer;
  std::string error;
  EXPECT_FALSE(replayer.open(path_, opts, &error));
  EXPECT_NE(error.find("drl.learning_rat"), std::string::npos) << error;
}

/// The meta a 128-domain fast-preset run records (5 clients and two
/// tunables per domain).
capture::TraceMeta fast_preset_meta(std::uint32_t domains) {
  const auto preset = core::fast_preset(1);
  capture::TraceMeta meta;
  meta.num_domains = domains;
  meta.num_nodes =
      domains * static_cast<std::uint32_t>(preset.cluster.num_clients);
  meta.pis_per_node = lustre::Cluster::kPisPerNode;
  meta.num_actions = 1 + 2 * 2 * domains;
  meta.ticks_per_observation = static_cast<std::uint32_t>(
      preset.capes.replay.ticks_per_observation);
  meta.num_hidden_layers =
      static_cast<std::uint32_t>(preset.capes.engine.dqn.num_hidden_layers);
  meta.hidden_size =
      static_cast<std::uint32_t>(preset.capes.engine.dqn.hidden_size);
  meta.minibatch_size =
      static_cast<std::uint32_t>(preset.capes.engine.minibatch_size);
  return meta;
}

TEST(TraceMetaCheck, AcceptsLargePresetsRejectsForgedSizes) {
  std::string error;
  EXPECT_TRUE(fast_preset_meta(128).check(&error)) << error;

  capture::TraceMeta empty = fast_preset_meta(1);
  empty.pis_per_node = 0;
  EXPECT_FALSE(empty.check(&error));
  EXPECT_NE(error.find("empty topology"), std::string::npos) << error;

  // Each sizing field alone, pushed to its wire maximum, must trip the
  // ceiling (products saturate rather than wrap back under it).
  for (int field = 0; field < 5; ++field) {
    capture::TraceMeta forged = fast_preset_meta(1);
    std::uint32_t* target[] = {&forged.hidden_size, &forged.num_hidden_layers,
                               &forged.num_nodes, &forged.ticks_per_observation,
                               &forged.minibatch_size};
    *target[field] = 0xFFFFFFFFu;
    EXPECT_FALSE(forged.check(&error)) << "field " << field;
    EXPECT_NE(error.find("above the limit"), std::string::npos) << error;
  }
}

TEST_F(CaptureIntegration, ForgedMetaSizingFailsOpen) {
  // A capture whose meta asks for a 2^32-wide network must fail open()
  // before any brain is built (capes_replay then exits 1).
  capture::TraceMeta meta = fast_preset_meta(1);
  meta.hidden_size = 0xFFFFFFFFu;
  {
    capture::WireLogWriterOptions wopts;
    wopts.path = path_;
    capture::WireLogWriter writer(wopts, meta.encode());
    const double reward = 1.0;
    writer.record_f64s(capture::RecordType::kReward, 0, 0, 0, &reward, 1);
    ASSERT_TRUE(writer.close());
  }
  core::TraceReplayer replayer;
  std::string error;
  EXPECT_FALSE(replayer.open(path_, {}, &error));
  EXPECT_NE(error.find("above the limit"), std::string::npos) << error;
}

TEST_F(CaptureIntegration, CaptureFileRecordsAllHops) {
  run_captured(path_, 50, 0);
  capture::WireLogReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path_, &error)) << error;
  std::uint64_t status = 0, reward = 0, action = 0, broadcast = 0;
  std::uint64_t phase_begin = 0, phase_end = 0;
  capture::WireRecord rec;
  while (reader.next(&rec)) {
    switch (rec.type) {
      case capture::RecordType::kStatus: ++status; break;
      case capture::RecordType::kReward: ++reward; break;
      case capture::RecordType::kAction: ++action; break;
      case capture::RecordType::kBroadcast: ++broadcast; break;
      case capture::RecordType::kPhaseBegin: ++phase_begin; break;
      case capture::RecordType::kPhaseEnd: ++phase_end; break;
      default: break;
    }
  }
  EXPECT_FALSE(reader.tail_truncated());
  // All three bus hops appear: PI status, checked-action broadcasts and
  // per-tick actions, plus the reward stream and phase markers.
  EXPECT_GT(status, 0u);
  EXPECT_EQ(reward, 50u);
  EXPECT_EQ(action, 50u);
  EXPECT_GT(broadcast, 0u);
  EXPECT_EQ(phase_begin, 1u);
  EXPECT_EQ(phase_end, 1u);
}

// With the recorder on, the warm capture path must stay allocation-free:
// records are copied into recycled slot capacity, never fresh heap.
TEST_F(CaptureIntegration, WarmCapturePathIsAllocationFree) {
  if (!util::allocation_hook_active()) {
    GTEST_SKIP() << "counting allocator hook not linked in";
  }
  auto preset = capture_preset();
  preset.capes.capture_path = path_;
  preset.capes.capture_ring = 16;  // tiny pool so every slot warms up
  preset.capes.engine.learner_mode = core::LearnerMode::kSync;
  preset.capes.worker_threads = 0;
  preset.capes.replay.max_ticks_retained = 64;

  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  capes.run_training(120);
  const std::uint64_t warm = capes.hot_path_allocations();
  capes.run_training(80);
  const std::uint64_t after = capes.hot_path_allocations();
  EXPECT_EQ(after - warm, 0u)
      << "capture-on tick path allocated " << (after - warm)
      << " times across 80 steady-state ticks";
}

}  // namespace
}  // namespace capes
