#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

namespace capes::core {
namespace {

/// `cfg` overlaid onto `base` through the one conf entry point.
CapesOptions capes_overlay(const util::Config& cfg, CapesOptions base = {}) {
  lustre::ClusterOptions cluster;
  std::string error;
  EXPECT_TRUE(apply_config(cfg, &base, &cluster, &error)) << error;
  return base;
}

lustre::ClusterOptions cluster_overlay(const util::Config& cfg) {
  CapesOptions capes;
  lustre::ClusterOptions cluster;
  std::string error;
  EXPECT_TRUE(apply_config(cfg, &capes, &cluster, &error)) << error;
  return cluster;
}

/// The error apply_config() reports for a one-line conf (empty: accepted).
std::string overlay_error(const std::string& line) {
  util::Config cfg;
  EXPECT_TRUE(cfg.parse_string(line + "\n"));
  CapesOptions capes;
  lustre::ClusterOptions cluster;
  std::string error;
  return apply_config(cfg, &capes, &cluster, &error) ? "" : error;
}

TEST(ConfigIo, EmptyConfigKeepsDefaults) {
  util::Config cfg;
  const CapesOptions o = capes_overlay(cfg);
  const CapesOptions d;
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, d.sampling_tick_s);
  EXPECT_EQ(o.engine.minibatch_size, d.engine.minibatch_size);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, d.engine.dqn.gamma);
}

TEST(ConfigIo, CapesKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.sampling_tick_s = 0.5
capes.reward_scale_mbs = 150
drl.minibatch_size = 64
drl.gamma = 0.9
drl.learning_rate = 0.001
drl.epsilon_anneal_ticks = 1234
drl.use_target_network = false
replay.ticks_per_observation = 7
replay.missing_tolerance = 0.3
)"));
  const CapesOptions o = capes_overlay(cfg);
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, 0.5);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 150.0);
  EXPECT_EQ(o.engine.minibatch_size, 64u);
  EXPECT_FLOAT_EQ(o.engine.dqn.gamma, 0.9f);
  EXPECT_FLOAT_EQ(o.engine.dqn.learning_rate, 1e-3f);
  EXPECT_EQ(o.engine.epsilon.anneal_ticks, 1234);
  EXPECT_FALSE(o.engine.dqn.use_target_network);
  EXPECT_EQ(o.replay.ticks_per_observation, 7u);
  EXPECT_DOUBLE_EQ(o.replay.missing_tolerance, 0.3);
}

TEST(ConfigIo, ClusterKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
lustre.num_clients = 3
lustre.num_servers = 2
lustre.default_cwnd = 16
lustre.fragmentation = 0.25
disk.seq_write_mbs = 90
disk.write_queue_gain = 1.5
network.fabric_bandwidth_mbs = 250
network.base_latency_us = 500
)"));
  const auto o = cluster_overlay(cfg);
  EXPECT_EQ(o.num_clients, 3u);
  EXPECT_EQ(o.num_servers, 2u);
  EXPECT_DOUBLE_EQ(o.default_cwnd, 16.0);
  EXPECT_DOUBLE_EQ(o.fragmentation, 0.25);
  EXPECT_DOUBLE_EQ(o.disk.seq_write_mbs, 90.0);
  EXPECT_DOUBLE_EQ(o.disk.write_queue_gain, 1.5);
  EXPECT_DOUBLE_EQ(o.network.fabric_bandwidth_mbs, 250.0);
  EXPECT_EQ(o.network.base_latency, 500);
}

TEST(ConfigIo, TransportKeysApplied) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.transport = sim
capes.transport.latency_ticks = 3
capes.transport.jitter = 2.5
capes.transport.drop = 0.1
capes.transport.seed = 77
)"));
  const CapesOptions o = capes_overlay(cfg);
  EXPECT_EQ(o.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(o.transport.latency_ticks, 3);
  EXPECT_DOUBLE_EQ(o.transport.jitter, 2.5);
  EXPECT_DOUBLE_EQ(o.transport.drop, 0.1);
  EXPECT_EQ(o.transport.seed, 77u);
  EXPECT_TRUE(o.transport.seed_explicit);
  // Absent keys keep the sync default with no explicit seed.
  const CapesOptions d = capes_overlay(util::Config{});
  EXPECT_EQ(d.transport.kind, bus::TransportKind::kSync);
  EXPECT_FALSE(d.transport.seed_explicit);
}

TEST(ConfigIo, TransportKeysRoundTrip) {
  CapesOptions capes;
  capes.transport.kind = bus::TransportKind::kSim;
  capes.transport.latency_ticks = 5;
  capes.transport.jitter = 1.5;
  capes.transport.drop = 0.05;
  capes.transport.seed = 9;
  capes.transport.seed_explicit = true;
  const util::Config cfg = config_from_options(capes, lustre::ClusterOptions{});
  const CapesOptions back = capes_overlay(cfg);
  EXPECT_EQ(back.transport.kind, bus::TransportKind::kSim);
  EXPECT_EQ(back.transport.latency_ticks, 5);
  EXPECT_DOUBLE_EQ(back.transport.jitter, 1.5);
  EXPECT_DOUBLE_EQ(back.transport.drop, 0.05);
  EXPECT_EQ(back.transport.seed, 9u);
  EXPECT_TRUE(back.transport.seed_explicit);
}

TEST(ConfigIo, CaptureKeysAppliedAndRoundTrip) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.capture.path = /tmp/trace.cap
capes.capture.ring = 1024
)"));
  const CapesOptions o = capes_overlay(cfg);
  EXPECT_EQ(o.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(o.capture_ring, 1024u);

  const util::Config dumped = config_from_options(o, lustre::ClusterOptions{});
  const CapesOptions back = capes_overlay(dumped);
  EXPECT_EQ(back.capture_path, "/tmp/trace.cap");
  EXPECT_EQ(back.capture_ring, 1024u);

  // Defaults: capture off, ring floor of 2 enforced.
  const CapesOptions d = capes_overlay(util::Config{});
  EXPECT_TRUE(d.capture_path.empty());
  util::Config tiny;
  ASSERT_TRUE(tiny.parse_string("capes.capture.ring = 0\n"));
  EXPECT_EQ(capes_overlay(tiny).capture_ring, 2u);
}

TEST(ConfigIo, BaseOverridesPreserved) {
  CapesOptions base;
  base.reward_scale_mbs = 123.0;
  util::Config cfg;
  const CapesOptions o = capes_overlay(cfg, base);
  EXPECT_DOUBLE_EQ(o.reward_scale_mbs, 123.0);
}

TEST(ConfigIo, RoundTripThroughConfig) {
  CapesOptions capes;
  capes.engine.minibatch_size = 48;
  capes.engine.dqn.gamma = 0.93f;
  lustre::ClusterOptions cluster;
  cluster.num_clients = 7;
  cluster.default_cwnd = 24.0;

  const util::Config cfg = config_from_options(capes, cluster);
  const CapesOptions c2 = capes_overlay(cfg);
  const auto cl2 = cluster_overlay(cfg);
  EXPECT_EQ(c2.engine.minibatch_size, 48u);
  EXPECT_NEAR(c2.engine.dqn.gamma, 0.93f, 1e-6f);
  EXPECT_EQ(cl2.num_clients, 7u);
  EXPECT_DOUBLE_EQ(cl2.default_cwnd, 24.0);
}

TEST(ConfigIo, ConfigFromOptionsDumpsParsable) {
  const auto cfg = config_from_options(CapesOptions{}, lustre::ClusterOptions{});
  util::Config reparsed;
  EXPECT_TRUE(reparsed.parse_string(cfg.dump()));
  EXPECT_GT(reparsed.size(), 10u);
}

TEST(ConfigIo, EveryKeyRoundTripsLosslessly) {
  // One non-default, in-range value per key, each written the way
  // config_from_options() formats it and distinct enough that a writer
  // reading the wrong member shows up as a mismatch below.
  const std::map<std::string, std::string> values = {
      {"capes.sampling_tick_s", "0.5"},
      {"capes.reward_scale_mbs", "160.5"},
      {"capes.replay_db_dir", "db_dir"},
      {"capes.capture.path", "trace.cap"},
      {"capes.capture.ring", "1024"},
      {"capes.worker_threads", "3"},
      {"capes.sim.shards", "auto"},
      {"capes.sim.shard_plan", "rate"},
      {"capes.transport", "tcp"},
      {"capes.transport.latency_ticks", "4"},
      {"capes.transport.jitter", "1.25"},
      {"capes.transport.drop", "0.0625"},
      {"capes.transport.seed", "18446744073709551615"},
      {"capes.transport.tcp.host", "10.0.0.7"},
      {"capes.transport.tcp.port", "4890"},
      {"capes.transport.tcp.connect_timeout_ms", "2500"},
      {"capes.transport.tcp.io_threads", "6"},
      {"capes.sim.faults.ost_crash", "0.03125"},
      {"capes.sim.faults.restart_ticks", "11"},
      {"capes.sim.faults.straggler", "0.015625"},
      {"capes.sim.faults.slow_factor", "6.5"},
      {"capes.sim.faults.straggler_ticks", "21"},
      {"capes.sim.faults.partition", "0.0078125"},
      {"capes.sim.faults.partition_ticks", "7"},
      {"capes.sim.faults.seed", "99"},
      {"capes.learner.mode", "async"},
      {"capes.learner.checkpoint_ticks", "50"},
      {"drl.minibatch_size", "48"},
      {"drl.train_steps_per_tick", "5"},
      {"drl.eval_epsilon", "0.09375"},
      {"drl.gamma", "0.875"},
      {"drl.learning_rate", "0.0009765625"},
      {"drl.target_update_alpha", "0.046875"},
      {"drl.num_hidden_layers", "8"},
      {"drl.hidden_size", "96"},
      {"drl.use_target_network", "false"},
      {"drl.epsilon_initial", "0.75"},
      {"drl.epsilon_final", "0.1875"},
      {"drl.epsilon_anneal_ticks", "1234"},
      {"drl.epsilon_bump", "0.3125"},
      {"replay.ticks_per_observation", "9"},
      {"replay.missing_tolerance", "0.4375"},
      {"replay.max_ticks_retained", "5000"},
      {"lustre.num_clients", "12"},
      {"lustre.num_servers", "10"},
      {"lustre.default_cwnd", "24.5"},
      {"lustre.cwnd_min", "2.5"},
      {"lustre.cwnd_max", "96.5"},
      {"lustre.cwnd_step", "4.5"},
      {"lustre.default_rate_limit", "3500.5"},
      {"lustre.rate_limit_min", "750.5"},
      {"lustre.rate_limit_max", "3750.5"},
      {"lustre.rate_limit_step", "125.5"},
      {"lustre.max_dirty_bytes", "16777216"},
      {"lustre.rpc_timeout_us", "30000000"},
      {"lustre.fragmentation", "0.15625"},
      {"lustre.disk_fullness", "0.5625"},
      {"lustre.seed", "4321"},
      {"disk.seq_read_mbs", "120.5"},
      {"disk.seq_write_mbs", "98.5"},
      {"disk.read_positioning_us", "9000"},
      {"disk.write_positioning_us", "13000"},
      {"disk.write_queue_gain", "1.75"},
      {"disk.write_queue_scale", "110.5"},
      {"disk.read_queue_gain", "0.28125"},
      {"disk.read_queue_scale", "18.5"},
      {"disk.service_noise", "0.0546875"},
      {"network.link_bandwidth_mbs", "117.5"},
      {"network.fabric_bandwidth_mbs", "450.5"},
      {"network.base_latency_us", "175"},
      {"network.jitter_fraction", "0.0234375"},
  };
  // The map covers the table exactly: a new key must join this test.
  std::vector<std::string> keys = conf_keys();
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> covered;
  for (const auto& [key, value] : values) covered.push_back(key);
  ASSERT_EQ(keys, covered);

  util::Config cfg;
  for (const auto& [key, value] : values) cfg.set(key, value);
  CapesOptions capes;
  lustre::ClusterOptions cluster;
  std::string error;
  ASSERT_TRUE(apply_config(cfg, &capes, &cluster, &error)) << error;

  const util::Config dumped = config_from_options(capes, cluster);
  const util::Config defaults =
      config_from_options(CapesOptions{}, lustre::ClusterOptions{});
  for (const auto& [key, value] : values) {
    EXPECT_EQ(dumped.get(key), value) << key;
    EXPECT_NE(defaults.get(key), value) << key << " default";
  }

  CapesOptions capes2;
  lustre::ClusterOptions cluster2;
  ASSERT_TRUE(apply_config(dumped, &capes2, &cluster2, &error)) << error;
  EXPECT_EQ(config_from_options(capes2, cluster2).dump(), dumped.dump());
  // The 22 keys the hand-written writer used to drop come back too.
  EXPECT_DOUBLE_EQ(capes2.engine.epsilon.bump_value, 0.3125);
  EXPECT_EQ(capes2.replay.max_ticks_retained, 5000u);
  EXPECT_DOUBLE_EQ(cluster2.cwnd_min, 2.5);
  EXPECT_DOUBLE_EQ(cluster2.cwnd_step, 4.5);
  EXPECT_DOUBLE_EQ(cluster2.rate_limit_min, 750.5);
  EXPECT_DOUBLE_EQ(cluster2.rate_limit_max, 3750.5);
  EXPECT_DOUBLE_EQ(cluster2.rate_limit_step, 125.5);
  EXPECT_EQ(cluster2.max_dirty_bytes, 16777216u);
  EXPECT_EQ(cluster2.rpc_timeout, 30000000);
  EXPECT_DOUBLE_EQ(cluster2.fragmentation, 0.15625);
  EXPECT_DOUBLE_EQ(cluster2.disk_fullness, 0.5625);
  EXPECT_EQ(cluster2.seed, 4321u);
  EXPECT_EQ(cluster2.disk.read_positioning_us, 9000);
  EXPECT_EQ(cluster2.disk.write_positioning_us, 13000);
  EXPECT_DOUBLE_EQ(cluster2.disk.write_queue_gain, 1.75);
  EXPECT_DOUBLE_EQ(cluster2.disk.write_queue_scale, 110.5);
  EXPECT_DOUBLE_EQ(cluster2.disk.read_queue_gain, 0.28125);
  EXPECT_DOUBLE_EQ(cluster2.disk.read_queue_scale, 18.5);
  EXPECT_DOUBLE_EQ(cluster2.disk.service_noise, 0.0546875);
  EXPECT_DOUBLE_EQ(cluster2.network.link_bandwidth_mbs, 117.5);
  EXPECT_EQ(cluster2.network.base_latency, 175);
  EXPECT_DOUBLE_EQ(cluster2.network.jitter_fraction, 0.0234375);
  // And a sample of the rest, enums and the u64 seed included.
  EXPECT_EQ(capes2.transport.kind, bus::TransportKind::kTcp);
  EXPECT_EQ(capes2.transport.seed, 18446744073709551615ull);
  EXPECT_EQ(capes2.engine.learner_mode, LearnerMode::kAsync);
  EXPECT_EQ(capes2.shard_plan, sim::ShardPlanKind::kRate);
  EXPECT_EQ(capes2.sim_shards, 0u);
  EXPECT_FLOAT_EQ(capes2.engine.dqn.learning_rate, 0.0009765625f);
}

TEST(ConfigIo, BadInputFailsNamingTheKey) {
  // Unknown keys, values the strict parsers reject (nan and inf
  // included) and unknown enum spellings all fail; none falls back.
  for (const char* line : {
           "drl.learning_rat = 1",
           "drl.minibatch_size = 32x",
           "drl.learning_rate = nan",
           "drl.gamma = inf",
           "drl.gamma = 1e300",  // finite as a double, not as a float
           "disk.seq_read_mbs = 0x10",
           "drl.use_target_network = maybe",
           "lustre.seed = -1",
           "capes.transport = simulated",
           "capes.learner.mode = asink",
           "capes.sim.shard_plan = rat",
           "capes.sim.shards = atuo",
       }) {
    const std::string key(line, std::string(line).find(' '));
    EXPECT_NE(overlay_error(line).find(key), std::string::npos)
        << line << " -> '" << overlay_error(line) << "'";
  }
  EXPECT_EQ(overlay_error("drl.use_target_network = OFF"), "");
}

TEST(ConfigIo, OutOfRangeNumbersClamp) {
  util::Config cfg;
  ASSERT_TRUE(cfg.parse_string(R"(
capes.transport.drop = 2.0
capes.transport.tcp.port = 70000
capes.transport.tcp.io_threads = 0
capes.worker_threads = -3
capes.sim.shards = -2
capes.sim.faults.slow_factor = 0.5
replay.max_ticks_retained = -1
capes.sampling_tick_s = 0
drl.minibatch_size = 0
replay.ticks_per_observation = 0
lustre.num_clients = 0
lustre.num_servers = -2
)"));
  const CapesOptions o = capes_overlay(cfg);
  EXPECT_DOUBLE_EQ(o.transport.drop, 0.999);
  EXPECT_EQ(o.transport.tcp_port, 65535);
  EXPECT_EQ(o.transport.io_threads, 1);
  EXPECT_EQ(o.worker_threads, 0u);
  EXPECT_EQ(o.sim_shards, 1u);
  EXPECT_DOUBLE_EQ(o.faults.slow_factor, 1.0);
  EXPECT_EQ(o.replay.max_ticks_retained, 0u);  // unsigned: negatives -> 0
  // Keys that size or drive the run have a floor: 0 would crash the
  // simulator or train on empty input.
  EXPECT_DOUBLE_EQ(o.sampling_tick_s, 0.001);
  EXPECT_EQ(o.engine.minibatch_size, 1u);
  EXPECT_EQ(o.replay.ticks_per_observation, 1u);
  const lustre::ClusterOptions c = cluster_overlay(cfg);
  EXPECT_EQ(c.num_clients, 1u);
  EXPECT_EQ(c.num_servers, 1u);
}

TEST(ConfigIo, ConfigDocListsEveryConfKey) {
  // docs/CONFIG.md's "## Conf keys" section has one `key` row per table
  // entry, and no row for a key the table does not have.
  std::ifstream doc(CAPES_CONFIG_DOC);
  ASSERT_TRUE(doc) << CAPES_CONFIG_DOC;
  std::set<std::string> documented;
  bool in_section = false;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Conf keys";
    } else if (in_section && line.rfind("| `", 0) == 0) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  const std::vector<std::string> keys = conf_keys();
  const std::set<std::string> table(keys.begin(), keys.end());
  EXPECT_EQ(table.size(), keys.size()) << "a key appears twice in the table";
  for (const std::string& key : table) {
    EXPECT_EQ(documented.count(key), 1u)
        << key << " has no row of its own in docs/CONFIG.md's Conf keys";
  }
  for (const std::string& key : documented) {
    EXPECT_EQ(table.count(key), 1u)
        << "docs/CONFIG.md documents " << key << ", which is no conf key";
  }
}

}  // namespace
}  // namespace capes::core
