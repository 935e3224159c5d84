#include "core/config_io.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>
#include <variant>

#include "util/parse.hpp"

namespace capes::core {

namespace {

/// The options one conf file sets.
struct Options {
  CapesOptions& capes;
  lustre::ClusterOptions& cluster;
};

/// A 64-bit seed. Transport and fault seeds derive from the engine seed
/// until a key pins them; only a pinned seed is written back (`pinned`
/// is their seed_explicit member, null for a seed that is always set).
struct Seed {
  std::uint64_t* value;
  bool* pinned;
};

/// capes.sim.shards: "auto" (0) = one event queue per control domain.
struct Shards {
  std::size_t* value;
};

/// The member a key sets. Its type picks the parser and the writer.
using Member =
    std::variant<std::string*, bool*, double*, float*, std::int64_t*,
                 std::size_t*, Seed, Shards, bus::TransportKind*,
                 LearnerMode*, sim::ShardPlanKind*>;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ConfKey {
  const char* key;
  Member (*member)(Options&);
  /// Numbers clamp into [lo, hi]; unsigned ones also to >= 0.
  double lo = -kInf;
  double hi = kInf;
  /// When config_from_options() writes the key; null = always.
  bool (*written)(const CapesOptions&) = nullptr;
};

bool reject(std::string* why, const char* expected, const std::string& v) {
  *why = std::string("expected ") + expected + ", got '" + v + "'";
  return false;
}

// Strict parsers, one per member type (the util::parse_* the flags use),
// each clamping numbers into the key's range.
bool parse(const std::string& v, std::string* m, const ConfKey&,
           std::string*) {
  *m = v;
  return true;
}
bool parse(const std::string& v, bool* m, const ConfKey&, std::string* why) {
  return util::parse_bool(v, m) || reject(why, "true or false", v);
}
template <class T>
  requires std::is_floating_point_v<T>
bool parse(const std::string& v, T* m, const ConfKey& k, std::string* why) {
  double x = 0.0;
  if (!util::parse_double(v, &x) ||
      std::abs(x) > std::numeric_limits<T>::max()) {
    return reject(why, "a finite number", v);
  }
  *m = static_cast<T>(std::clamp(x, k.lo, k.hi));
  return true;
}
template <class T>
  requires std::is_integral_v<T>
bool parse(const std::string& v, T* m, const ConfKey& k, std::string* why) {
  std::int64_t x = 0;
  if (!util::parse_i64(v, &x)) return reject(why, "an integer", v);
  const double lo = std::is_unsigned_v<T> ? std::max(k.lo, 0.0) : k.lo;
  if (x < lo) x = static_cast<std::int64_t>(lo);
  if (x > k.hi) x = static_cast<std::int64_t>(k.hi);
  *m = static_cast<T>(x);
  return true;
}
bool parse(const std::string& v, Seed m, const ConfKey&, std::string* why) {
  if (!util::parse_u64(v, m.value)) {
    return reject(why, "an unsigned integer", v);
  }
  if (m.pinned != nullptr) *m.pinned = true;
  return true;
}
bool parse(const std::string& v, Shards m, const ConfKey&, std::string* why) {
  std::int64_t n = 0;
  if (v != "auto" && !util::parse_i64(v, &n)) {
    return reject(why, "auto or an integer", v);
  }
  *m.value = n < 0 ? 1 : static_cast<std::size_t>(n);  // negatives: serial
  return true;
}
bool parse(const std::string& v, bus::TransportKind* m, const ConfKey&,
           std::string* why) {
  return bus::parse_transport_scheme(v, m, why);
}
bool parse(const std::string& v, LearnerMode* m, const ConfKey&,
           std::string* why) {
  return parse_learner_mode(v, m, why);
}
bool parse(const std::string& v, sim::ShardPlanKind* m, const ConfKey&,
           std::string* why) {
  return sim::parse_shard_plan_spec(v, m, why);
}

// Writers, one per member type, in the form the parsers read back.
void put(util::Config* c, const char* k, std::string* m) { c->set(k, *m); }
void put(util::Config* c, const char* k, bool* m) { c->set_bool(k, *m); }
template <class T>
  requires std::is_floating_point_v<T>
void put(util::Config* c, const char* k, T* m) {
  c->set_double(k, *m);
}
template <class T>
  requires std::is_integral_v<T>
void put(util::Config* c, const char* k, T* m) {
  c->set_int(k, static_cast<std::int64_t>(*m));
}
void put(util::Config* c, const char* k, Seed m) {
  if (m.pinned == nullptr || *m.pinned) c->set(k, std::to_string(*m.value));
}
void put(util::Config* c, const char* k, Shards m) {
  c->set(k, *m.value == 0 ? "auto" : std::to_string(*m.value));
}
void put(util::Config* c, const char* k, bus::TransportKind* m) {
  c->set(k, bus::transport_scheme_name(*m));
}
void put(util::Config* c, const char* k, LearnerMode* m) {
  c->set(k, learner_mode_name(*m));
}
void put(util::Config* c, const char* k, sim::ShardPlanKind* m) {
  c->set(k, sim::shard_plan_name(*m));
}

bool under_tcp(const CapesOptions& o) {
  return o.transport.kind == bus::TransportKind::kTcp;
}
bool faults_on(const CapesOptions& o) { return o.faults.enabled(); }

#define F(...) [](Options& o) -> Member { return __VA_ARGS__; }

/// Every conf key, with the clamps docs/CONFIG.md documents (the CLI
/// flags and spec strings reject out-of-range values instead).
constexpr ConfKey kConfKeys[] = {
    {"capes.sampling_tick_s", F(&o.capes.sampling_tick_s), 0.001},
    {"capes.reward_scale_mbs", F(&o.capes.reward_scale_mbs)},
    {"capes.replay_db_dir", F(&o.capes.replay_db_dir)},
    {"capes.capture.path", F(&o.capes.capture_path)},
    {"capes.capture.ring", F(&o.capes.capture_ring), 2},
    {"capes.worker_threads", F(&o.capes.worker_threads)},
    {"capes.sim.shards", F(Shards{&o.capes.sim_shards})},
    {"capes.sim.shard_plan", F(&o.capes.shard_plan)},
    {"capes.transport", F(&o.capes.transport.kind)},
    {"capes.transport.latency_ticks", F(&o.capes.transport.latency_ticks), 0},
    {"capes.transport.jitter", F(&o.capes.transport.jitter), 0},
    {"capes.transport.drop", F(&o.capes.transport.drop), 0, 0.999},
    {"capes.transport.seed",
     F(Seed{&o.capes.transport.seed, &o.capes.transport.seed_explicit})},
    {"capes.transport.tcp.host", F(&o.capes.transport.tcp_host), -kInf, kInf,
     under_tcp},
    {"capes.transport.tcp.port", F(&o.capes.transport.tcp_port), 0, 65535,
     under_tcp},
    {"capes.transport.tcp.connect_timeout_ms",
     F(&o.capes.transport.connect_timeout_ms), 0, kInf, under_tcp},
    {"capes.transport.tcp.io_threads", F(&o.capes.transport.io_threads), 1, 64,
     under_tcp},
    {"capes.sim.faults.ost_crash", F(&o.capes.faults.ost_crash), 0, 0.999,
     faults_on},
    {"capes.sim.faults.restart_ticks", F(&o.capes.faults.restart_ticks), 1,
     kInf, faults_on},
    {"capes.sim.faults.straggler", F(&o.capes.faults.straggler), 0, 0.999,
     faults_on},
    {"capes.sim.faults.slow_factor", F(&o.capes.faults.slow_factor), 1, kInf,
     faults_on},
    {"capes.sim.faults.straggler_ticks", F(&o.capes.faults.straggler_ticks), 1,
     kInf, faults_on},
    {"capes.sim.faults.partition", F(&o.capes.faults.partition), 0, 0.999,
     faults_on},
    {"capes.sim.faults.partition_ticks", F(&o.capes.faults.partition_ticks), 1,
     kInf, faults_on},
    {"capes.sim.faults.seed",
     F(Seed{&o.capes.faults.seed, &o.capes.faults.seed_explicit})},
    {"capes.learner.mode", F(&o.capes.engine.learner_mode)},
    {"capes.learner.checkpoint_ticks", F(&o.capes.engine.checkpoint_ticks)},

    {"drl.minibatch_size", F(&o.capes.engine.minibatch_size), 1},
    {"drl.train_steps_per_tick", F(&o.capes.engine.train_steps_per_tick)},
    {"drl.eval_epsilon", F(&o.capes.engine.eval_epsilon)},
    {"drl.gamma", F(&o.capes.engine.dqn.gamma)},
    {"drl.learning_rate", F(&o.capes.engine.dqn.learning_rate)},
    {"drl.target_update_alpha", F(&o.capes.engine.dqn.target_update_alpha)},
    {"drl.num_hidden_layers", F(&o.capes.engine.dqn.num_hidden_layers)},
    {"drl.hidden_size", F(&o.capes.engine.dqn.hidden_size)},
    {"drl.use_target_network", F(&o.capes.engine.dqn.use_target_network)},
    {"drl.epsilon_initial", F(&o.capes.engine.epsilon.initial)},
    {"drl.epsilon_final", F(&o.capes.engine.epsilon.final_value)},
    {"drl.epsilon_anneal_ticks", F(&o.capes.engine.epsilon.anneal_ticks)},
    {"drl.epsilon_bump", F(&o.capes.engine.epsilon.bump_value)},
    {"replay.ticks_per_observation",
     F(&o.capes.replay.ticks_per_observation), 1},
    {"replay.missing_tolerance", F(&o.capes.replay.missing_tolerance)},
    {"replay.max_ticks_retained", F(&o.capes.replay.max_ticks_retained)},

    {"lustre.num_clients", F(&o.cluster.num_clients), 1},
    {"lustre.num_servers", F(&o.cluster.num_servers), 1},
    {"lustre.default_cwnd", F(&o.cluster.default_cwnd)},
    {"lustre.cwnd_min", F(&o.cluster.cwnd_min)},
    {"lustre.cwnd_max", F(&o.cluster.cwnd_max)},
    {"lustre.cwnd_step", F(&o.cluster.cwnd_step)},
    {"lustre.default_rate_limit", F(&o.cluster.default_rate_limit)},
    {"lustre.rate_limit_min", F(&o.cluster.rate_limit_min)},
    {"lustre.rate_limit_max", F(&o.cluster.rate_limit_max)},
    {"lustre.rate_limit_step", F(&o.cluster.rate_limit_step)},
    {"lustre.max_dirty_bytes", F(&o.cluster.max_dirty_bytes)},
    {"lustre.rpc_timeout_us", F(&o.cluster.rpc_timeout)},
    {"lustre.fragmentation", F(&o.cluster.fragmentation)},
    {"lustre.disk_fullness", F(&o.cluster.disk_fullness)},
    {"lustre.seed", F(Seed{&o.cluster.seed, nullptr})},
    {"disk.seq_read_mbs", F(&o.cluster.disk.seq_read_mbs)},
    {"disk.seq_write_mbs", F(&o.cluster.disk.seq_write_mbs)},
    {"disk.read_positioning_us", F(&o.cluster.disk.read_positioning_us)},
    {"disk.write_positioning_us", F(&o.cluster.disk.write_positioning_us)},
    {"disk.write_queue_gain", F(&o.cluster.disk.write_queue_gain)},
    {"disk.write_queue_scale", F(&o.cluster.disk.write_queue_scale)},
    {"disk.read_queue_gain", F(&o.cluster.disk.read_queue_gain)},
    {"disk.read_queue_scale", F(&o.cluster.disk.read_queue_scale)},
    {"disk.service_noise", F(&o.cluster.disk.service_noise)},
    {"network.link_bandwidth_mbs", F(&o.cluster.network.link_bandwidth_mbs)},
    {"network.fabric_bandwidth_mbs",
     F(&o.cluster.network.fabric_bandwidth_mbs)},
    {"network.base_latency_us", F(&o.cluster.network.base_latency)},
    {"network.jitter_fraction", F(&o.cluster.network.jitter_fraction)},
};

#undef F

}  // namespace

bool apply_config(const util::Config& cfg, CapesOptions* capes,
                  lustre::ClusterOptions* cluster, std::string* error) {
  Options options{*capes, *cluster};
  for (const std::string& name : cfg.keys()) {
    const ConfKey* k =
        std::find_if(std::begin(kConfKeys), std::end(kConfKeys),
                     [&](const ConfKey& e) { return name == e.key; });
    const bool known = k != std::end(kConfKeys);
    std::string why;
    const auto read = [&](auto m) {
      return parse(*cfg.get(name), m, *k, &why);
    };
    if (known && std::visit(read, k->member(options))) continue;
    if (error) {
      *error = known ? "conf key " + name + ": " + why
                     : "unknown conf key '" + name + "'";
    }
    return false;
  }
  return true;
}

util::Config config_from_options(const CapesOptions& capes,
                                 const lustre::ClusterOptions& cluster) {
  CapesOptions capes_copy = capes;  // the table's members are mutable
  lustre::ClusterOptions cluster_copy = cluster;
  Options options{capes_copy, cluster_copy};
  util::Config cfg;
  for (const ConfKey& k : kConfKeys) {
    if (k.written != nullptr && !k.written(capes)) continue;
    std::visit([&](auto m) { put(&cfg, k.key, m); }, k.member(options));
  }
  return cfg;
}

std::vector<std::string> conf_keys() {
  std::vector<std::string> keys;
  for (const ConfKey& k : kConfKeys) keys.emplace_back(k.key);
  return keys;
}

}  // namespace capes::core
