#pragma once
// The capture file's meta blob: everything a replayer needs to rebuild a
// bit-identical Replay DB + DRL Engine from the trace alone. Kept as
// plain scalars (no core types) so the capture module stays util-only;
// core converts CapesOptions <-> TraceMeta at the boundary.
//
// This is a dedicated binary section rather than a conf-key dump on
// purpose: several fields that bit-identical replay depends on (the
// engine and DQN seeds, double-DQN, the loss and activation, how long an
// epsilon bump lasts) have no conf key, and the meta must never silently
// lose one of them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace capes::capture {

struct TraceMeta {
  // --- topology ----------------------------------------------------------
  std::uint32_t num_domains = 1;
  std::uint32_t num_nodes = 0;
  std::uint32_t pis_per_node = 0;
  std::uint32_t num_actions = 0;
  double sampling_tick_s = 1.0;  ///< realtime pacing unit for replay

  // --- engine + DQN (everything that shapes the RNG/weight streams) ------
  std::uint64_t engine_seed = 0;
  std::uint64_t dqn_seed = 0;
  bool use_double_dqn = false;
  bool use_target_network = true;
  std::uint8_t loss_kind = 0;   ///< rl::LossKind value
  std::uint8_t activation = 0;  ///< nn::Activation value
  std::uint32_t num_hidden_layers = 2;
  std::uint32_t hidden_size = 0;
  float gamma = 0.99f;
  float learning_rate = 1e-4f;
  float target_update_alpha = 0.01f;
  std::uint32_t minibatch_size = 32;
  std::uint32_t train_steps_per_tick = 1;
  double eval_epsilon = 0.05;
  double epsilon_initial = 1.0;
  double epsilon_final = 0.05;
  std::int64_t epsilon_anneal_ticks = 7200;
  double epsilon_bump_value = 0.2;
  std::int64_t epsilon_bump_ticks = 600;

  // --- replay DB ----------------------------------------------------------
  std::uint32_t ticks_per_observation = 10;
  double missing_tolerance = 0.2;
  std::uint64_t max_ticks_retained = 0;

  /// Fingerprint of the online network at capture start. A replayed
  /// engine whose fresh weights do not match started from a different
  /// state (e.g. the live run restored a learner checkpoint first) —
  /// the round-trip guarantee does not hold and tools should warn.
  std::uint32_t initial_weights_fingerprint = 0;

  /// Ceiling on the floats a meta's brain may need (4 GiB): far above a
  /// 128-domain fast preset (~23M), far below what a forged meta could
  /// make a receiver allocate.
  static constexpr std::uint64_t kMaxBrainFloats = std::uint64_t{1} << 30;

  /// Run before building a brain from the meta (replayer, brain service):
  /// false + *error unless the topology is non-empty and the brain's
  /// floats (weights x5 for online, target, gradient and two Adam
  /// moments, plus a minibatch's activations x4) fit kMaxBrainFloats.
  bool check(std::string* error) const;

  std::vector<std::uint8_t> encode() const;
  /// nullopt on a bad magic/version or a truncated blob.
  static std::optional<TraceMeta> decode(const std::vector<std::uint8_t>& blob);
};

}  // namespace capes::capture
