#include "core/brain.hpp"

#include <type_traits>

#include "core/capes_system.hpp"
#include "util/alloc_hook.hpp"
#include "waldb/database.hpp"

namespace capes::core {

namespace {

/// The TraceMeta fields that record a CapesOptions member, as (meta
/// field, options member) pairs: trace_meta_from() and traced_options()
/// walk this one list in opposite directions.
template <class Meta, class Options, class Visit>
void for_each_traced(Meta& m, Options& o, Visit visit) {
  auto& e = o.engine;
  visit(m.num_nodes, o.replay.num_nodes);
  visit(m.pis_per_node, o.replay.pis_per_node);
  visit(m.sampling_tick_s, o.sampling_tick_s);
  visit(m.engine_seed, e.seed);
  visit(m.dqn_seed, e.dqn.seed);
  visit(m.use_double_dqn, e.dqn.use_double_dqn);
  visit(m.use_target_network, e.dqn.use_target_network);
  visit(m.loss_kind, e.dqn.loss);
  visit(m.activation, e.dqn.activation);
  visit(m.num_hidden_layers, e.dqn.num_hidden_layers);
  visit(m.hidden_size, e.dqn.hidden_size);
  visit(m.gamma, e.dqn.gamma);
  visit(m.learning_rate, e.dqn.learning_rate);
  visit(m.target_update_alpha, e.dqn.target_update_alpha);
  visit(m.minibatch_size, e.minibatch_size);
  visit(m.train_steps_per_tick, e.train_steps_per_tick);
  visit(m.eval_epsilon, e.eval_epsilon);
  visit(m.epsilon_initial, e.epsilon.initial);
  visit(m.epsilon_final, e.epsilon.final_value);
  visit(m.epsilon_anneal_ticks, e.epsilon.anneal_ticks);
  visit(m.epsilon_bump_value, e.epsilon.bump_value);
  visit(m.epsilon_bump_ticks, e.epsilon.bump_ticks);
  visit(m.ticks_per_observation, o.replay.ticks_per_observation);
  visit(m.missing_tolerance, o.replay.missing_tolerance);
  visit(m.max_ticks_retained, o.replay.max_ticks_retained);
}

}  // namespace

capture::TraceMeta trace_meta_from(const CapesOptions& opts,
                                   std::size_t num_domains,
                                   std::size_t num_actions,
                                   std::uint32_t weights_fingerprint) {
  capture::TraceMeta meta;
  for_each_traced(meta, opts, [](auto& to, const auto& from) {
    to = static_cast<std::remove_reference_t<decltype(to)>>(from);
  });
  meta.num_domains = static_cast<std::uint32_t>(num_domains);
  meta.num_actions = static_cast<std::uint32_t>(num_actions);
  meta.initial_weights_fingerprint = weights_fingerprint;
  return meta;
}

CapesOptions traced_options(const capture::TraceMeta& meta) {
  CapesOptions o;
  for_each_traced(meta, o, [](const auto& from, auto& to) {
    to = static_cast<std::remove_reference_t<decltype(to)>>(from);
  });
  return o;
}

Brain::Brain(const rl::ReplayDbOptions& replay, const DrlEngineOptions& engine,
             const std::string& replay_db_dir,
             std::vector<ControlDomain*> domains, std::size_t pis_per_node,
             bus::Transport* transport) {
  if (!replay_db_dir.empty()) {
    db_ = std::make_unique<waldb::Database>();
    if (!db_->open(replay_db_dir)) db_.reset();
  }
  replay_ = std::make_unique<rl::ReplayDb>(replay, db_.get());
  daemon_ = std::make_unique<InterfaceDaemon>(*replay_, std::move(domains),
                                              pis_per_node, transport);
  engine_ = std::make_unique<DrlEngine>(engine, *replay_);
  if (db_) {
    // Durable learner checkpoints ride the same WAL-framed store as the
    // replay tables; a restarted tuner resumes mid-training. The replay
    // cache itself is rebuilt from fresh samples, not reloaded.
    engine_->set_checkpoint_store(db_.get());
    engine_->restore_checkpoint(*db_);
  }
}

Brain::Brain(const capture::TraceMeta& meta, std::vector<ShardLayout> shards,
             const CapesOptions* overlay) {
  const CapesOptions opts =
      overlay != nullptr ? *overlay : traced_options(meta);
  // Topology and both seeds always come from the meta, overlay or not: a
  // diff should isolate the hyperparameter change, not add seed noise.
  // The sync learner trains bit-identical weights to the async one, and a
  // replay never checkpoints.
  rl::ReplayDbOptions replay_opts = opts.replay;
  replay_opts.num_nodes = meta.num_nodes;
  replay_opts.pis_per_node = meta.pis_per_node;
  DrlEngineOptions engine_opts = opts.engine;
  engine_opts.dqn.num_actions = meta.num_actions;
  engine_opts.learner_mode = LearnerMode::kSync;
  engine_opts.checkpoint_ticks = 0;
  engine_opts.seed = meta.engine_seed;
  engine_opts.dqn.seed = meta.dqn_seed;

  replay_ = std::make_unique<rl::ReplayDb>(replay_opts);
  daemon_ = std::make_unique<InterfaceDaemon>(*replay_, std::move(shards),
                                              meta.num_nodes, meta.pis_per_node);
  engine_ = std::make_unique<DrlEngine>(engine_opts, *replay_);
}

Brain::~Brain() {
  if (db_) db_->checkpoint();
}

TickOutcome Brain::end_tick(std::int64_t t, std::uint8_t mode,
                            util::ThreadPool* pool) {
  TickOutcome out;
  const bool training = mode == kPhaseTraining;
  // Allocation audit: the act + route bracket. Training steps count in
  // the engine's own bracket.
  util::AllocTally tally;
  if (training || mode == kPhaseTuned) {
    out.suggested = engine_->compute_action(t, training, pool);
  }
  out.recorded = daemon_->route_suggested_action(t, out.suggested);
  hot_path_allocs_ += tally.delta();
  if (training) {
    out.train_steps = engine_->train_tick(pool);
    steps_run_ += out.train_steps;
  }
  out.total_train_steps = steps_run_;
  return out;
}

}  // namespace capes::core
