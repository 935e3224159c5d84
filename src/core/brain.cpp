#include "core/brain.hpp"

#include "core/capes_system.hpp"
#include "util/alloc_hook.hpp"
#include "waldb/database.hpp"

namespace capes::core {

namespace {

/// The live run's engine configuration, rebuilt from its meta: always the
/// sync learner (bit-identical weights by the engine's sync==async
/// guarantee) with checkpointing off.
DrlEngineOptions engine_options_from_meta(const capture::TraceMeta& m) {
  DrlEngineOptions e;
  e.dqn.num_actions = m.num_actions;
  e.dqn.num_hidden_layers = m.num_hidden_layers;
  e.dqn.hidden_size = m.hidden_size;
  e.dqn.gamma = m.gamma;
  e.dqn.learning_rate = m.learning_rate;
  e.dqn.target_update_alpha = m.target_update_alpha;
  e.dqn.loss = static_cast<rl::LossKind>(m.loss_kind);
  e.dqn.use_target_network = m.use_target_network;
  e.dqn.use_double_dqn = m.use_double_dqn;
  e.dqn.activation = static_cast<nn::Activation>(m.activation);
  e.epsilon.initial = m.epsilon_initial;
  e.epsilon.final_value = m.epsilon_final;
  e.epsilon.anneal_ticks = m.epsilon_anneal_ticks;
  e.epsilon.bump_value = m.epsilon_bump_value;
  e.epsilon.bump_ticks = m.epsilon_bump_ticks;
  e.minibatch_size = m.minibatch_size;
  e.train_steps_per_tick = m.train_steps_per_tick;
  e.eval_epsilon = m.eval_epsilon;
  return e;
}

}  // namespace

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
  rl::ReplayDbOptions replay_opts;
  replay_opts.num_nodes = meta.num_nodes;
  replay_opts.pis_per_node = meta.pis_per_node;
  replay_opts.ticks_per_observation = meta.ticks_per_observation;
  replay_opts.missing_tolerance = meta.missing_tolerance;
  replay_opts.max_ticks_retained = meta.max_ticks_retained;
  DrlEngineOptions engine_opts = engine_options_from_meta(meta);
  if (overlay != nullptr) {
    engine_opts = overlay->engine;
    engine_opts.dqn.num_actions = meta.num_actions;  // topology is traced
    engine_opts.learner_mode = LearnerMode::kSync;
    engine_opts.checkpoint_ticks = 0;
    replay_opts.ticks_per_observation = overlay->replay.ticks_per_observation;
    replay_opts.missing_tolerance = overlay->replay.missing_tolerance;
    replay_opts.max_ticks_retained = overlay->replay.max_ticks_retained;
  }
  // Seeds always come from the meta, overlay or not: a diff should isolate
  // the hyperparameter change, not add seed noise (and the conf scheme has
  // no seed keys anyway — seeds flow through --seed presets).
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
