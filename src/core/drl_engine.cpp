#include "core/drl_engine.hpp"

#include <algorithm>
#include <cassert>

#include "util/alloc_hook.hpp"
#include "util/serialize.hpp"
#include "waldb/database.hpp"

namespace capes::core {

namespace {
/// waldb location of the learner checkpoint.
constexpr const char* kCheckpointTable = "learner";
constexpr std::int64_t kCheckpointKey = 0;
constexpr std::uint32_t kCheckpointMagic = 0x4c43504bu;  // "LCPK"
constexpr std::uint32_t kCheckpointVersion = 1;
}  // namespace

const char* learner_mode_name(LearnerMode mode) {
  return mode == LearnerMode::kAsync ? "async" : "sync";
}

bool parse_learner_mode(std::string_view text, LearnerMode* out,
                        std::string* error) {
  for (const LearnerMode mode : {LearnerMode::kSync, LearnerMode::kAsync}) {
    if (text == learner_mode_name(mode)) {
      *out = mode;
      return true;
    }
  }
  if (error != nullptr) {
    *error = "unknown learner mode '" + std::string(text) +
             "' (expected sync or async)";
  }
  return false;
}

DrlEngine::DrlEngine(DrlEngineOptions opts, rl::ReplayDb& replay)
    : opts_(opts), replay_(replay), epsilon_(opts.epsilon), rng_(opts.seed) {
  opts_.dqn.observation_size = replay_.observation_size();
  dqn_ = std::make_unique<rl::Dqn>(opts_.dqn);
  obs_buffer_.resize(replay_.observation_size());
  if (opts_.learner_mode == LearnerMode::kAsync) {
    // One tick's train jobs plus a checkpoint job must always fit, so the
    // producer never deadlocks waiting for its own consumer.
    const std::size_t depth = std::max(opts_.learner_queue_depth,
                                       opts_.train_steps_per_tick + 1);
    work_ring_ = std::make_unique<util::SpscRing<TrainJob*>>(depth);
    free_ring_ = std::make_unique<util::SpscRing<TrainJob*>>(depth + 1);
    for (std::size_t i = 0; i < depth; ++i) {
      jobs_.push_back(std::make_unique<TrainJob>());
      free_ring_->push(jobs_.back().get());
    }
  }
}

DrlEngine::~DrlEngine() { stop_learner(); }

double DrlEngine::current_epsilon(std::int64_t t, bool training) const {
  return training ? epsilon_.value(t) : opts_.eval_epsilon;
}

std::size_t DrlEngine::compute_action(std::int64_t t, bool training,
                                      util::ThreadPool* pool) {
  // Async: act only on fully published weights. After this wait the
  // acting snapshot equals the online network sync mode would read, so
  // the chosen action is bit-identical.
  sync_with_learner();
  const double eps = current_epsilon(training ? training_ticks_ : t, training);
  if (training) ++training_ticks_;
  // Without a complete observation we can still explore randomly (early
  // training); otherwise fall back to the NULL action.
  if (!replay_.build_observation(t, obs_buffer_.data())) {
    if (training && rng_.chance(eps)) {
      return rng_.pick_index(opts_.dqn.num_actions);
    }
    return 0;
  }
  return dqn_->select_action(obs_buffer_, eps, rng_, pool);
}

std::size_t DrlEngine::train_tick(util::ThreadPool* pool) {
  return opts_.learner_mode == LearnerMode::kAsync ? train_tick_async(pool)
                                                   : train_tick_sync(pool);
}

std::size_t DrlEngine::train_tick_sync(util::ThreadPool* pool) {
  std::size_t ran = 0;
  for (std::size_t i = 0; i < opts_.train_steps_per_tick; ++i) {
    // The tally brackets minibatch assembly + the training step — the
    // per-tick hot region. The (amortized, bounded) log appends below
    // stay outside it by design.
    util::AllocTally tally;
    if (!replay_.construct_minibatch_into(sync_batch_, opts_.minibatch_size,
                                          rng_, /*max_rounds=*/64, pool)) {
      break;
    }
    const rl::TrainStepResult r = dqn_->train_step(sync_batch_, pool);
    hot_path_allocs_ += tally.delta();
    prediction_errors_.emplace_back(dqn_->train_steps(), r.prediction_error);
    losses_.emplace_back(dqn_->train_steps(), r.loss);
    ++ran;
  }
  if (ran > 0) maybe_checkpoint_sync();
  return ran;
}

std::size_t DrlEngine::train_tick_async(util::ThreadPool* pool) {
  start_learner();
  std::size_t ran = 0;
  for (std::size_t i = 0; i < opts_.train_steps_per_tick; ++i) {
    TrainJob* job = acquire_job();
    // Sampling happens here, on the control thread, with the same rng_
    // stream position sync mode would have — the learner only trains.
    util::AllocTally tally;
    if (!replay_.construct_minibatch_into(job->batch, opts_.minibatch_size,
                                          rng_, /*max_rounds=*/64, pool)) {
      spare_job_ = job;
      break;
    }
    hot_path_allocs_ += tally.delta();
    job->kind = TrainJob::Kind::kTrain;
    work_ring_->push(job);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    ++ran;
  }
  if (ran > 0 && opts_.checkpoint_ticks > 0 &&
      ++ticks_since_checkpoint_ >= opts_.checkpoint_ticks &&
      checkpoint_db_ != nullptr) {
    ticks_since_checkpoint_ = 0;
    TrainJob* job = acquire_job();
    job->kind = TrainJob::Kind::kCheckpoint;
    job->training_ticks = training_ticks_;
    work_ring_->push(job);
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  return ran;
}

DrlEngine::TrainJob* DrlEngine::acquire_job() {
  if (spare_job_ != nullptr) {
    TrainJob* job = spare_job_;
    spare_job_ = nullptr;
    return job;
  }
  TrainJob* job = nullptr;
  if (free_ring_->try_pop(job)) return job;
  // Every slot is in flight; the ring is sized so this only happens under
  // sustained enqueue without an intervening compute_action. Wait for the
  // learner to recycle one.
  free_ring_->pop(job);
  return job;
}

void DrlEngine::sync_with_learner() const {
  if (!learner_.joinable()) return;
  const std::uint64_t target = enqueued_.load(std::memory_order_relaxed);
  std::uint64_t done = completed_.load(std::memory_order_acquire);
  while (done < target) {
    completed_.wait(done, std::memory_order_acquire);
    done = completed_.load(std::memory_order_acquire);
  }
}

void DrlEngine::start_learner() {
  if (learner_.joinable()) return;
  // Publish the initial acting snapshot before the thread exists, so the
  // acting path never reads the online network once the learner may be
  // mutating it.
  dqn_->publish_acting();
  learner_ = std::thread([this] { learner_loop(); });
}

void DrlEngine::stop_learner() {
  if (!learner_.joinable()) return;
  sync_with_learner();
  work_ring_->close();
  learner_.join();
  // Quiescent again: fold the snapshot away so sync-mode reads (tests,
  // reports) see the online network directly.
  dqn_->clear_acting();
}

void DrlEngine::learner_loop() {
  TrainJob* job = nullptr;
  while (work_ring_->pop(job)) {
    if (job->kind == TrainJob::Kind::kTrain) {
      // Pool-less on purpose: training weights are pool-independent, and
      // a private thread must not contend for the control-path pool.
      const rl::TrainStepResult r = dqn_->train_step(job->batch, nullptr);
      prediction_errors_.emplace_back(dqn_->train_steps(), r.prediction_error);
      losses_.emplace_back(dqn_->train_steps(), r.loss);
    } else {
      write_checkpoint(job->training_ticks);
    }
    // Publish before signalling completion: whoever observes completed_
    // caught up (acquire) is guaranteed the snapshot that includes this
    // step.
    dqn_->publish_acting();
    free_ring_->push(job);
    completed_.fetch_add(1, std::memory_order_release);
    completed_.notify_all();
  }
}

void DrlEngine::notify_workload_change() {
  epsilon_.notify_workload_change(training_ticks_);
}

void DrlEngine::set_checkpoint_store(waldb::Database* db) {
  checkpoint_db_ = db;
}

void DrlEngine::maybe_checkpoint_sync() {
  if (opts_.checkpoint_ticks == 0 || checkpoint_db_ == nullptr) return;
  if (++ticks_since_checkpoint_ < opts_.checkpoint_ticks) return;
  ticks_since_checkpoint_ = 0;
  write_checkpoint(training_ticks_);
}

void DrlEngine::write_checkpoint(std::int64_t ticks_at_capture) {
  if (checkpoint_db_ == nullptr) return;
  util::BinaryWriter w;
  w.put_u32(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  w.put_i64(ticks_at_capture);
  dqn_->save_state(w);
  checkpoint_db_->put(kCheckpointTable, kCheckpointKey, w.take());
  checkpoint_db_->flush();
  checkpoints_written_.fetch_add(1, std::memory_order_release);
}

bool DrlEngine::restore_checkpoint(waldb::Database& db) {
  const auto blob = db.get(kCheckpointTable, kCheckpointKey);
  if (!blob) return false;
  util::BinaryReader r(*blob);
  auto magic = r.get_u32();
  auto version = r.get_u32();
  if (!magic || *magic != kCheckpointMagic || !version ||
      *version != kCheckpointVersion) {
    return false;
  }
  auto ticks = r.get_i64();
  if (!ticks) return false;
  if (!dqn_->load_state(r)) return false;
  training_ticks_ = *ticks;
  return true;
}

}  // namespace capes::core
