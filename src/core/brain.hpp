#pragma once
// The brain: CAPES' Interface Daemon + DRL Engine pair (§3.3) and the
// Replay DB they share. Per sampling tick: status ingest -> reward -> act
// -> route/check/record -> train, with end_tick reporting the TickOutcome.
// Every host drives this one object, so one piece of code makes each
// decision: CapesSystem in process, BrainService behind capes_daemond
// (daemon shards own the parameter vectors; checked broadcasts go to a
// sink that puts them on the wire), and TraceReplayer, which shares
// construction and status ingest only — it replays the traced action.
// CapesSystem holds a BrainLink: a Brain, or a BrainClient
// (remote_brain.hpp) to a Brain in capes_daemond.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/channel.hpp"
#include "capture/trace_meta.hpp"
#include "core/control_domain.hpp"
#include "core/drl_engine.hpp"
#include "core/interface_daemon.hpp"
#include "rl/replay_db.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::waldb {
class Database;
}

namespace capes::core {

struct CapesOptions;

/// Wire values of a tick's or phase's mode byte (kFrameTickDone,
/// kPhaseBegin / kPhaseEnd payloads) — the RunPhase enumerators, pinned
/// here so the protocol does not silently shift if that enum is ever
/// reordered (capture files already bake these values into phase records).
inline constexpr std::uint8_t kPhaseIdle = 0;
inline constexpr std::uint8_t kPhaseTraining = 1;
inline constexpr std::uint8_t kPhaseBaseline = 2;
inline constexpr std::uint8_t kPhaseTuned = 3;

/// What one action tick did. All zero when a remote brain vanished before
/// answering (the loss shows up in BrainLink::stats()).
struct TickOutcome {
  std::size_t suggested = 0;      ///< the engine's composite action index
  std::size_t recorded = 0;       ///< post-veto (0 = NULL action)
  std::size_t train_steps = 0;    ///< minibatch steps this tick
  std::size_t total_train_steps = 0;  ///< run by this brain's ticks so far
};

/// CapesSystem's handle on the brain, whichever side of the wire it runs
/// on. Calls arrive on the control thread in tick order.
class BrainLink {
 public:
  using PayloadRecycler = InterfaceDaemon::PayloadRecycler;

  BrainLink() = default;
  BrainLink(const BrainLink&) = delete;
  BrainLink& operator=(const BrainLink&) = delete;
  virtual ~BrainLink() = default;

  /// The PI inbox Monitoring Agents publish into.
  virtual PiChannel& inbox() = 0;
  /// Drained PI payload buffers flow back to the agent that encoded them.
  virtual void set_payload_recycler(PayloadRecycler recycler) = 0;
  /// Flight recorder for every daemon-boundary record (nullable).
  virtual void set_capture(capture::WireLogWriter* writer) = 0;

  /// Status ingest: take in every PI message due by tick `t`.
  virtual std::size_t drain_status(std::int64_t t, util::ThreadPool* pool) = 0;
  /// Record tick `t`'s objective output (the throughput / latency figures
  /// ride along for agent-side captures).
  virtual void on_reward(std::int64_t t, double reward, double throughput_sum,
                         double latency_mean) = 0;
  /// Act, route/check/record, and (in `mode` kPhaseTraining) train.
  virtual TickOutcome end_tick(std::int64_t t, std::uint8_t mode,
                               util::ThreadPool* pool) = 0;
  /// Apply the checked broadcasts due by tick `t` to the domains' Control
  /// Agents. Returns broadcasts applied.
  virtual std::size_t drain_actions(std::int64_t t) = 0;

  /// Phase markers. end_phase is the learner barrier: afterwards the
  /// fingerprint and step count reflect all of the phase's training.
  virtual void begin_phase(std::int64_t t, std::uint8_t phase) = 0;
  virtual void end_phase(std::int64_t t, std::uint8_t phase) = 0;
  /// The domains' parameters were just reset to their initial values.
  virtual void reset_params(std::int64_t t) = 0;
  /// §3.6 workload-change hint (epsilon bump).
  virtual void workload_change(std::int64_t t) = 0;

  /// CRC32 of the online-network weights and cumulative minibatch steps.
  virtual std::uint32_t weights_fingerprint() const = 0;
  virtual std::size_t total_train_steps() const = 0;
  /// Control-network accounting, shaped like InterfaceDaemon::bus_stats().
  virtual bus::ChannelStats stats() const = 0;
  /// Heap allocations this brain observed on its own audited tick path.
  virtual std::uint64_t hot_path_allocations() const = 0;
};

/// The meta a capture or Hello carries: `opts`' engine and replay
/// options plus the topology. The fingerprint is the online network's at
/// capture start (after any checkpoint restore), so a replay from fresh
/// weights can detect a live run that resumed mid-training.
capture::TraceMeta trace_meta_from(const CapesOptions& opts,
                                   std::size_t num_domains,
                                   std::size_t num_actions,
                                   std::uint32_t weights_fingerprint);

/// The inverse: the engine and replay options a TraceMeta records
/// (everything else defaults) — the live run's configuration as a
/// replay rebuilds it.
CapesOptions traced_options(const capture::TraceMeta& meta);

class Brain final : public BrainLink {
 public:
  /// In-process brain over live domains (which must outlive it). A
  /// non-empty `replay_db_dir` makes the Replay DB durable and restores
  /// the engine's last learner checkpoint from it; a non-null `transport`
  /// puts the status and broadcast hops on the control network.
  Brain(const rl::ReplayDbOptions& replay, const DrlEngineOptions& engine,
        const std::string& replay_db_dir, std::vector<ControlDomain*> domains,
        std::size_t pis_per_node, bus::Transport* transport);

  /// The brain a TraceMeta describes (a capture's leading record, or the
  /// Hello of a remote session): sync learner, checkpointing off, both
  /// seeds from the meta. `shards` lays out the daemon's action slices
  /// (empty: status ingest only). `overlay` (nullable) replaces
  /// traced_options(meta): its engine and replay hyperparameters apply,
  /// never the topology or seeds.
  Brain(const capture::TraceMeta& meta, std::vector<ShardLayout> shards,
        const CapesOptions* overlay = nullptr);

  /// Writes the durable Replay DB's final checkpoint, if there is one.
  ~Brain() override;

  InterfaceDaemon& daemon() { return *daemon_; }
  DrlEngine& engine() { return *engine_; }
  rl::ReplayDb& replay() { return *replay_; }
  /// The durable replay database, when configured (else nullptr).
  waldb::Database* database() { return db_.get(); }

  // ---- BrainLink ---------------------------------------------------------
  PiChannel& inbox() override { return *daemon_->inbox(); }
  void set_payload_recycler(PayloadRecycler recycler) override {
    daemon_->set_payload_recycler(std::move(recycler));
  }
  void set_capture(capture::WireLogWriter* writer) override {
    daemon_->set_capture(writer);
  }
  std::size_t drain_status(std::int64_t t, util::ThreadPool* pool) override {
    return daemon_->drain_status(t, pool);
  }
  void on_reward(std::int64_t t, double reward, double, double) override {
    daemon_->on_reward(t, reward);
  }
  TickOutcome end_tick(std::int64_t t, std::uint8_t mode,
                       util::ThreadPool* pool) override;
  std::size_t drain_actions(std::int64_t t) override {
    return daemon_->drain_actions(t);
  }
  void begin_phase(std::int64_t, std::uint8_t) override {}
  void end_phase(std::int64_t, std::uint8_t) override { engine_->drain_learner(); }
  void reset_params(std::int64_t) override { daemon_->reset_parameters(); }
  void workload_change(std::int64_t) override { engine_->notify_workload_change(); }
  std::uint32_t weights_fingerprint() const override {
    return engine_->weights_fingerprint();
  }
  std::size_t total_train_steps() const override {
    return engine_->total_train_steps();
  }
  bus::ChannelStats stats() const override { return daemon_->bus_stats(); }
  /// The act + route bracket plus the engine's own minibatch/train one.
  std::uint64_t hot_path_allocations() const override {
    return hot_path_allocs_ + engine_->hot_path_allocations();
  }

 private:
  // Declaration order is destruction order in reverse: the daemon and the
  // engine reference the Replay DB, which may write through the database.
  std::unique_ptr<waldb::Database> db_;
  std::unique_ptr<rl::ReplayDb> replay_;
  std::unique_ptr<InterfaceDaemon> daemon_;
  std::unique_ptr<DrlEngine> engine_;
  std::size_t steps_run_ = 0;
  std::uint64_t hot_path_allocs_ = 0;
};

}  // namespace capes::core
