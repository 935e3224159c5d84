#pragma once
// Interface Daemon (§3.3): the hub between Monitoring Agents, the Replay
// DB, the DRL Engine and the Control Agents. It is the only component
// that writes to the Replay DB; it decodes incoming PI messages, stores
// them, relays rewards, and broadcasts checked actions.
//
// The daemon is a sharded fan-in: one shard per control domain. Incoming
// PI messages carry global (domain-namespaced) node ids and route to the
// owning shard's stateful decoder; a suggested composite action index
// routes to the shard whose action slice contains it, is validated by
// that shard's Action Checker, and — when it passes — is applied to that
// domain's parameter vector and broadcast to that domain's Control
// Agents only. With one shard this degenerates exactly to the original
// single-cluster daemon.
//
// Control-network mode: constructed with a bus::Transport, the daemon
// owns its PI inbox channel (which Monitoring Agents publish into) and
// one action channel per shard (which checked actions are broadcast
// through). The tick loop drains both once per sampling tick: whatever
// has arrived is written / applied, late messages surface on the tick
// they arrive, dropped ones never do — the Replay DB's missing-entry
// tolerance absorbs the gaps. Without a transport the daemon keeps the
// original direct-call behavior (agent-level tests, hop-free wiring).
//
// Domain-less mode: built from ShardLayouts instead of ControlDomains,
// each shard owns its action space and parameter vector, and checked
// broadcasts go to a BroadcastSink. That is how the remote brain service
// (capes_daemond) runs this same route/check/apply/record code with the
// target systems on the far side of a tcp link.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bus/channel.hpp"
#include "core/action_checker.hpp"
#include "core/control_agent.hpp"
#include "core/control_domain.hpp"
#include "core/monitoring_agent.hpp"
#include "core/pi_codec.hpp"
#include "rl/action_space.hpp"
#include "rl/replay_db.hpp"

namespace capes::capture {
class WireLogWriter;
}  // namespace capes::capture

namespace capes::util {
class ThreadPool;
}  // namespace capes::util

namespace capes::core {

/// The action hop's channel: absolute parameter vectors, sender = shard.
/// Absolute payloads make action drops self-healing (the next delivered
/// broadcast carries the full state), so a bounded queue is safe here.
using ActionChannel = bus::Channel<std::vector<double>>;

/// Channel topics: one inbox for all PI traffic, one action topic per
/// shard. Topic ids feed the per-message fate hash, so distinct topics
/// see independent network realizations. Public because the distributed
/// control plane (remote_brain / brain_service) puts the same topic ids
/// on the tcp wire, keeping captures from distributed runs replayable.
inline constexpr std::uint64_t kStatusTopic = 1;
inline constexpr std::uint64_t kActionTopicBase = 2;

/// Bounded action queues: one publish per tick and a per-tick drain keep
/// the in-flight count near the transport delay, so this bound only
/// guards against a pathological transport configuration.
inline constexpr std::size_t kActionChannelCapacity = 1024;

/// A daemon shard with no ControlDomain behind it: where its slice of the
/// composite action namespace starts, and the tunable parameters whose
/// vector the shard owns (starting at their initial values). The
/// distributed Hello carries one per domain.
struct ShardLayout {
  std::uint64_t action_offset = 1;
  std::vector<rl::TunableParameter> params;
};

/// The composite-action -> shard routing rule, shared by the daemon and
/// the agent-side capture of a remote brain's actions: the shard whose
/// action slice holds `action`, given each shard's slice start in shard
/// order. The NULL action (0) belongs to no slice and goes to shard 0.
std::size_t shard_of_action(const std::vector<std::size_t>& slice_offsets,
                            std::size_t action);

class InterfaceDaemon {
 public:
  /// Single-shard daemon over a copy of `space` (the pre-domain
  /// construction, still used by agent-level tests): on_suggested_action
  /// applies to the caller's parameter vector. Always direct-call: no
  /// control network between the agents and the daemon.
  InterfaceDaemon(rl::ReplayDb& replay, const rl::ActionSpace& space,
                  std::size_t num_nodes, std::size_t pis_per_node);

  /// Domain-less daemon: one shard per layout (an empty list gives one
  /// NULL-only shard, enough for status ingest), each owning its action
  /// space and parameter vector, over `num_nodes` global nodes. Checked
  /// broadcasts reach the broadcast sink.
  InterfaceDaemon(rl::ReplayDb& replay, std::vector<ShardLayout> shards,
                  std::size_t num_nodes, std::size_t pis_per_node);

  /// Sharded daemon: one shard per domain, in order. Domains must outlive
  /// the daemon; their node/action offsets define the routing table. A
  /// non-null `transport` (which must outlive the daemon) puts the PI
  /// inbox and the per-shard action broadcasts on the control network.
  InterfaceDaemon(rl::ReplayDb& replay, std::vector<ControlDomain*> domains,
                  std::size_t pis_per_node,
                  bus::Transport* transport = nullptr);

  /// Incoming PI message from a Monitoring Agent; the leading global node
  /// id picks the shard decoder, and the decoded PIs are written to the
  /// replay DB under that global node id.
  void on_status_message(const std::vector<std::uint8_t>& msg);

  /// Record the objective-function output for tick t.
  void on_reward(std::int64_t t, double reward);

  /// An action suggested by the DRL Engine for tick t, applied to the
  /// caller's parameter vector (single-shard daemons only). Runs the
  /// action checker; if it passes, records the action and broadcasts the
  /// resulting parameter values to the shard's Control Agents. Returns the
  /// action actually recorded (vetoed actions degrade to the NULL action,
  /// which is what reaches the replay DB — the system did nothing that
  /// tick).
  std::size_t on_suggested_action(std::int64_t t, std::size_t action_index,
                                  std::vector<double>& parameter_values);

  /// Sharded form: route the composite `action_index` to its owning
  /// shard and apply it to that shard's parameter vector (its domain's,
  /// or its own when domain-less). Same veto / record semantics as
  /// on_suggested_action. In control-network mode the domain-side
  /// parameter vector updates immediately (the daemon's view) but the
  /// broadcast to the Control Agents rides the shard's action channel — a
  /// delayed action reaches the target system on a later tick, exactly as
  /// in a real deployment. Precondition: `action_index` is inside the
  /// composite space.
  std::size_t route_suggested_action(std::int64_t t, std::size_t action_index);

  /// Reset every shard-owned parameter vector to its initial values
  /// (domain-backed shards follow ControlDomain::reset_parameters).
  void reset_parameters();

  /// Where checked broadcasts of shards without an action channel go,
  /// instead of straight to registered Control Agents: (tick, shard,
  /// post-action parameter values). The brain service encodes them as
  /// kBroadcast frames.
  using BroadcastSink = std::function<void(
      std::int64_t t, std::size_t shard, const std::vector<double>& values)>;
  void set_broadcast_sink(BroadcastSink sink) {
    broadcast_sink_ = std::move(sink);
  }

  // ---- control network -----------------------------------------------------
  /// The PI inbox Monitoring Agents publish into (null without a
  /// transport).
  PiChannel* inbox() { return inbox_.get(); }

  /// Write every PI message that has arrived by tick `t` to the Replay
  /// DB. No-op without a transport. Returns messages delivered. With a
  /// pool, decoding fans out one worker per sender node — a node's
  /// messages stay with its stateful decoder in arrival order — and the
  /// replay-DB writes, error counters, and payload recycling then run
  /// serially in delivery order, so the pooled drain is bit-identical to
  /// the serial one. At 64/128 domains the single-threaded decode was
  /// the dominant serial cost at the sampling-tick barrier.
  std::size_t drain_status(std::int64_t t, util::ThreadPool* pool = nullptr);

  /// Optional hook: after a PI message is consumed by drain_status, its
  /// payload buffer is handed here (keyed by the sender's global node id)
  /// so the owning Monitoring Agent can reuse the capacity — the last
  /// link in the allocation-free status round trip. Runs on the drain
  /// (control) thread.
  using PayloadRecycler =
      std::function<void(std::uint64_t sender, std::vector<std::uint8_t>&& payload)>;
  void set_payload_recycler(PayloadRecycler recycler);

  /// Deliver every checked action broadcast due by tick `t` to its
  /// shard's Control Agents. No-op without a transport. Returns messages
  /// delivered.
  std::size_t drain_actions(std::int64_t t);

  /// Combined control-network counters (PI inbox + all action channels).
  /// All-zero without a transport.
  bus::ChannelStats bus_stats() const;

  void register_control_agent(ControlAgent* agent);  ///< shard 0
  void register_control_agent(std::size_t shard, ControlAgent* agent);
  ActionChecker& action_checker() { return *shards_[0].checker; }
  ActionChecker& action_checker(std::size_t shard) {
    return *shards_[check_shard(shard)].checker;
  }
  std::size_t num_shards() const { return shards_.size(); }

  std::uint64_t status_messages() const { return status_messages_; }
  std::uint64_t decode_errors() const { return decode_errors_; }
  std::uint64_t actions_broadcast() const { return actions_broadcast_; }
  /// Checker vetoes summed over every shard.
  std::uint64_t actions_vetoed() const;

  /// Flight recorder (nullable; must outlive the daemon while set). All
  /// three daemon-boundary hops — PI status, suggested/recorded actions,
  /// checked-action broadcasts — are written through it. Every capture
  /// point runs on the control thread, matching the writer's
  /// single-producer contract.
  void set_capture(capture::WireLogWriter* writer) { capture_ = writer; }

 private:
  /// Routing state for one domain's slice of the action namespace (node
  /// routing needs no per-shard state: decoders_ is indexed by the global
  /// node id directly).
  struct Shard {
    ControlDomain* domain = nullptr;  ///< null: the shard owns the below
    std::unique_ptr<rl::ActionSpace> owned_space;
    std::vector<double> owned_params;
    const rl::ActionSpace* space = nullptr;
    std::unique_ptr<ActionChecker> checker;
    std::vector<ControlAgent*> control_agents;
    /// Control-network broadcast channel (null = direct calls).
    std::unique_ptr<ActionChannel> actions;
    /// Recycled action-broadcast payloads: publish pops one (capacity
    /// reused for the parameter copy), drain_actions pushes the drained
    /// buffer back. Both run on the control thread.
    std::vector<std::vector<double>> action_pool;
  };

  /// Validated shard index; throws std::out_of_range (with the shard
  /// count in the message) on a bad one — indexing another domain's
  /// checker or agent list would silently corrupt cross-domain state.
  std::size_t check_shard(std::size_t shard) const;

  std::size_t apply_checked_action(std::int64_t t, std::size_t shard_index,
                                   std::size_t local_action,
                                   std::size_t global_action,
                                   std::vector<double>& parameter_values);

  rl::ReplayDb& replay_;
  std::vector<Shard> shards_;
  std::vector<std::size_t> slice_offsets_;  ///< global index of local action 1
  BroadcastSink broadcast_sink_;
  std::vector<PiDecoder> decoders_;  // one per global node
  std::unique_ptr<PiChannel> inbox_;
  PayloadRecycler payload_recycler_;
  PiMessage decode_scratch_;  ///< reused across on_status_message calls
  capture::WireLogWriter* capture_ = nullptr;

  /// Pooled-drain scratch (drain_status with a pool): one decode result
  /// + outcome slot per due message (workers write disjoint slots), and
  /// per-node message-index runs so exactly one worker owns each node's
  /// stateful decoder. All vectors grow once and are reused, keeping the
  /// steady-state drain allocation-free like the serial path.
  enum : std::uint8_t { kDecodeBadNode = 0, kDecodeBadMsg = 1, kDecodeOk = 2 };
  std::vector<PiMessage> batch_decoded_;
  std::vector<std::uint8_t> batch_outcome_;
  std::vector<std::uint64_t> batch_node_;
  std::vector<std::vector<std::uint32_t>> node_batch_index_;
  std::vector<std::uint32_t> touched_nodes_;

  std::uint64_t status_messages_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t actions_broadcast_ = 0;
};

}  // namespace capes::core
