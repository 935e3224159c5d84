#pragma once
// The distributed control plane's wire protocol and its agent-side half.
//
// CAPES §3.3 deploys the Monitoring Agents and Control Agents on the
// storage cluster and the Interface Daemon + DRL Engine on a dedicated
// learner box. This header defines the protocol both processes speak
// over a net::Endpoint, and BrainClient — the BrainLink that lets a
// CapesSystem whose transport is `tcp:` run its cluster locally while
// the brain (a core::Brain: Replay DB, DRL Engine, action checking)
// lives in a remote capes_daemond.
//
// Frame types reuse the capture::RecordType values 1..7 for every
// message that mirrors a flight-recorder record (PI status, reward,
// action, broadcast, phase markers, workload change) — the tcp wire
// carries the exact topic/sender/tick framing the capture file does, so
// a capture taken on the agent side of a distributed run replays
// byte-identically through capes_replay. Control frames (handshake,
// tick barriers, acks) live above that range.
//
// Per-tick lock step: the client ships this tick's status + reward
// frames, then kFrameTickDone; the service feeds them in FIFO order to
// the same Brain an in-process CapesSystem drives, streams the checked
// kBroadcast frames its daemon emits, and closes the tick with
// kFrameActionsDone. Because the service consumes frames in send order
// and one piece of code makes every decision, a loopback run with zero
// loss is bit-identical to the `sync` transport — the equivalence bar
// tests/integration/test_distributed holds it to.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "capture/trace_meta.hpp"
#include "capture/wire_format.hpp"
#include "core/brain.hpp"
#include "core/control_domain.hpp"
#include "core/interface_daemon.hpp"
#include "net/endpoint.hpp"

namespace capes::capture {
class WireLogWriter;
}  // namespace capes::capture

namespace capes::core {

/// Bumped on any incompatible wire change; both sides echo it in the
/// handshake and a mismatch aborts the session before any state exists.
inline constexpr std::uint32_t kWireProtoVersion = 1;

/// Control frame types, above the capture::RecordType range (1..7) those
/// record-mirroring frames reuse. 255 is the endpoint-internal heartbeat.
inline constexpr std::uint8_t kFrameHello = 16;       ///< client -> service
inline constexpr std::uint8_t kFrameHelloAck = 17;    ///< service -> client
inline constexpr std::uint8_t kFrameTickDone = 18;    ///< client -> service
inline constexpr std::uint8_t kFrameActionsDone = 19; ///< service -> client
inline constexpr std::uint8_t kFrameParamsReset = 20; ///< client -> service
inline constexpr std::uint8_t kFramePhaseEndAck = 21; ///< service -> client
inline constexpr std::uint8_t kFrameBye = 22;         ///< client -> service

/// The record-mirroring frame types, by name.
constexpr std::uint8_t frame_type(capture::RecordType t) {
  return static_cast<std::uint8_t>(t);
}

/// The kFrameHello payload: the same TraceMeta snapshot a capture file
/// leads with (topology + every engine/DQN/replay hyperparameter and
/// seed), plus one ShardLayout per domain (where its action slice starts,
/// and its tunable parameters). The service builds its Brain from this
/// through the constructor capes_replay uses on a capture — which is what
/// makes the two bit-identical.
struct HelloPayload {
  capture::TraceMeta meta;
  std::vector<ShardLayout> domains;
};

std::vector<std::uint8_t> encode_hello(const HelloPayload& hello);
/// nullopt on a version mismatch or a truncated/garbled payload, including
/// element counts the remaining bytes cannot hold.
std::optional<HelloPayload> decode_hello(const std::vector<std::uint8_t>& blob);

/// The agent-side half of the distributed control plane. Owns the tcp
/// connection to capes_daemond and is the BrainLink of a CapesSystem
/// whose brain is remote:
///
///   drain_status  -> flush_status(t)          (kStatus frames)
///   on_reward     -> kReward frame
///   end_tick      -> kFrameTickDone, blocks for kBroadcast* +
///                    kFrameActionsDone (broadcasts are stashed)
///   drain_actions -> applies the stashed broadcasts
///
/// The send path rides the endpoint's recycled slots, so the warm tick
/// path stays allocation-free and never blocks on a slow daemon — a full
/// outbound ring sheds frames into stats().dropped, the same surface a
/// lossy SimTransport reports on. A dead peer never hangs the loop:
/// every blocking wait exits when the endpoint marks the link dead.
class BrainClient final : public BrainLink {
 public:
  /// `transport` (a TcpTransport; must outlive the client) backs the
  /// local inbox channel; `opts` supplies host/port/connect_timeout_ms.
  BrainClient(bus::Transport& transport, bus::TransportOptions opts,
              net::EndpointOptions endpoint_opts = {});
  /// Polite shutdown: kFrameBye (at the tick of the last frame sent),
  /// then close the endpoint, so the service reports a clean session.
  ~BrainClient() override;

  /// Dial the daemon (with the socket layer's capped-backoff retry until
  /// connect_timeout_ms), send kFrameHello, and block for kFrameHelloAck.
  /// `domains` must outlive the client; broadcasts apply to their
  /// parameter vectors and Control Agents. False + `*error` on refused
  /// connection, version mismatch, or a daemon that rejected the Hello.
  bool connect(const capture::TraceMeta& meta,
               std::vector<ControlDomain*> domains, std::string* error);

  /// Ship every PI message due by tick `t` as kStatus frames, in the
  /// channel's deterministic (deliver tick, sender, send tick) order —
  /// the order the in-process daemon would have ingested them. Returns
  /// messages shipped.
  std::size_t flush_status(std::int64_t t);

  bool alive() const { return endpoint_ != nullptr && endpoint_->alive(); }

  // ---- BrainLink ---------------------------------------------------------
  /// The local end of the PI hop; valid for the client's lifetime.
  PiChannel& inbox() override { return inbox_; }
  void set_payload_recycler(PayloadRecycler recycler) override;
  /// Records the agent-side mirror of every daemon-boundary record (must
  /// outlive the client while set).
  void set_capture(capture::WireLogWriter* writer) override {
    capture_ = writer;
  }
  std::size_t drain_status(std::int64_t t, util::ThreadPool*) override {
    return flush_status(t);
  }
  /// The kReward payload carries all three figures, like the capture
  /// record, so agent-side captures replay identically.
  void on_reward(std::int64_t t, double reward, double throughput_sum,
                 double latency_mean) override;
  TickOutcome end_tick(std::int64_t t, std::uint8_t mode,
                       util::ThreadPool* pool) override;
  std::size_t drain_actions(std::int64_t t) override;
  /// kPhaseBegin / kPhaseEnd. end_phase blocks for kFramePhaseEndAck — the
  /// remote drain_learner() — and refreshes weights_fingerprint() /
  /// total_train_steps(); a dead link leaves them as they were.
  void begin_phase(std::int64_t t, std::uint8_t phase) override;
  void end_phase(std::int64_t t, std::uint8_t phase) override;
  /// kFrameParamsReset: the service resets its shards' parameter vectors.
  void reset_params(std::int64_t t) override;
  /// kWorkloadChange -> the remote engine's epsilon bump.
  void workload_change(std::int64_t t) override;
  /// Last fingerprint/step count the service reported (HelloAck, then
  /// each PhaseEndAck).
  std::uint32_t weights_fingerprint() const override { return fingerprint_; }
  std::size_t total_train_steps() const override { return total_train_steps_; }
  /// The inbox channel's counters with the endpoint's shed/undeliverable
  /// frames folded into `dropped` — so PhaseReport::messages_dropped
  /// surfaces tcp loss exactly as it does sim-transport loss.
  bus::ChannelStats stats() const override;
  /// The audited act/route/train path runs in the remote brain.
  std::uint64_t hot_path_allocations() const override { return 0; }

  /// The wire endpoint (null before connect); byte counters feed
  /// bench/ext_net.
  const net::Endpoint* endpoint() const { return endpoint_.get(); }

 private:
  bool send_frame(std::uint8_t type, std::int64_t tick, std::uint64_t topic,
                  std::uint64_t sender, const std::uint8_t* payload,
                  std::size_t payload_size);
  /// Stash one received kBroadcast for drain_actions.
  void stash_broadcast(const net::Frame& frame);

  bus::TransportOptions opts_;
  net::EndpointOptions endpoint_opts_;
  PiChannel inbox_;
  std::vector<ControlDomain*> domains_;
  std::vector<std::size_t> slice_offsets_;  ///< per domain, for shard_of_action
  std::int64_t last_tick_ = 0;              ///< tick of the last frame sent
  capture::WireLogWriter* capture_ = nullptr;
  PayloadRecycler payload_recycler_;
  std::unique_ptr<net::Endpoint> endpoint_;

  std::uint32_t fingerprint_ = 0;
  std::size_t total_train_steps_ = 0;
  /// Frames that could not even be queued because the link was already
  /// dead (the endpoint's own counter covers shed-while-alive).
  std::uint64_t dead_drops_ = 0;

  /// Recycled broadcast stash: slots grow once, values keep capacity.
  struct PendingBroadcast {
    std::size_t domain = 0;
    std::vector<double> values;
  };
  std::vector<PendingBroadcast> stash_;
  std::size_t stash_count_ = 0;
  std::vector<std::uint8_t> payload_scratch_;
};

}  // namespace capes::core
