#pragma once
// Deterministic fault injection (ROADMAP item 2(b)): OST crashes with
// timed restarts, straggler disks, and control-network partition windows,
// all driven by a FaultPlan parsed from a strict spec grammar.
//
// Determinism contract (the SimTransport house pattern): every fate is a
// pure splitmix64 hash of (seed, kind, node, tick) — never a draw from a
// shared RNG stream — so a seeded faulted run is bit-identical at any
// shard/thread count, under any shard plan, and through capture/replay.
// A fault *window* is pure too: node n is degraded at tick T iff some
// start tick s in (T - window, T] has the start fate, which is exactly
// the union of the per-start windows (overlapping starts extend).
//
// The FaultInjector turns those pure fates into state transitions: it
// runs once per sampling tick at the barrier (serially, on the control
// thread, under the owning domain's shard binding) and schedules the
// apply/restore calls as events at the current time into the domain's
// tagged event queue — so they execute first in the next advance, count
// against the domain, and migrate with it under the rate shard plan.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"

namespace capes::sim {

/// Parsed form of a fault spec. The CLI / config grammar:
///   off
///   faults[:ost_crash=P,restart_ticks=N,straggler=P,slow_factor=X,
///          straggler_ticks=N,partition=P,partition_ticks=N,seed=N]
/// All rates are per-tick start probabilities in [0, 1); a plan with
/// every rate zero is a no-op object (enabled() == false).
struct FaultPlan {
  /// Per-server per-tick probability that an OST crash starts.
  double ost_crash = 0.0;
  /// Ticks a crashed server stays down; the restart lands exactly this
  /// many ticks after the crash start.
  std::int64_t restart_ticks = 10;
  /// Per-disk per-tick probability that a straggle window starts.
  double straggler = 0.0;
  /// Service-time multiplier while a disk straggles (>= 1).
  double slow_factor = 8.0;
  /// Ticks a straggle window lasts.
  std::int64_t straggler_ticks = 20;
  /// Per-domain per-tick probability that a control-network partition
  /// window starts (the domain's agent/broadcast messages are silently
  /// dropped, surfacing as messages_dropped).
  double partition = 0.0;
  /// Ticks a partition window lasts.
  std::int64_t partition_ticks = 5;
  /// Seed for the per-fate hash. When not explicitly set, CapesSystem
  /// derives one from the experiment seed so a seeded run fixes its
  /// fault realization too.
  std::uint64_t seed = 0;
  bool seed_explicit = false;

  bool enabled() const {
    return ost_crash > 0.0 || straggler > 0.0 || partition > 0.0;
  }
};

/// Fault record kinds. Values are the capture wire encoding of the
/// kFault record payload — append only.
enum class FaultKind : std::uint8_t {
  kDegraded = 0,  ///< per-(domain, tick) marker: some fault was active
  kOstCrash = 1,
  kStraggler = 2,
  kPartition = 3,
};

/// The hash key for a (domain, local node) pair. Domain indices and node
/// counts both fit 32 bits by construction.
constexpr std::uint64_t fault_node_key(std::uint32_t domain,
                                       std::uint32_t node) {
  return (static_cast<std::uint64_t>(domain) << 32) | node;
}

// ---- pure fates -----------------------------------------------------------
// Order- and thread-count-independent by construction; callable from
// anywhere (the partition predicate is evaluated inside concurrent
// transport plan() calls).

/// Does an OST crash start on `node_key` at `tick`?
bool crash_starts(const FaultPlan& plan, std::uint64_t node_key,
                  std::int64_t tick);
/// Is `node_key` down at `tick` (some crash start within restart_ticks)?
bool ost_down(const FaultPlan& plan, std::uint64_t node_key,
              std::int64_t tick);

/// Does a straggle window start on `node_key` at `tick`?
bool straggle_starts(const FaultPlan& plan, std::uint64_t node_key,
                     std::int64_t tick);
/// Is `node_key`'s disk straggling at `tick`?
bool disk_straggling(const FaultPlan& plan, std::uint64_t node_key,
                     std::int64_t tick);

/// Does a partition window start for `domain` at `tick`?
bool partition_starts(const FaultPlan& plan, std::uint32_t domain,
                      std::int64_t tick);
/// Is `domain`'s control network partitioned at `tick`?
bool domain_partitioned(const FaultPlan& plan, std::uint32_t domain,
                        std::int64_t tick);

/// Parse "off" / "faults[:k=v,...]" into *out through the one spec
/// grammar (util::parse_spec_options). Returns false (with *error, if
/// non-null) on an unknown scheme, an item the grammar rejects, or an
/// out-of-range value (rates outside [0, 1), window tick counts < 1,
/// slow_factor < 1).
bool parse_fault_spec(std::string_view spec, FaultPlan* out,
                      std::string* error = nullptr);

/// What a target system exposes to the injector: a dense index of
/// fault-capable nodes (the lustre adapter's OST servers) plus the
/// down/slow actuators. Implemented by lustre::Cluster; adapters without
/// fault support return null from fault_target() and only partition
/// faults apply.
class FaultTarget {
 public:
  virtual ~FaultTarget() = default;

  /// Fault-capable nodes, indexed 0..n-1 (servers, for the lustre
  /// adapter — each owns the disk the straggler fault slows).
  virtual std::size_t num_fault_nodes() const = 0;

  /// Take `node` down (stop serving, reject queued I/O) or bring it back.
  virtual void apply_node_down(std::size_t node, bool down) = 0;

  /// Set `node`'s disk service-time multiplier (1.0 restores normal).
  virtual void apply_node_slow(std::size_t node, double factor) = 0;
};

/// One fault observation from the latest on_tick (the capture record
/// unit): a start of one of the three kinds, or the per-tick kDegraded
/// marker. `node_key` is fault_node_key(domain, node) for node faults
/// and the domain index for partition/degraded records.
struct FaultEvent {
  FaultKind kind = FaultKind::kDegraded;
  std::uint64_t node_key = 0;
};

/// Per-injector (per-domain) counters; RunResult aggregates the deltas
/// across domains over a phase.
struct FaultCounters {
  std::uint64_t faults_injected = 0;  ///< starts of any kind
  std::uint64_t ost_crashes = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t partitions = 0;
  std::uint64_t ticks_degraded = 0;  ///< ticks with any fault active
};

/// Drives one domain's fault schedule. on_tick(t) must be called once
/// per sampling tick, for consecutive ticks, serially on the control
/// thread, under the domain's shard binding (CapesSystem binds before
/// calling) — transitions are scheduled as events at the current
/// simulator time into the bound (domain-tagged) queue.
class FaultInjector {
 public:
  /// `target` may be null (no fault-capable nodes; only the partition
  /// fate and counters apply). The plan and target must outlive the
  /// injector and every event it schedules.
  FaultInjector(Simulator& sim, const FaultPlan& plan, std::uint32_t domain,
                FaultTarget* target);

  /// Advance the fault schedule to `tick`: evaluate start fates, schedule
  /// down/restart and slow/restore transitions, update counters, and
  /// refill last_events(). A restart lands on exactly the on_tick call
  /// restart_ticks after its crash start (later overlapping starts
  /// extend the window, as in the pure ost_down predicate).
  void on_tick(std::int64_t tick);

  /// Is this domain's control network partitioned at `tick`? Pure
  /// (delegates to domain_partitioned), so the transport-side predicate
  /// and the injector always agree.
  bool partitioned(std::int64_t tick) const;

  const FaultCounters& counters() const { return counters_; }

  /// The fault starts (plus the kDegraded marker, last) observed by the
  /// latest on_tick, in deterministic (node-index) order. Valid until
  /// the next on_tick.
  const std::vector<FaultEvent>& last_events() const { return last_events_; }

  std::uint32_t domain() const { return domain_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  Simulator& sim_;
  FaultPlan plan_;
  std::uint32_t domain_;
  FaultTarget* target_;
  /// Per-node window state applied to the target (first on_tick sizes
  /// them): the tick each window ends, and whether the actuator is
  /// currently engaged.
  std::vector<std::int64_t> down_until_;
  std::vector<std::int64_t> slow_until_;
  std::vector<char> down_applied_;
  std::vector<char> slow_applied_;
  FaultCounters counters_;
  std::vector<FaultEvent> last_events_;
};

}  // namespace capes::sim
