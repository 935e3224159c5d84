#pragma once
// The daemon-side half of the distributed control plane: one BrainService
// session hosts a core::Brain (Replay DB + Interface Daemon + DRL Engine)
// for one connected agent (`capes_run --transport=tcp:...`) and speaks the
// remote_brain protocol over a net::Endpoint.
//
// The session's Brain is built from the client's Hello — the same
// TraceMeta snapshot a capture file leads with, plus the per-domain
// action-space layout — through the constructor TraceReplayer uses on a
// capture. Hellos whose action slices do not tile the composite space
// contiguously from 1 are rejected before anything is built. The service
// itself is a frame -> method adapter: status and reward frames feed the
// Brain in FIFO order, kFrameTickDone runs its end_tick, and the checked
// broadcasts its daemon shards emit go back as kBroadcast frames. Every
// decision is made by the code an in-process CapesSystem runs, so a
// loopback session with zero loss trains the engine to a weights
// fingerprint bit-identical to the `sync` transport's.
//
// Lifecycle: serve() returns when the client says Bye (clean_shutdown),
// when the link dies (EOF / error / idle timeout — a killed agent never
// hangs the daemon), or on a protocol error. One endpoint, one session:
// capes_daemond accepts, serves, reports.

#include <cstdint>
#include <string>

#include "net/endpoint.hpp"

namespace capes::core {

struct BrainServiceReport {
  bool hello_ok = false;        ///< handshake completed
  bool clean_shutdown = false;  ///< client said Bye (vs. link death)
  std::int64_t ticks = 0;       ///< kFrameTickDone barriers served
  std::size_t num_domains = 0;
  std::uint64_t status_records = 0;
  std::uint64_t reward_records = 0;
  std::uint64_t decode_errors = 0;      ///< malformed PI payloads
  std::uint64_t actions_broadcast = 0;  ///< checked actions that applied
  std::uint64_t actions_vetoed = 0;     ///< checker rejections -> NULL
  std::size_t train_steps = 0;          ///< minibatch steps run
  std::uint32_t fingerprint = 0;        ///< final online-weights CRC32
  std::string error;                    ///< non-empty on protocol failure
};

class BrainService {
 public:
  /// Serve one session on a connected endpoint until Bye, link death, or
  /// a protocol error. Blocking; run it on the accept thread (or a test
  /// thread). The endpoint outlives the call.
  BrainServiceReport serve(net::Endpoint& endpoint);
};

}  // namespace capes::core
