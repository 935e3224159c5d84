// capes_daemond — the standalone Interface Daemon + DRL Engine process
// of the distributed control plane (§3.3's deployment: Monitoring Agents
// feed a central daemon that hosts the Replay DB and the DRL brain).
//
// The daemon listens on a TCP endpoint, accepts one agent connection
// (`capes_run --transport=tcp:host=H,port=N`), and runs a
// core::BrainService session over it: the entire run topology (workload
// meta, per-domain action spaces) arrives in the client's Hello, and the
// session's core::Brain is built from it through the constructor
// capes_replay uses on a capture file's header — the daemon needs no
// workload flags of its own.
// With --port=0 the kernel picks an ephemeral port and the daemon prints
// it on stdout (flushed before accepting), so scripts can launch the
// pair without coordinating port numbers.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/brain_service.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/cli.hpp"

using namespace capes;

namespace {

constexpr const char* kEpilogue =
    "Hosts the Interface Daemon + DRL Engine half of a distributed CAPES\n"
    "run: listens on --host:--port (default 127.0.0.1:4890), accepts one\n"
    "'capes_run --transport=tcp:host=H,port=N' agent connection, and\n"
    "serves its training session — the run topology arrives in the\n"
    "agent's handshake, so the daemon needs no workload configuration of\n"
    "its own. --port=0 lets the kernel pick an ephemeral port; the daemon\n"
    "prints 'listening on HOST:PORT' (flushed) before accepting, so\n"
    "scripts can read the port back. The process exits after the\n"
    "session: 0 on a clean agent Bye or link death (loss is the agent's\n"
    "to report), 1 on a setup or protocol error.\n"
    "--accept-timeout-ms bounds the wait for the agent (-1 = forever);\n"
    "--idle-timeout-ms declares a silent peer dead (0 = never).\n"
    "See docs/CONFIG.md for the distributed-run reference.\n";

}  // namespace

int main(int argc, char** argv) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  std::string host = "127.0.0.1";
  std::int64_t port = 4890;  // 0 = ephemeral: the kernel picks
  std::int64_t accept_timeout_ms = 30000;
  // Heartbeats keep a healthy but idle link well under this.
  std::int64_t idle_timeout_ms = 30000;
  const std::vector<util::Flag> flags = {
      {"--host", "ADDR", "listen address", util::store_to(&host)},
      {"--port", "N", "listen port (0 = ephemeral, printed on startup)",
       util::store_int(&port, 0, 65535)},
      {"--accept-timeout-ms", "N", "wait this long for the agent (-1 = forever)",
       util::store_int(&accept_timeout_ms, kMin)},
      {"--idle-timeout-ms", "N", "declare a silent agent dead (0 = never)",
       util::store_int(&idle_timeout_ms, 0)},
  };
  if (auto rc = util::parse_command_line(argc, argv, "capes_daemond", flags,
                                         kEpilogue)) {
    return *rc;
  }

  std::string error;
  const int listen_fd = net::tcp_listen(
      host, static_cast<std::uint16_t>(port), &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }
  const std::uint16_t bound_port = net::local_port(listen_fd);
  // Flush before blocking in accept: launcher scripts parse this line to
  // learn an ephemeral port.
  std::printf("capes_daemond listening on %s:%u\n", host.c_str(),
              static_cast<unsigned>(bound_port));
  std::fflush(stdout);

  const int conn_fd =
      net::accept_connection(listen_fd, accept_timeout_ms, &error);
  net::close_socket(listen_fd);
  if (conn_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }

  net::EndpointOptions ep_opts;
  ep_opts.idle_timeout_ms = idle_timeout_ms;
  net::Endpoint endpoint(conn_fd, ep_opts);

  core::BrainService service;
  const auto report = service.serve(endpoint);
  endpoint.close();

  if (!report.hello_ok) {
    std::fprintf(stderr, "capes_daemond: session failed before handshake%s%s\n",
                 report.error.empty() ? "" : ": ",
                 report.error.c_str());
    return 1;
  }
  std::printf("session: %lld ticks, %zu domains, %llu status / %llu reward "
              "records, %llu actions broadcast, %llu vetoed\n",
              static_cast<long long>(report.ticks), report.num_domains,
              static_cast<unsigned long long>(report.status_records),
              static_cast<unsigned long long>(report.reward_records),
              static_cast<unsigned long long>(report.actions_broadcast),
              static_cast<unsigned long long>(report.actions_vetoed));
  if (report.decode_errors > 0) {
    std::printf("  %llu malformed PI payloads dropped\n",
                static_cast<unsigned long long>(report.decode_errors));
  }
  std::printf("shutdown: %s\n",
              report.clean_shutdown ? "clean (agent Bye)" : "link death");
  // The same determinism handle capes_run prints: CI compares this line
  // against the in-process run's.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              report.fingerprint, report.train_steps);
  if (!report.error.empty()) {
    std::fprintf(stderr, "capes_daemond: %s\n", report.error.c_str());
    return 1;
  }
  return 0;
}
