// capes_daemond — the standalone Interface Daemon + DRL Engine process
// of the distributed control plane (§3.3's deployment: Monitoring Agents
// feed a central daemon that hosts the Replay DB and the DRL brain).
//
// The daemon listens on a TCP endpoint, accepts one capes_agentd
// connection, and runs a core::BrainService session over it: the entire
// run topology (workload meta, per-domain action spaces) arrives in the
// client's Hello, and the session's core::Brain is built from it through
// the constructor capes_replay uses on a capture file's header — the
// daemon needs no workload flags of its own.
// With --port=0 the kernel picks an ephemeral port and the daemon prints
// it on stdout (flushed before accepting), so scripts can launch the
// pair without coordinating port numbers.

#include <cstdio>
#include <cstring>
#include <string>

#include "core/brain_service.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/parse.hpp"

using namespace capes;

namespace {

struct Args {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, the daemon prints the real port.
  std::int64_t port = 4890;
  /// How long to wait for the agent to connect (-1 = forever).
  std::int64_t accept_timeout_ms = 30000;
  /// Declare a silent peer dead after this long (heartbeats keep a
  /// healthy but idle link well under it).
  std::int64_t idle_timeout_ms = 30000;
};

using util::parse_flag;

enum class ParseOutcome { kOk, kError, kHelp };

ParseOutcome parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_flag(argv[i], "--host", &value)) {
      args->host = value;
    } else if (parse_flag(argv[i], "--port", &value)) {
      std::int64_t port = 0;
      if (!util::parse_i64(value, &port) || port < 0 || port > 65535) {
        std::fprintf(stderr, "--port must be in [0, 65535], got '%s'\n",
                     value.c_str());
        return ParseOutcome::kError;
      }
      args->port = port;
    } else if (parse_flag(argv[i], "--accept-timeout-ms", &value)) {
      if (!util::parse_i64(value, &args->accept_timeout_ms)) {
        std::fprintf(stderr, "invalid value for --accept-timeout-ms: '%s'\n",
                     value.c_str());
        return ParseOutcome::kError;
      }
    } else if (parse_flag(argv[i], "--idle-timeout-ms", &value)) {
      if (!util::parse_i64(value, &args->idle_timeout_ms) ||
          args->idle_timeout_ms < 0) {
        std::fprintf(stderr, "--idle-timeout-ms must be >= 0, got '%s'\n",
                     value.c_str());
        return ParseOutcome::kError;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return ParseOutcome::kHelp;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return ParseOutcome::kError;
    }
  }
  return ParseOutcome::kOk;
}

void print_usage() {
  std::printf(
      "usage: capes_daemond [--host=ADDR] [--port=N] [--accept-timeout-ms=N]\n"
      "                     [--idle-timeout-ms=N] [--help]\n"
      "\n"
      "Hosts the Interface Daemon + DRL Engine half of a distributed CAPES\n"
      "run: listens on --host:--port (default 127.0.0.1:4890), accepts one\n"
      "capes_agentd connection, and serves its training session — the run\n"
      "topology arrives in the agent's handshake, so the daemon needs no\n"
      "workload configuration of its own. --port=0 lets the kernel pick an\n"
      "ephemeral port; the daemon prints 'listening on HOST:PORT' (flushed)\n"
      "before accepting, so scripts can read the port back. The process\n"
      "exits after the session: 0 on a clean agent Bye or link death (loss\n"
      "is the agent's to report), 1 on a setup or protocol error.\n"
      "--accept-timeout-ms bounds the wait for the agent (-1 = forever);\n"
      "--idle-timeout-ms declares a silent peer dead (0 = never).\n"
      "See docs/CONFIG.md for the distributed-run reference.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  switch (parse_args(argc, argv, &args)) {
    case ParseOutcome::kOk:
      break;
    case ParseOutcome::kHelp:
      print_usage();
      return 0;
    case ParseOutcome::kError:
      print_usage();
      return 2;
  }

  std::string error;
  const int listen_fd = net::tcp_listen(
      args.host, static_cast<std::uint16_t>(args.port), &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }
  const std::uint16_t port = net::local_port(listen_fd);
  // Flush before blocking in accept: launcher scripts parse this line to
  // learn an ephemeral port.
  std::printf("capes_daemond listening on %s:%u\n", args.host.c_str(),
              static_cast<unsigned>(port));
  std::fflush(stdout);

  const int conn_fd =
      net::accept_connection(listen_fd, args.accept_timeout_ms, &error);
  net::close_socket(listen_fd);
  if (conn_fd < 0) {
    std::fprintf(stderr, "capes_daemond: %s\n", error.c_str());
    return 1;
  }

  net::EndpointOptions ep_opts;
  ep_opts.idle_timeout_ms = args.idle_timeout_ms;
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
