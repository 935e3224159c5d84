#include "bus/transport.hpp"

#include <cmath>
#include <cstdio>

#include "util/parse.hpp"

namespace capes::bus {

Transport::~Transport() = default;

Delivery SyncTransport::plan(std::uint64_t, std::uint64_t,
                             std::int64_t send_tick) const {
  return {false, send_tick};
}

SimTransport::SimTransport(const TransportOptions& opts) : opts_(opts) {}

namespace {

/// splitmix64 finalizer: the per-message fate hash. Statistically strong
/// enough for a drop/jitter model and, unlike a shared RNG stream,
/// order-independent: the fate of (topic, sender, tick) never depends on
/// which other messages were planned before it.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Map a 64-bit hash to a uniform double in [0, 1).
double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

Delivery SimTransport::plan(std::uint64_t topic, std::uint64_t sender,
                            std::int64_t send_tick) const {
  // Two independent draws from one message key: advance the key through
  // the mixer once per draw (counter mode).
  std::uint64_t key = opts_.seed;
  key = mix64(key ^ mix64(topic ^ 0x746f706963ULL));
  key = mix64(key ^ mix64(sender ^ 0x73656e646572ULL));
  key = mix64(key ^ static_cast<std::uint64_t>(send_tick));

  const std::uint64_t drop_draw = mix64(key);
  if (opts_.drop > 0.0 && to_unit(drop_draw) < opts_.drop) {
    return {true, send_tick};
  }
  std::int64_t delay = opts_.latency_ticks;
  if (opts_.jitter > 0.0) {
    const std::uint64_t jitter_draw = mix64(key ^ 0x6a69747465ULL);
    delay += static_cast<std::int64_t>(
        std::floor(to_unit(jitter_draw) * opts_.jitter));
  }
  return {false, send_tick + delay};
}

TcpTransport::TcpTransport(const TransportOptions& opts) : opts_(opts) {}

Delivery TcpTransport::plan(std::uint64_t, std::uint64_t,
                            std::int64_t send_tick) const {
  // TCP is a reliable per-peer FIFO: the local channel never drops or
  // delays. Peer-death loss is counted at the endpoint, not planned here.
  return {false, send_tick};
}

FaultingTransport::FaultingTransport(std::unique_ptr<Transport> inner,
                                     DropFn drop)
    : inner_(std::move(inner)), drop_(std::move(drop)) {}

Delivery FaultingTransport::plan(std::uint64_t topic, std::uint64_t sender,
                                 std::int64_t send_tick) const {
  Delivery delivery = inner_->plan(topic, sender, send_tick);
  if (!delivery.dropped && drop_ && drop_(topic, sender, send_tick)) {
    delivery.dropped = true;
  }
  return delivery;
}

std::unique_ptr<Transport> make_transport(const TransportOptions& opts) {
  if (opts.kind == TransportKind::kSim) {
    return std::make_unique<SimTransport>(opts);
  }
  if (opts.kind == TransportKind::kTcp) {
    return std::make_unique<TcpTransport>(opts);
  }
  return std::make_unique<SyncTransport>();
}

namespace {

bool spec_fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

}  // namespace

const char* transport_scheme_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kSim: return "sim";
    case TransportKind::kTcp: return "tcp";
    case TransportKind::kSync: break;
  }
  return "sync";
}

bool parse_transport_scheme(std::string_view text, TransportKind* out,
                            std::string* error) {
  for (const TransportKind kind :
       {TransportKind::kSync, TransportKind::kSim, TransportKind::kTcp}) {
    if (text == transport_scheme_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return spec_fail(error, "unknown transport '" + std::string(text) +
                              "' (expected sync, sim, or tcp)");
}

bool parse_transport_spec(std::string_view spec, TransportOptions* out,
                          std::string* error) {
  TransportOptions parsed;
  std::string_view scheme = spec;
  std::string_view opts_part;
  const std::size_t colon = spec.find(':');
  if (colon != std::string_view::npos) {
    scheme = spec.substr(0, colon);
    opts_part = spec.substr(colon + 1);
  }

  if (!parse_transport_scheme(scheme, &parsed.kind, error)) return false;
  if (parsed.kind == TransportKind::kSync && colon != std::string_view::npos) {
    return spec_fail(error, "transport 'sync' takes no options");
  }

  bool saw_host = false;
  bool saw_port = false;
  while (!opts_part.empty()) {
    const std::size_t comma = opts_part.find(',');
    std::string_view item = opts_part.substr(0, comma);
    opts_part = comma == std::string_view::npos
                    ? std::string_view{}
                    : opts_part.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return spec_fail(error, "malformed transport option '" +
                                  std::string(item) + "' (expected key=value)");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (parsed.kind == TransportKind::kTcp) {
      if (key == "host") {
        if (value.empty()) {
          return spec_fail(error, "host must be non-empty");
        }
        parsed.tcp_host = std::string(value);
        saw_host = true;
      } else if (key == "port") {
        if (!util::parse_i64(value, &parsed.tcp_port) || parsed.tcp_port < 1 ||
            parsed.tcp_port > 65535) {
          return spec_fail(error, "port must be an integer in [1, 65535], "
                                  "got '" + std::string(value) + "'");
        }
        saw_port = true;
      } else if (key == "connect_timeout_ms") {
        if (!util::parse_i64(value, &parsed.connect_timeout_ms) ||
            parsed.connect_timeout_ms < 0) {
          return spec_fail(error, "connect_timeout_ms must be an integer "
                                  ">= 0, got '" + std::string(value) + "'");
        }
      } else if (key == "io_threads") {
        if (!util::parse_i64(value, &parsed.io_threads) ||
            parsed.io_threads < 1 || parsed.io_threads > 64) {
          return spec_fail(error, "io_threads must be an integer in [1, 64], "
                                  "got '" + std::string(value) + "'");
        }
      } else {
        return spec_fail(error, "unknown tcp transport option '" +
                                    std::string(key) + "' (expected host, "
                                    "port, connect_timeout_ms, or io_threads)");
      }
      continue;
    }
    if (key == "latency_ticks") {
      if (!util::parse_i64(value, &parsed.latency_ticks) ||
          parsed.latency_ticks < 0) {
        return spec_fail(error, "latency_ticks must be an integer >= 0, got '" +
                                    std::string(value) + "'");
      }
    } else if (key == "jitter") {
      if (!util::parse_double(value, &parsed.jitter) || parsed.jitter < 0.0) {
        return spec_fail(error, "jitter must be a number >= 0, got '" +
                                    std::string(value) + "'");
      }
    } else if (key == "drop") {
      if (!util::parse_double(value, &parsed.drop) || parsed.drop < 0.0 ||
          parsed.drop >= 1.0) {
        return spec_fail(error, "drop must be a probability in [0, 1), got '" +
                                    std::string(value) + "'");
      }
    } else if (key == "seed") {
      if (!util::parse_u64(value, &parsed.seed)) {
        return spec_fail(error, "seed must be an unsigned integer, got '" +
                                    std::string(value) + "'");
      }
      parsed.seed_explicit = true;
    } else {
      return spec_fail(error, "unknown transport option '" + std::string(key) +
                                  "' (expected latency_ticks, jitter, drop, "
                                  "or seed)");
    }
  }
  if (parsed.kind == TransportKind::kTcp) {
    if (!saw_host) {
      return spec_fail(error, "tcp transport requires host=.. in '" +
                                  std::string(spec) + "'");
    }
    if (!saw_port) {
      return spec_fail(error, "tcp transport requires port=.. in '" +
                                  std::string(spec) + "'");
    }
  }
  *out = parsed;
  return true;
}

std::string transport_spec_string(const TransportOptions& opts) {
  std::string spec = transport_scheme_name(opts.kind);
  if (opts.kind == TransportKind::kSync) return spec;
  if (opts.kind == TransportKind::kTcp) {
    return spec + ":host=" + opts.tcp_host + ",port=" +
           std::to_string(opts.tcp_port) +
           ",connect_timeout_ms=" + std::to_string(opts.connect_timeout_ms) +
           ",io_threads=" + std::to_string(opts.io_threads);
  }
  spec += ":latency_ticks=" + std::to_string(opts.latency_ticks);
  // %.17g is the shortest printf precision that reproduces any double
  // exactly, keeping the documented round-trip value-lossless.
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), ",jitter=%.17g,drop=%.17g",
                opts.jitter, opts.drop);
  spec += buffer;
  if (opts.seed_explicit) spec += ",seed=" + std::to_string(opts.seed);
  return spec;
}

}  // namespace capes::bus
