#include "bus/transport.hpp"

#include <cmath>

#include "util/cli.hpp"
#include "util/rng.hpp"

namespace capes::bus {

Transport::~Transport() = default;

Delivery SyncTransport::plan(std::uint64_t, std::uint64_t,
                             std::int64_t send_tick) const {
  return {false, send_tick};
}

SimTransport::SimTransport(const TransportOptions& opts) : opts_(opts) {}

Delivery SimTransport::plan(std::uint64_t topic, std::uint64_t sender,
                            std::int64_t send_tick) const {
  // Two independent draws from one message key: advance the key through
  // the mixer once per draw (counter mode).
  std::uint64_t key = opts_.seed;
  key = util::mix64(key ^ util::mix64(topic ^ 0x746f706963ULL));
  key = util::mix64(key ^ util::mix64(sender ^ 0x73656e646572ULL));
  key = util::mix64(key ^ static_cast<std::uint64_t>(send_tick));

  const std::uint64_t drop_draw = util::mix64(key);
  if (opts_.drop > 0.0 && util::to_unit(drop_draw) < opts_.drop) {
    return {true, send_tick};
  }
  std::int64_t delay = opts_.latency_ticks;
  if (opts_.jitter > 0.0) {
    const std::uint64_t jitter_draw = util::mix64(key ^ 0x6a69747465ULL);
    delay += static_cast<std::int64_t>(
        std::floor(util::to_unit(jitter_draw) * opts_.jitter));
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
  if (error) {
    *error = "unknown transport '" + std::string(text) +
             "' (expected sync, sim, or tcp)";
  }
  return false;
}

bool parse_transport_spec(std::string_view spec, TransportOptions* out,
                          std::string* error) {
  TransportOptions p;
  const util::SpecParts parts = util::split_spec(spec);
  if (!parse_transport_scheme(parts.name, &p.kind, error)) return false;
  std::string why;
  bool ok = true;
  if (p.kind == TransportKind::kSync && parts.options) {
    ok = false;
    why = "transport 'sync' takes no options";
  } else if (p.kind == TransportKind::kSim) {
    ok = util::parse_spec_options(
        parts.options,
        {{"latency_ticks", "N", "", util::store_int(&p.latency_ticks, 0)},
         {"jitter", "X", "", util::store_double(&p.jitter, 0.0)},
         {"drop", "P", "", util::store_double(&p.drop, 0.0, 1.0, true)},
         {"seed", "N", "", util::store_seed(&p.seed, &p.seed_explicit)}},
        "transport", &why);
  } else if (p.kind == TransportKind::kTcp) {
    ok = util::parse_spec_options(
        parts.options,
        {{"host", "H", "",
          [&](const std::string& v, std::string* reason) {
            if (v.empty()) {
              *reason = "host must be non-empty";
              return false;
            }
            p.tcp_host = v;
            return true;
          }},
         {"port", "N", "", util::store_int(&p.tcp_port, 1, 65535)},
         {"connect_timeout_ms", "N", "",
          util::store_int(&p.connect_timeout_ms, 0)},
         {"io_threads", "N", "", util::store_int(&p.io_threads, 1, 64)}},
        "tcp transport", &why);
    // An empty host and port 0 never parse, so they mean "not given".
    if (ok && (p.tcp_host.empty() || p.tcp_port == 0)) {
      ok = false;
      why = std::string("tcp transport requires ") +
            (p.tcp_host.empty() ? "host" : "port") + "=.. in '" +
            std::string(spec) + "'";
    }
  }
  if (!ok) {
    if (error) *error = why;
    return false;
  }
  *out = p;
  return true;
}

}  // namespace capes::bus
