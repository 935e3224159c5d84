// One closed-loop run of the §A.4 workflow (train -> baseline -> tuned) on
// a named benchmark workload, built through the public core::Experiment
// builder. The control loop is the only client: a sampling tick starts
// when the previous one returns. Prints one JSON object of raw
// measurements on stdout; perfbench/run.py turns it into the benchmark's
// metrics and correctness gates (see perfbench/README.md).
//
//   capes_perfbench --workload=a4-1d --seed=1 [--setups=15] [--traced]
//                   [--quick] [--trace-out=FILE]
//
// Untraced runs record one timestamp per tick through the public on_tick
// observer and nothing else. --traced adds allocation/event counters
// around each phase call and, once the workflow is done, timed calls into
// each layer's public entry points on the warm post-run state. Every
// timing is a span (name, parent, start, end) kept in memory and written
// to --trace-out when the run ends.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/brain_service.hpp"
#include "core/experiment.hpp"
#include "core/remote_brain.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/alloc_hook.hpp"
#include "util/crc32.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace capes;

namespace {

/// A benchmark workload: the domains' workload specs plus every setting
/// that reaches the builder. Tick counts are fixed so that one seed always
/// gives the same simulated outputs.
struct Workload {
  std::string name;
  std::vector<std::string> specs;  ///< one control domain each
  std::size_t worker_threads = 0;
  std::size_t sim_shards = 1;      ///< 1 = serial loop, 0 = one queue per domain
  std::string shard_plan = "static";
  bool tcp = false;                ///< brain behind a loopback tcp: link
  std::int64_t train_ticks = 0;
  std::int64_t eval_ticks = 0;
};

std::vector<Workload> workloads() {
  const std::vector<std::string> mix = {"random:0.2", "random:0.8", "seqwrite",
                                        "fileserver"};
  std::vector<std::string> mix8 = mix;
  mix8.insert(mix8.end(), mix.begin(), mix.end());
  return {
      {"a4-1d", {"random:0.5"}, 0, 1, "static", false, 2400, 2000},
      {"mix-8d", mix8, 3, 0, "rate", false, 900, 500},
      {"tcp-1d", {"random:0.5"}, 0, 1, "static", true, 2400, 2000},
  };
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "capes_perfbench: %s\n", message.c_str());
  std::exit(1);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

/// Spans kept in memory; tick spans are derived from the tick stamps.
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::size_t begin(std::string name, std::size_t parent = kNoParent) {
    spans_.push_back({std::move(name), parent, now_ns(), 0});
    return spans_.size() - 1;
  }
  /// Closes span `id`; returns its duration in microseconds.
  double end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) / 1e3;
  }
  void add(std::string name, std::size_t parent, std::int64_t start_ns,
           std::int64_t end_ns) {
    spans_.push_back({std::move(name), parent, start_ns, end_ns});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"parent\":"
          << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Minimal JSON object writer for the result record.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    if (!std::isfinite(v)) return raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  Json& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& nums(const std::string& key, const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      out += buf;
    }
    return raw(key, out + "]");
  }
  template <typename Int>
  Json& counts(const std::string& key, const std::vector<Int>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(v[i]);
    }
    return raw(key, out + "]");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// One capes_daemond session on a thread of this process: listen on an
/// ephemeral loopback port, accept one peer, serve it until Bye.
class LoopbackBrain {
 public:
  LoopbackBrain() = default;
  ~LoopbackBrain() { join(); }
  LoopbackBrain(const LoopbackBrain&) = delete;
  LoopbackBrain& operator=(const LoopbackBrain&) = delete;

  void start() {
    std::string error;
    listen_fd_ = net::tcp_listen("127.0.0.1", 0, &error);
    if (listen_fd_ < 0) die("tcp_listen: " + error);
    port_ = net::local_port(listen_fd_);
    thread_ = std::thread([this] { serve(); });
  }
  std::uint16_t port() const { return port_; }
  const core::BrainServiceReport& join() {
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  void serve() {
    std::string error;
    const int fd = net::accept_connection(listen_fd_, 10000, &error);
    net::close_socket(listen_fd_);
    if (fd < 0) {
      report_.error = "accept: " + error;
      return;
    }
    net::Endpoint endpoint(fd, net::EndpointOptions{});
    report_ = core::BrainService().serve(endpoint);
    endpoint.close();
  }

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  core::BrainServiceReport report_;
  std::thread thread_;  ///< last: the thread reads the members above
};

/// Steady-clock stamp of every tick's end, from the on_tick observer.
/// Capacity is reserved up front so stamping never allocates.
struct TickClock {
  std::vector<std::int64_t> stamps;
};

/// A built experiment plus, under tcp, the brain it is connected to.
struct Session {
  std::unique_ptr<LoopbackBrain> brain;
  std::unique_ptr<core::Experiment> exp;
};

/// Builder call through warm-up: everything before the first tick,
/// including the tcp listen, connect and handshake.
Session set_up(const Workload& w, std::uint64_t seed, TickClock* clock,
               double* seconds) {
  const std::int64_t start = now_ns();
  Session s;
  std::string transport = "sync";
  if (w.tcp) {
    s.brain = std::make_unique<LoopbackBrain>();
    s.brain->start();
    transport = "tcp:host=127.0.0.1,port=" + std::to_string(s.brain->port());
  }
  core::ExperimentBuilder builder = core::Experiment::builder();
  builder.seed(seed)
      .workload(w.specs[0])
      .worker_threads(w.worker_threads)
      .sim_shards(w.sim_shards)
      .shard_plan(w.shard_plan)
      .transport(transport)
      .learner("sync")
      .on_tick([clock](const core::TickEvent&) {
        clock->stamps.push_back(now_ns());
      });
  for (std::size_t i = 1; i < w.specs.size(); ++i) builder.add_cluster(w.specs[i]);
  std::string error;
  s.exp = builder.build(&error);
  if (!s.exp) die("experiment setup failed: " + error);
  s.exp->ensure_warmed_up();
  *seconds = static_cast<double>(now_ns() - start) / 1e9;
  return s;
}

struct PhaseResult {
  std::string name;
  std::int64_t ticks = 0;
  double wall_s = 0.0;
  std::vector<std::int64_t> tick_ns;  ///< wall time of every tick
  double mean_mbs = 0.0;
  double mean_latency_ms = 0.0;
  std::uint32_t digest = 0;  ///< CRC32 of the phase's per-tick CSV
  std::size_t train_steps = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t msgs_late = 0;
  std::uint64_t events = 0;  ///< simulator events run during the phase
  // Counted around the phase call (traced runs only).
  std::uint64_t allocs = 0;
  std::uint64_t hot_allocs = 0;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t barrier_wait_ns = 0;
};

PhaseResult run_phase(core::Experiment& exp, core::RunPhase phase,
                      std::int64_t ticks, TickClock& clock, SpanLog* spans,
                      std::size_t parent) {
  PhaseResult r;
  r.name = core::phase_name(phase);
  r.ticks = ticks;
  const std::uint64_t events0 = exp.simulator().executed_events();
  std::uint64_t allocs0 = 0, hot0 = 0;
  std::size_t span = 0;
  if (spans != nullptr) {
    allocs0 = util::allocation_count();
    hot0 = exp.system().hot_path_allocations();
    span = spans->begin(r.name, parent);
  }
  const std::size_t first = clock.stamps.size();
  const std::int64_t start = now_ns();
  const core::PhaseReport report =
      phase == core::RunPhase::kTraining   ? exp.run_training(ticks)
      : phase == core::RunPhase::kBaseline ? exp.run_baseline(ticks)
                                           : exp.run_tuned(ticks);
  const std::int64_t end = now_ns();
  r.events = exp.simulator().executed_events() - events0;
  if (spans != nullptr) {
    spans->end(span);
    r.allocs = util::allocation_count() - allocs0;
    r.hot_allocs = exp.system().hot_path_allocations() - hot0;
  }
  if (clock.stamps.size() - first != static_cast<std::size_t>(ticks)) {
    die("tick observer fired " + std::to_string(clock.stamps.size() - first) +
        " times for a " + std::to_string(ticks) + "-tick phase");
  }
  std::int64_t previous = start;
  for (std::size_t i = first; i < clock.stamps.size(); ++i) {
    r.tick_ns.push_back(clock.stamps[i] - previous);
    if (spans != nullptr) spans->add("tick", span, previous, clock.stamps[i]);
    previous = clock.stamps[i];
  }
  r.wall_s = static_cast<double>(end - start) / 1e9;
  r.mean_mbs = report.throughput.mean;
  r.mean_latency_ms = report.latency.mean;
  const std::string csv = core::run_result_csv(report.result);
  r.digest = util::crc32(csv.data(), csv.size());
  r.train_steps = report.result.train_steps;
  r.msgs_dropped = report.result.messages_dropped;
  r.msgs_late = report.result.messages_late;
  r.shard_events = report.result.shard_events;
  for (const std::uint64_t ns : report.result.shard_barrier_wait_ns) {
    r.barrier_wait_ns += ns;
  }
  return r;
}

std::string phase_json(const PhaseResult& r) {
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", r.digest);
  return Json()
      .str("name", r.name)
      .count("ticks", static_cast<std::uint64_t>(r.ticks))
      .num("wall_s", r.wall_s)
      .counts("tick_ns", r.tick_ns)
      .num("mean_mbs", r.mean_mbs)
      .num("mean_latency_ms", r.mean_latency_ms)
      .str("digest", digest)
      .count("train_steps", r.train_steps)
      .count("msgs_dropped", r.msgs_dropped)
      .count("msgs_late", r.msgs_late)
      .count("events", r.events)
      .count("allocs", r.allocs)
      .count("hot_allocs", r.hot_allocs)
      .counts("shard_events", r.shard_events)
      .count("barrier_wait_ns", r.barrier_wait_ns)
      .text();
}

/// Times `n` calls of fn(i), each under its own child span of a `name`
/// span; returns the per-call microseconds.
template <typename F>
std::vector<double> timed(SpanLog& spans, std::size_t parent,
                          const std::string& name, int n, F&& fn) {
  const std::size_t group = spans.begin(name, parent);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t id = spans.begin(name, group);
    fn(i);
    us.push_back(spans.end(id));
  }
  spans.end(group);
  return us;
}

/// Echo round trips of a `frame_bytes` frame over a fresh loopback
/// Endpoint pair, in microseconds per call.
std::vector<double> probe_rtt(SpanLog& spans, std::size_t parent,
                              std::size_t frame_bytes) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  if (listen_fd < 0) die("tcp_listen: " + error);
  const int client_fd =
      net::tcp_connect("127.0.0.1", net::local_port(listen_fd), 2000, &error);
  if (client_fd < 0) die("tcp_connect: " + error);
  const int server_fd = net::accept_connection(listen_fd, 2000, &error);
  net::close_socket(listen_fd);
  if (server_fd < 0) die("accept: " + error);
  net::Endpoint a(client_fd, net::EndpointOptions{});
  net::Endpoint b(server_fd, net::EndpointOptions{});
  const std::vector<std::uint8_t> payload(frame_bytes, 0x5a);
  constexpr std::uint8_t kType = 1;
  const auto receive = [](net::Endpoint& ep) {
    for (;;) {
      net::InSlot* slot = ep.recv();
      if (slot == nullptr) die("loopback echo peer closed");
      const bool ours = slot->frame.type == kType;
      ep.recycle(slot);
      if (ours) return;
    }
  };
  return timed(spans, parent, "net.rtt", 400, [&](int i) {
    if (!a.send(kType, i, 0, 0, payload.data(), payload.size())) die("echo send");
    receive(b);
    if (!b.send(kType, i, 0, 0, payload.data(), payload.size())) die("echo reply");
    receive(a);
  });
}

/// Timed calls into each layer's public entry points on the warm
/// post-run state. Mutates that state (advances the simulator, trains),
/// so run-level results must be read before this.
std::string probe_layers(core::Experiment& exp, std::uint64_t seed,
                         SpanLog& spans, std::size_t root) {
  core::CapesSystem& sys = exp.system();
  sim::Simulator& sim = exp.simulator();
  util::ThreadPool* pool = sys.worker_pool();
  const sim::TimeUs tick_us = sim::seconds(exp.preset().capes.sampling_tick_s);
  Json j;

  // sim + agents + daemon drain, one simulated tick per iteration in the
  // order the control loop runs them, at fresh ticks past the run.
  constexpr int kLayerIters = 60;
  std::vector<double> advance_us, sample_us, drain_us;
  std::uint64_t probe_events = 0, probe_allocs = 0;
  const std::int64_t base_tick = sys.current_tick();
  const std::size_t group = spans.begin("layers", root);
  for (int i = 0; i < kLayerIters; ++i) {
    const std::int64_t t = base_tick + i;
    const std::uint64_t events0 = sim.executed_events();
    const std::uint64_t allocs0 = util::allocation_count();
    std::size_t id = spans.begin("sim.advance", group);
    sim.run_for(tick_us, pool);
    advance_us.push_back(spans.end(id));
    probe_allocs += util::allocation_count() - allocs0;
    probe_events += sim.executed_events() - events0;

    id = spans.begin("core.agents.sample", group);
    for (std::size_t d = 0; d < sys.num_domains(); ++d) {
      for (const auto& agent : sys.domain(d).monitoring_agents()) agent->sample(t);
    }
    sample_us.push_back(spans.end(id));

    // Under tcp the daemon is remote; the agent-side half of the drain
    // (shipping the PI frames) is what runs at this point of the tick.
    id = spans.begin("core.daemon.drain", group);
    if (sys.remote_brain()) {
      sys.brain_client()->flush_status(t);
    } else {
      sys.interface_daemon().drain_status(t, pool);
      sys.interface_daemon().drain_actions(t);
    }
    drain_us.push_back(spans.end(id));
  }
  spans.end(group);
  j.num("sim.advance_ms", median(advance_us) / 1e3)
      .count("sim.probe_events", probe_events)
      .count("sim.probe_allocs", probe_allocs)
      .num("sim.probe_ms", [&] {
        double s = 0.0;
        for (const double v : advance_us) s += v;
        return s / 1e3;
      }())
      .num("core.agents.sample_us", median(sample_us))
      .num("core.daemon.drain_us", median(drain_us));

  if (pool != nullptr) {
    const std::uint64_t allocs0 = util::allocation_count();
    constexpr int kDispatches = 400;
    const auto us = timed(spans, root, "util.pool.dispatch", kDispatches, [&](int) {
      pool->parallel_for(sys.num_domains(), [](std::size_t) {});
    });
    j.num("util.pool.dispatch_us", median(us))
        .num("util.pool.allocs_per_dispatch",
             static_cast<double>(util::allocation_count() - allocs0) / kDispatches);
  }

  if (sys.remote_brain()) {
    // A status-sized frame: the agents' mean encoded message.
    std::uint64_t bytes = 0, messages = 0;
    for (std::size_t d = 0; d < sys.num_domains(); ++d) {
      for (const auto& agent : sys.domain(d).monitoring_agents()) {
        bytes += agent->bytes_sent();
        messages += agent->messages_sent();
      }
    }
    const std::size_t frame_bytes =
        messages == 0 ? 64 : static_cast<std::size_t>(bytes / messages);
    j.num("net.rtt_us", median(probe_rtt(spans, root, frame_bytes)))
        .count("net.rtt_frame_bytes", frame_bytes);
    return j.text();
  }

  core::DrlEngine& engine = sys.engine();
  rl::ReplayDb& replay = sys.replay();
  rl::Dqn& dqn = engine.dqn();

  // Distinct ticks with complete observations, newest first: acting on a
  // fresh tick each call measures the forward pass, not a repeat.
  constexpr int kActIters = 100;
  std::vector<std::int64_t> obs_ticks;
  for (std::int64_t t = replay.max_tick();
       t >= replay.min_tick() && obs_ticks.size() < kActIters; --t) {
    if (replay.has_observation(t)) obs_ticks.push_back(t);
  }
  if (obs_ticks.size() < kActIters) die("too few observations to probe acting");
  const auto act_us = timed(spans, root, "core.engine.act", kActIters, [&](int i) {
    engine.compute_action(obs_ticks[static_cast<std::size_t>(i)], false, pool);
  });
  std::vector<float> obs(replay.observation_size());
  std::vector<double> q_us;
  const std::size_t q_group = spans.begin("nn.act", root);
  for (int i = 0; i < kActIters; ++i) {
    replay.build_observation(obs_ticks[static_cast<std::size_t>(i)], obs.data());
    const std::size_t id = spans.begin("nn.act", q_group);
    const std::vector<float> q = dqn.q_values(obs, pool);
    q_us.push_back(spans.end(id));
    if (q.size() != dqn.options().num_actions) die("q_values: wrong width");
  }
  spans.end(q_group);

  util::Rng rng(seed);
  rl::Minibatch batch;
  const std::size_t batch_size = engine.options().minibatch_size;
  const auto minibatch_us = timed(spans, root, "rl.minibatch", 60, [&](int) {
    if (!replay.construct_minibatch_into(batch, batch_size, rng, 64, pool)) {
      die("replay DB cannot fill a minibatch");
    }
  });
  const auto train_step_us = timed(spans, root, "nn.train_step", 30, [&](int) {
    dqn.train_step(batch, pool);
  });
  const auto train_tick_us = timed(spans, root, "core.engine.train_tick", 30, [&](int) {
    if (engine.train_tick(pool) == 0) die("train_tick ran no step");
  });

  // GEMM FLOPs of one train step: forward passes (online on s, bootstrap
  // on s', plus the online pass on s' under Double DQN) and the backward
  // pass's dW and dX products, 2 FLOPs per multiply-add.
  const auto& sizes = dqn.online_network().layer_sizes();
  double weights = 0.0;
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    weights += static_cast<double>(sizes[l] * sizes[l + 1]);
  }
  const auto& dqn_opts = dqn.options();
  const double forwards =
      2.0 + (dqn_opts.use_double_dqn && dqn_opts.use_target_network ? 1.0 : 0.0);
  const double flops =
      2.0 * static_cast<double>(batch_size) * weights * (forwards + 2.0);
  const double step_ms = median(train_step_us) / 1e3;

  j.num("core.engine.act_us", median(act_us))
      .num("nn.act_us", median(q_us))
      .num("rl.minibatch_us", median(minibatch_us))
      .num("nn.train_step_ms", step_ms)
      .num("nn.train_step_flops", flops)
      .num("nn.train_gflops", flops / (step_ms * 1e6))
      .num("core.engine.train_tick_ms", median(train_tick_us) / 1e3)
      .count("nn.model_bytes", dqn.memory_bytes())
      .count("rl.replay_bytes", replay.memory_bytes());
  return j.text();
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: capes_perfbench --workload=NAME --seed=N "
               "[--setups=N] [--traced] [--quick] [--trace-out=FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_out;
  std::uint64_t seed = 0, setups = 15;
  bool have_seed = false, traced = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (util::parse_flag(argv[i], "--workload", &value)) {
      name = value;
    } else if (util::parse_flag(argv[i], "--seed", &value)) {
      if (!util::parse_u64(value, &seed)) return usage("--seed must be an integer");
      have_seed = true;
    } else if (util::parse_flag(argv[i], "--setups", &value)) {
      if (!util::parse_u64(value, &setups) || setups == 0 || setups > 100) {
        return usage("--setups must be 1..100");
      }
    } else if (util::parse_flag(argv[i], "--trace-out", &value)) {
      trace_out = value;
    } else if (std::string(argv[i]) == "--traced") {
      traced = true;
    } else if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      return usage((std::string("unknown argument: ") + argv[i]).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  Workload w;
  for (const Workload& candidate : workloads()) {
    if (candidate.name == name) w = candidate;
  }
  if (w.name.empty()) return usage(("unknown workload: " + name).c_str());
  if (quick) {  // smoke-test lengths: enough ticks to fill a minibatch
    w.train_ticks = std::max<std::int64_t>(w.train_ticks / 20, 120);
    w.eval_ticks = std::max<std::int64_t>(w.eval_ticks / 10, 20);
  }

  TickClock clock;
  clock.stamps.reserve(static_cast<std::size_t>(w.train_ticks + 2 * w.eval_ticks));
  std::vector<double> setup_s;
  // Half the set-ups run before the workflow (the last one is kept for
  // it) and half after, so their median spans the host's state over the
  // whole run rather than one moment of it.
  const std::uint64_t setups_before = (setups + 1) / 2;
  Session s;
  for (std::uint64_t i = 0; i < setups_before; ++i) {
    if (s.exp) {  // only the last set-up is kept for the run
      s.exp.reset();
      if (s.brain) s.brain->join();
    }
    double seconds = 0.0;
    s = set_up(w, seed, &clock, &seconds);
    setup_s.push_back(seconds);
  }
  if (!clock.stamps.empty()) die("ticks observed during set-up");

  SpanLog spans;
  SpanLog* span_log = traced ? &spans : nullptr;
  const std::size_t root = spans.begin("workflow");
  std::vector<PhaseResult> phases;
  phases.push_back(run_phase(*s.exp, core::RunPhase::kTraining, w.train_ticks,
                             clock, span_log, root));
  phases.push_back(run_phase(*s.exp, core::RunPhase::kBaseline, w.eval_ticks,
                             clock, span_log, root));
  phases.push_back(run_phase(*s.exp, core::RunPhase::kTuned, w.eval_ticks,
                             clock, span_log, root));
  spans.end(root);

  // Run-level results, read before the probes touch the state.
  core::CapesSystem& sys = s.exp->system();
  char fingerprint[16];
  std::snprintf(fingerprint, sizeof(fingerprint), "%08x", sys.training_fingerprint());
  Json out;
  out.str("workload", w.name)
      .raw("params", Json()
                         .str("specs", [&] {
                           std::string joined;
                           for (const auto& spec : w.specs) {
                             joined += (joined.empty() ? "" : " ") + spec;
                           }
                           return joined;
                         }())
                         .count("worker_threads", w.worker_threads)
                         .str("sim_shards", w.sim_shards == 0 ? "auto"
                                                              : std::to_string(w.sim_shards))
                         .str("shard_plan", w.shard_plan)
                         .str("transport", w.tcp ? "tcp-loopback" : "sync")
                         .str("learner", "sync")
                         .count("train_ticks", static_cast<std::uint64_t>(w.train_ticks))
                         .count("eval_ticks", static_cast<std::uint64_t>(w.eval_ticks))
                         .text())
      .count("seed", seed)
      .flag("traced", traced)
      .str("compiler", compiler())
      .str("build_type", CAPES_PERFBENCH_BUILD_TYPE)
      .str("fingerprint", fingerprint)
      .count("train_steps", sys.total_train_steps())
      .count("status_bytes", sys.monitoring_bytes_sent());
  std::string phase_list = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phase_list += (i ? "," : "") + phase_json(phases[i]);
  }
  out.raw("phases", phase_list + "]");

  std::uint64_t vetoed = 0, decode_errors = 0, published = 0;
  if (sys.remote_brain()) {
    const core::BrainClient& client = *sys.brain_client();
    published = client.stats().published;
    out.count("net.bytes", client.endpoint()->bytes_sent() +
                               client.endpoint()->bytes_received())
        .count("net.frames", client.endpoint()->frames_sent() +
                                 client.endpoint()->frames_received())
        .count("net.send_dropped", client.endpoint()->send_dropped());
  } else {
    core::InterfaceDaemon& daemon = sys.interface_daemon();
    published = daemon.bus_stats().published;
    decode_errors = daemon.decode_errors();
    for (std::size_t shard = 0; shard < daemon.num_shards(); ++shard) {
      vetoed += daemon.action_checker(shard).vetoed_actions();
    }
    std::uint64_t nonfinite = 0;
    for (const auto& entry : sys.engine().loss_log()) {
      if (!std::isfinite(entry.second)) ++nonfinite;
    }
    out.count("nonfinite_losses", nonfinite);
  }
  out.count("published", published);

  if (traced) {
    const std::size_t probes = spans.begin("probes");
    out.raw("probes", probe_layers(*s.exp, seed, spans, probes));
    spans.end(probes);
  }

  s.exp.reset();  // under tcp: Bye, and the service session ends
  if (s.brain) {
    const core::BrainServiceReport& report = s.brain->join();
    char service_fp[16];
    std::snprintf(service_fp, sizeof(service_fp), "%08x", report.fingerprint);
    decode_errors = report.decode_errors;
    vetoed = report.actions_vetoed;
    out.raw("service", Json()
                           .flag("hello_ok", report.hello_ok)
                           .flag("clean_shutdown", report.clean_shutdown)
                           .str("error", report.error)
                           .str("fingerprint", service_fp)
                           .text());
  }
  for (std::uint64_t i = setups_before; i < setups; ++i) {
    double seconds = 0.0;
    Session extra = set_up(w, seed, &clock, &seconds);
    extra.exp.reset();
    if (extra.brain) extra.brain->join();
    setup_s.push_back(seconds);
  }
  out.nums("setup_s", setup_s)
      .count("decode_errors", decode_errors)
      .count("vetoed", vetoed)
      .num("peak_rss_mb", peak_rss_mb());

  if (!trace_out.empty() && traced && !spans.write(trace_out)) {
    die("cannot write " + trace_out);
  }
  std::printf("%s\n", out.text().c_str());
  return 0;
}
