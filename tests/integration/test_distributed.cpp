// Distributed control-plane integration: a CapesSystem whose DRL brain
// lives behind a loopback `tcp:` link to an in-process BrainService (the
// capes_daemond session logic) must train bit-identically to the
// in-process `sync` path — same weights fingerprint, same per-tick CSVs
// — and captures from the distributed run must replay through the
// standard trace replayer. Also pinned: neither side hangs when the
// other vanishes mid-phase, and forged Hellos are rejected before the
// service builds anything.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../core/mock_adapter.hpp"
#include "core/brain_service.hpp"
#include "core/capes_system.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "core/remote_brain.hpp"
#include "core/trace_replay.hpp"
#include "lustre/cluster.hpp"
#include "net/endpoint.hpp"
#include "net/socket.hpp"
#include "util/frame.hpp"
#include "workload/random_rw.hpp"
#include "workload/seq_write.hpp"
#include "service_thread.hpp"

namespace capes {
namespace {

using testing::ServiceThread;

core::EvaluationPreset distributed_preset() {
  auto p = core::fast_preset(7);
  p.capes.engine.epsilon.anneal_ticks = 60;
  return p;
}

/// A MockAdapter whose one knob spans only four steps (40..60 by 5), so
/// a tuning run keeps pushing it into its bounds: the brain-side
/// parameter vector must clamp exactly as the agent side does.
class NarrowKnob : public core::testing::MockAdapter {
 public:
  NarrowKnob() : MockAdapter(2, lustre::Cluster::kPisPerNode) {}
  std::vector<rl::TunableParameter> tunable_parameters() const override {
    auto params = MockAdapter::tunable_parameters();
    params[0].min_value = 40.0;
    params[0].max_value = 60.0;
    return params;
  }
};

enum class Topology {
  kOneCluster,
  /// Two Lustre clusters (random + sequential writes) and a NarrowKnob:
  /// three daemon shards, so every action routes by slice.
  kThreeDomains,
};

struct RunOutcome {
  std::uint32_t fingerprint = 0;
  std::size_t train_steps = 0;
  std::string training_csv;
  std::string baseline_csv;
  std::string tuned_csv;
  std::uint64_t messages_dropped = 0;
  /// In-process brain only: its daemon's veto and broadcast counters.
  std::uint64_t actions_vetoed = 0;
  std::uint64_t actions_broadcast = 0;
};

/// The §A.4 workflow against either brain; tcp_port 0 = in-process sync.
RunOutcome run_workflow(std::uint16_t tcp_port,
                        const std::string& capture_path = "",
                        Topology topology = Topology::kOneCluster) {
  auto preset = distributed_preset();
  if (tcp_port != 0) {
    preset.capes.transport.kind = bus::TransportKind::kTcp;
    preset.capes.transport.tcp_host = "127.0.0.1";
    preset.capes.transport.tcp_port = tcp_port;
  }
  preset.capes.capture_path = capture_path;
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  std::vector<core::ControlDomainSpec> specs = {{&cluster, nullptr, ""}};
  std::unique_ptr<lustre::Cluster> writer_cluster;
  std::unique_ptr<workload::SeqWrite> writer;
  NarrowKnob narrow;
  if (topology == Topology::kThreeDomains) {
    writer_cluster = std::make_unique<lustre::Cluster>(sim, preset.cluster);
    writer = std::make_unique<workload::SeqWrite>(*writer_cluster,
                                                  workload::SeqWriteOptions{});
    writer->start();
    specs.push_back({writer_cluster.get(), nullptr, "writer"});
    specs.push_back({&narrow, nullptr, "narrow"});
  }
  core::CapesSystem capes(sim, specs, preset.capes);
  sim.run_until(sim::seconds(3));

  RunOutcome out;
  const auto training = capes.run_training(80);
  const auto baseline = capes.run_baseline(30);
  const auto tuned = capes.run_tuned(30);
  out.training_csv = core::run_result_csv(training);
  out.baseline_csv = core::run_result_csv(baseline);
  out.tuned_csv = core::run_result_csv(tuned);
  out.messages_dropped = training.messages_dropped +
                         baseline.messages_dropped + tuned.messages_dropped;
  out.fingerprint = capes.training_fingerprint();
  out.train_steps = capes.total_train_steps();
  if (!capes.remote_brain()) {
    core::InterfaceDaemon& daemon = capes.interface_daemon();
    for (std::size_t shard = 0; shard < daemon.num_shards(); ++shard) {
      out.actions_vetoed += daemon.action_checker(shard).vetoed_actions();
    }
    out.actions_broadcast = daemon.actions_broadcast();
  }
  if (auto* writer = capes.capture_writer()) {
    EXPECT_TRUE(writer->close());
    EXPECT_EQ(writer->records_dropped(), 0u);
  }
  return out;
}

void expect_loopback_tcp_matches_sync(Topology topology) {
  const RunOutcome local = run_workflow(0, "", topology);
  ASSERT_GT(local.train_steps, 0u);

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port(), "", topology);
  const auto report = service.join();

  ASSERT_TRUE(report.hello_ok) << report.error;
  EXPECT_TRUE(report.clean_shutdown);
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.decode_errors, 0u);
  EXPECT_EQ(report.num_domains, topology == Topology::kOneCluster ? 1u : 3u);

  // Zero loss on loopback...
  EXPECT_EQ(remote.messages_dropped, 0u);
  // ...means the remote brain is a transparent extension: identical
  // weights, identical step count, identical per-tick phase CSVs, and
  // the service's daemon checked and broadcast exactly what the
  // in-process one did.
  EXPECT_EQ(remote.fingerprint, local.fingerprint);
  EXPECT_EQ(remote.train_steps, local.train_steps);
  EXPECT_EQ(report.fingerprint, local.fingerprint);
  EXPECT_EQ(report.train_steps, local.train_steps);
  EXPECT_EQ(remote.training_csv, local.training_csv);
  EXPECT_EQ(remote.baseline_csv, local.baseline_csv);
  EXPECT_EQ(remote.tuned_csv, local.tuned_csv);
  EXPECT_EQ(report.actions_vetoed, local.actions_vetoed);
  EXPECT_EQ(report.actions_broadcast, local.actions_broadcast);
  EXPECT_GT(local.actions_broadcast, 0u);
}

TEST(Distributed, LoopbackTcpMatchesSyncBitExactly) {
  expect_loopback_tcp_matches_sync(Topology::kOneCluster);
}

TEST(Distributed, LoopbackTcpMatchesSyncBitExactlyAcrossThreeDomains) {
  expect_loopback_tcp_matches_sync(Topology::kThreeDomains);
}

TEST(Distributed, CaptureFromDistributedRunReplaysIdentically) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("capes_dist_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dist.cap").string();

  ServiceThread service;
  ASSERT_TRUE(service.start());
  const RunOutcome remote = run_workflow(service.port(), path);
  service.join();
  ASSERT_GT(remote.train_steps, 0u);

  // The capture was written agent-side, from wire traffic — and still
  // replays through the standard single-process replayer, reproducing
  // the daemon's weights exactly.
  core::TraceReplayer replayer;
  core::TraceReplayOptions opts;
  opts.speed = core::ReplaySpeed::kMax;
  std::string error;
  ASSERT_TRUE(replayer.open(path, opts, &error)) << error;
  const auto report = replayer.run();
  EXPECT_EQ(report.decode_errors, 0u);
  EXPECT_EQ(report.action_mismatches, 0u);
  EXPECT_EQ(report.total_train_steps, remote.train_steps);
  EXPECT_EQ(report.weights_fingerprint, remote.fingerprint);
  std::filesystem::remove_all(dir);
}

TEST(Distributed, DaemonDeathMidPhaseDoesNotHangTheAgent) {
  ServiceThread service;
  ASSERT_TRUE(service.start());

  auto preset = distributed_preset();
  preset.capes.transport.kind = bus::TransportKind::kTcp;
  preset.capes.transport.tcp_host = "127.0.0.1";
  preset.capes.transport.tcp_port = service.port();
  sim::Simulator sim;
  lustre::Cluster cluster(sim, preset.cluster);
  workload::RandomRwOptions wopts;
  wopts.read_fraction = 0.1;
  workload::RandomRw wl(cluster, wopts);
  wl.start();
  core::CapesSystem capes(sim, cluster, preset.capes);
  sim.run_until(sim::seconds(3));

  const auto before = capes.run_training(30);
  EXPECT_EQ(before.messages_dropped, 0u);
  ASSERT_NE(capes.brain_client(), nullptr);
  EXPECT_TRUE(capes.brain_client()->alive());

  // The daemon dies between ticks; the agent must finish the phase
  // offline — no actions, loss counted, no hang (enforced by the test
  // timeout) — rather than block in a dead recv().
  service.kill_link();
  const auto after = capes.run_training(30);
  EXPECT_GT(after.messages_dropped, 0u);
  EXPECT_FALSE(capes.brain_client()->alive());
  // No brain means no actions and no training happened after the death.
  EXPECT_EQ(after.train_steps, 0u);
  service.join();
}

TEST(Distributed, AgentVanishingEndsServeWithoutCleanShutdown) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  ASSERT_GE(listen_fd, 0) << error;
  const std::uint16_t port = net::local_port(listen_fd);
  const int client_fd = net::tcp_connect("127.0.0.1", port, 5000, &error);
  ASSERT_GE(client_fd, 0) << error;
  const int server_fd = net::accept_connection(listen_fd, 5000, &error);
  ASSERT_GE(server_fd, 0) << error;
  net::close_socket(listen_fd);

  net::Endpoint server(server_fd, net::EndpointOptions{});
  // The "agent" connects and dies without so much as a Hello. serve()
  // must return promptly (EOF), not wait for a Bye that never comes.
  std::thread killer([client_fd] {
    net::Endpoint client(client_fd, net::EndpointOptions{});
    client.close();
  });
  core::BrainService service;
  const auto report = service.serve(server);
  killer.join();
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.clean_shutdown);
  EXPECT_EQ(report.ticks, 0);
  server.close();
}

/// A well-formed two-domain Hello (one knob each: slices [1,3) and [3,5)).
core::HelloPayload valid_hello() {
  core::HelloPayload hello;
  hello.meta.num_domains = 2;
  hello.meta.num_nodes = 2;
  hello.meta.pis_per_node = 3;
  hello.meta.num_actions = 5;
  hello.meta.hidden_size = 8;
  const auto knob = core::testing::MockAdapter(1, 3).tunable_parameters();
  hello.domains = {core::ShardLayout{1, knob}, core::ShardLayout{3, knob}};
  return hello;
}

/// Serve one session whose client sends `hello` and then says Bye.
core::BrainServiceReport serve_hello(const std::vector<std::uint8_t>& hello) {
  std::string error;
  const int listen_fd = net::tcp_listen("127.0.0.1", 0, &error);
  EXPECT_GE(listen_fd, 0) << error;
  const std::uint16_t port = net::local_port(listen_fd);
  const int client_fd = net::tcp_connect("127.0.0.1", port, 5000, &error);
  EXPECT_GE(client_fd, 0) << error;
  const int server_fd = net::accept_connection(listen_fd, 5000, &error);
  EXPECT_GE(server_fd, 0) << error;
  net::close_socket(listen_fd);

  net::Endpoint server(server_fd, net::EndpointOptions{});
  std::thread agent([client_fd, &hello] {
    net::Endpoint client(client_fd, net::EndpointOptions{});
    client.send(core::kFrameHello, 0, 0, 0, hello.data(), hello.size());
    client.send(core::kFrameBye, 0, 0, 0, nullptr, 0);
    client.close();
  });
  const core::BrainServiceReport report = core::BrainService().serve(server);
  agent.join();
  server.close();
  return report;
}

TEST(Distributed, ForgedHelloIsRejectedBeforeAnyStateIsBuilt) {
  const std::vector<std::uint8_t> good = core::encode_hello(valid_hello());
  // Layout: u32 version, u32 meta length, meta, u32 domain count, then per
  // domain a u64 slice offset and a u32 parameter count.
  const std::size_t meta_len = util::get_le32(good.data() + 4);
  const std::size_t domains_at = 8 + meta_len;
  const std::size_t offset_at = domains_at + 4;
  const std::size_t params_at = offset_at + 8;

  const auto control = serve_hello(good);
  EXPECT_TRUE(control.hello_ok) << control.error;
  EXPECT_TRUE(control.clean_shutdown);
  EXPECT_EQ(control.num_domains, 2u);

  // Counts no payload could back must fail the decode, not size a vector.
  std::vector<std::uint8_t> forged = good;
  util::put_le32(forged.data() + domains_at, 0xFFFFFFFFu);
  auto report = serve_hello(forged);
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.error.empty());

  forged = good;
  util::put_le32(forged.data() + params_at, 0xFFFFFFFFu);
  report = serve_hello(forged);
  EXPECT_FALSE(report.hello_ok);
  EXPECT_FALSE(report.error.empty());

  // A slice offset that keeps the action count but breaks contiguity
  // would route suggestions outside every slice.
  forged = good;
  util::put_le64(forged.data() + offset_at, 999);
  report = serve_hello(forged);
  EXPECT_FALSE(report.hello_ok);
  EXPECT_NE(report.error.find("contiguous"), std::string::npos) << report.error;
  EXPECT_EQ(report.num_domains, 0u);
}

TEST(Distributed, OversizedHelloMetaIsRejectedBeforeAnyBrainIsBuilt) {
  // A well-formed Hello whose meta asks for a 2^32-wide network: the
  // TraceMeta check refuses it before the Brain would allocate.
  core::HelloPayload hello = valid_hello();
  hello.meta.hidden_size = 0xFFFFFFFFu;
  const auto report = serve_hello(core::encode_hello(hello));
  EXPECT_FALSE(report.hello_ok);
  EXPECT_NE(report.error.find("above the limit"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.num_domains, 0u);
  EXPECT_EQ(report.fingerprint, 0u);  // no Brain was ever built
}

}  // namespace
}  // namespace capes
