// capes_run — command-line driver for the simulated evaluation workflow.
//
// The C++ analogue of the prototype's service scripts (§A.3): pick a
// workload from the registry, optionally load a conf file, run the §A.4
// evaluation workflow (train -> baseline -> tuned) through the
// core::Experiment facade, and optionally dump per-tick CSVs and a model
// checkpoint. `--list-workloads` prints every registered workload with
// its spec syntax. With `--transport=tcp:host=H,port=N` this process is
// the agent side of a distributed deployment (§3.3): the simulated
// clusters and their agents run here, the Interface Daemon + DRL Engine
// in a separate capes_daemond.

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bus/transport.hpp"
#include "core/experiment.hpp"
#include "core/remote_brain.hpp"
#include "sim/fault.hpp"
#include "sim/shard_planner.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"
#include "workload/registry.hpp"

using namespace capes;

namespace {

constexpr auto kNoMax = std::numeric_limits<std::int64_t>::max();

constexpr const char* kEpilogue =
    "Repeat --workload to tune several clusters (one control domain each)\n"
    "with one shared DRL brain, or use --clusters=N to replicate a single\n"
    "spec across N identically configured clusters. --threads=N fans the\n"
    "per-tick sampling/training hot path out over N worker threads.\n"
    "--sim-shards shards the simulator event loop itself: auto gives\n"
    "every control domain its own event queue, N caps the queue count\n"
    "(1 = the serial loop), and the queues advance concurrently on the\n"
    "--threads pool between sampling ticks — same results, faster on\n"
    "multi-core hosts. --shard-plan picks the domain placement:\n"
    "static round-robins domains over the queues (the default); rate\n"
    "re-packs them at every phase boundary by last-phase observed event\n"
    "rate (greedy LPT), which evens out skewed workloads. Placement\n"
    "derives only from deterministic event counts, so results stay\n"
    "bit-identical across plans, shard counts and thread counts\n"
    "(conf: capes.sim.shard_plan).\n"
    "--transport=sync delivers every agent<->daemon message within its\n"
    "tick (the default). --transport=sim puts the hops on a simulated\n"
    "control network with seeded latency/jitter/drop, e.g.\n"
    "  --transport=sim:latency_ticks=2,jitter=2,drop=0.05,seed=7\n"
    "(drop in [0,1); latency_ticks/jitter >= 0; seed pins the network\n"
    "realization independently of --seed). --transport=tcp makes this\n"
    "process the agent side of a distributed run: the clusters and their\n"
    "agents stay here and connect to a separate capes_daemond hosting the\n"
    "DRL brain, e.g.\n"
    "  --transport=tcp:host=127.0.0.1,port=4890\n"
    "(the connection retries for connect_timeout_ms, default 5000, so\n"
    "either process may start first; the closing 'control network (tcp)'\n"
    "line reports lost messages and whether the link is still alive).\n"
    "--faults injects deterministic failures into the simulated target\n"
    "systems: ost_crash crashes an OST per tick with probability P (it\n"
    "restarts after restart_ticks; queued and in-flight I/O is rejected\n"
    "while down), straggler slows a disk by slow_factor for\n"
    "straggler_ticks, and partition silently drops a control domain's\n"
    "agent traffic for partition_ticks (surfacing as dropped messages),\n"
    "e.g.\n"
    "  --faults=faults:ost_crash=0.001,straggler=0.01,slow_factor=8\n"
    "(rates in [0,1); windows >= 1; seed pins the fault realization\n"
    "independently of --seed). Every fate is a pure hash of (seed, kind,\n"
    "node, tick), so a seeded faulted run is bit-identical at any\n"
    "--sim-shards/--threads count and under --shard-plan=rate; faults\n"
    "compose with --transport=sim drops. Rejected with --transport=tcp\n"
    "(conf: capes.sim.faults.*).\n"
    "--learner=async moves DRL training to a dedicated learner thread\n"
    "that overlaps the next tick's simulation; actions and weights stay\n"
    "bit-identical to --learner=sync (the default) at the same seed.\n"
    "--capture=FILE flight-records every daemon-boundary message (PI\n"
    "status, actions, broadcasts) plus rewards and phase markers; replay\n"
    "the capture offline with capes_replay (conf: capes.capture.path).\n"
    "See docs/CONFIG.md for the full flag and conf-key reference.\n";

std::string registered_names_joined() {
  std::string joined;
  for (const auto& name : workload::Registry::instance().names()) {
    if (!joined.empty()) joined += '|';
    joined += name;
  }
  return joined;
}

void print_workloads() {
  const auto& registry = workload::Registry::instance();
  std::printf("registered workloads:\n");
  for (const auto& name : registry.names()) {
    std::printf("  %-12s %s\n", name.c_str(),
                registry.spec_help(name).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto builder = core::Experiment::builder();
  // Flag handlers feed the builder directly; only values that need work
  // after parsing land in locals.
  std::vector<std::string> workloads;  ///< one control domain per spec
  std::int64_t clusters = 1;
  std::string csv_prefix;
  std::string model_out;
  std::string model_in;
  bool list_workloads = false;

  // Tick counts are strict and non-negative (-1 stays the builder's
  // internal "use the preset default" sentinel, never a user input).
  auto ticks_flag = [](const char* name, const char* help, auto set) {
    return util::Flag{name, "N", help,
                      [set](const std::string& v, std::string* why) {
                        std::int64_t ticks = 0;
                        if (!util::parse_int_flag(v, 0, kNoMax, &ticks, why))
                          return false;
                        set(ticks);
                        return true;
                      }};
  };
  const std::vector<util::Flag> flags = {
      {"--workload", "SPEC",
       registered_names_joined() +
           " with optional :spec args; repeat for one control domain per "
           "spec (default random:0.1)",
       [&](const std::string& v, std::string*) {
         workloads.push_back(v);
         return true;
       }},
      {"--clusters", "N", "replicate a single --workload spec across N clusters",
       util::store_int(&clusters, 1)},
      {"--threads", "N", "worker threads for the per-tick hot path (0 = off)",
       [&](const std::string& v, std::string* why) {
         std::int64_t threads = 0;
         if (!util::parse_int_flag(v, 0, kNoMax, &threads, why)) return false;
         builder.worker_threads(static_cast<std::size_t>(threads));
         return true;
       }},
      {"--sim-shards", "auto|N",
       "simulator event queues: auto = one per control domain, N caps them",
       [&](const std::string& v, std::string* why) {
         std::uint64_t shards = 0;  // 0 = auto: one shard per domain
         if (v != "auto" && (!util::parse_u64(v, &shards) || shards < 1)) {
           *why = "expected 'auto' or an integer >= 1";
           return false;
         }
         builder.sim_shards(static_cast<std::size_t>(shards));
         return true;
       }},
      {"--shard-plan", "static|rate", "placement of domains on the shards",
       [&](const std::string& v, std::string* why) {
         sim::ShardPlanKind kind = sim::ShardPlanKind::kStatic;
         if (!sim::parse_shard_plan_spec(v, &kind, why)) return false;
         builder.shard_plan(v);
         return true;
       }},
      // The spec flags validate eagerly, so a typo is a usage error
      // (exit 2) before any experiment work starts, not a build() error.
      {"--faults", "SPEC",
       "fault injection: off (the default) or faults[:KEY=VALUE,...] with "
       "keys ost_crash=P restart_ticks=N straggler=P slow_factor=X "
       "straggler_ticks=N partition=P partition_ticks=N seed=N",
       [&](const std::string& v, std::string* why) {
         sim::FaultPlan plan;
         if (!sim::parse_fault_spec(v, &plan, why)) return false;
         builder.faults(v);
         return true;
       }},
      {"--transport", "SPEC",
       "agent <-> daemon network: sync (the default), "
       "sim[:latency_ticks=N,jitter=X,drop=P,seed=N], or "
       "tcp:host=H,port=N[,connect_timeout_ms=N,io_threads=N] to run as the "
       "agent side of a capes_daemond",
       [&](const std::string& v, std::string* why) {
         bus::TransportOptions options;
         if (!bus::parse_transport_spec(v, &options, why)) return false;
         builder.transport(v);
         return true;
       }},
      {"--learner", "sync|async", "where DRL training steps run",
       [&](const std::string& v, std::string* why) {
         core::LearnerMode mode = core::LearnerMode::kSync;
         if (!core::parse_learner_mode(v, &mode, why)) return false;
         builder.learner(v);
         return true;
       }},
      {"--conf", "FILE", "conf-file overlay (docs/CONFIG.md keys)",
       [&](const std::string& v, std::string*) {
         builder.config_file(v);
         return true;
       }},
      ticks_flag("--train-ticks", "training-phase sampling ticks",
                 [&](std::int64_t t) { builder.train_ticks(t); }),
      ticks_flag("--eval-ticks", "baseline and tuned measurement ticks",
                 [&](std::int64_t t) { builder.eval_ticks(t); }),
      {"--csv", "PREFIX", "write PREFIX_<phase>.csv per phase",
       util::store_to(&csv_prefix)},
      {"--model", "FILE", "save the trained model after the run",
       util::store_to(&model_out)},
      {"--load-model", "FILE", "load a model before the run",
       util::store_to(&model_in)},
      {"--capture", "FILE",
       "flight-record every daemon-boundary message for capes_replay",
       [&](const std::string& v, std::string* why) {
         if (v.empty()) {
           *why = "needs a file path";
           return false;
         }
         builder.capture(v);
         return true;
       }},
      {"--seed", "N", "experiment seed (wins over conf-file seed keys)",
       [&](const std::string& v, std::string* why) {
         std::uint64_t seed = 0;
         if (!util::parse_u64(v, &seed)) {
           *why = "expected an unsigned integer";
           return false;
         }
         builder.seed(seed);
         return true;
       }},
      {"--monitor-servers", "", "§6 extension: monitor OSTs as well as clients",
       [&](const std::string&, std::string*) {
         builder.monitor_servers(true);
         return true;
       }},
      {"--tune-write-cache", "",
       "§6 extension: also tune the per-client write-cache size",
       [&](const std::string&, std::string*) {
         builder.tune_write_cache(true);
         return true;
       }},
      {"--list-workloads", "", "print the workload registry and exit",
       [&](const std::string&, std::string*) {
         list_workloads = true;
         return true;
       }},
  };
  if (auto rc = util::parse_command_line(argc, argv, "capes_run", flags,
                                         kEpilogue)) {
    return *rc;
  }
  if (list_workloads) {
    print_workloads();
    return 0;
  }

  if (clusters > 1 && workloads.size() > 1) {
    std::fprintf(stderr,
                 "--clusters replicates a single --workload spec; pass either "
                 "--clusters=N or repeated --workload flags, not both\n");
    return 2;
  }
  std::vector<std::string> specs =
      workloads.empty() ? std::vector<std::string>{"random:0.1"} : workloads;
  if (clusters > 1) {
    // Copy before assign: passing specs[0] itself would hand assign() a
    // reference into the container it is rewriting.
    const std::string replicated = specs[0];
    specs.assign(static_cast<std::size_t>(clusters), replicated);
  }
  builder.workload(specs[0]);
  for (std::size_t i = 1; i < specs.size(); ++i) builder.add_cluster(specs[i]);
  if (!csv_prefix.empty()) {
    // Like core::csv_phase_sink, but confirming each file on stdout — and
    // only when it was actually written.
    builder.on_phase_end([&csv_prefix](const core::PhaseReport& report) {
      const std::string path = csv_prefix + "_" + report.label + ".csv";
      std::ofstream out(path);
      out << core::run_result_csv(report.result);
      if (out) {
        std::printf("  wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s\n", path.c_str());
      }
    });
  }

  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  if (!model_in.empty()) {
    if (!experiment->load_model(model_in)) {
      std::fprintf(stderr, "cannot load model %s\n", model_in.c_str());
      return 1;
    }
    std::printf("loaded model from %s\n", model_in.c_str());
  }

  const std::int64_t train = experiment->default_train_ticks();
  std::printf("workload %s, %lld training ticks, %lld eval ticks, seed %llu\n",
              experiment->workload_name().c_str(),
              static_cast<long long>(train),
              static_cast<long long>(experiment->default_eval_ticks()),
              static_cast<unsigned long long>(
                  experiment->preset().capes.engine.dqn.seed));
  if (experiment->num_domains() > 1 && !experiment->system().remote_brain()) {
    std::printf("%zu control domains, observation size %zu, %zu actions\n",
                experiment->num_domains(),
                experiment->system().replay().observation_size(),
                experiment->system().action_space().num_actions());
  }
  if (experiment->simulator().num_shards() > 1) {
    std::printf("simulator event loop sharded into %zu queues across %zu "
                "domains\n",
                experiment->simulator().num_shards(),
                experiment->num_domains());
    const auto& plan = experiment->system().shard_plan();
    std::printf("shard plan: %s -- %zu domains -> %zu queues, "
                "max/mean load %.2f\n",
                sim::shard_plan_name(experiment->system().shard_plan_kind()),
                experiment->num_domains(),
                experiment->simulator().num_shards(), plan.max_over_mean());
  }

  if (train > 0) {
    std::printf("training...\n");
    const auto training = experiment->run_training();
    std::printf("  %zu train steps, session throughput %s MB/s\n",
                training.result.train_steps,
                training.throughput.to_string().c_str());
  }

  const auto baseline = experiment->run_baseline();
  std::printf("baseline: %s MB/s, latency %s ms\n",
              baseline.throughput.to_string().c_str(),
              baseline.latency.to_string().c_str());

  const auto tuned = experiment->run_tuned();
  const auto& report = experiment->report();
  std::printf("tuned:    %s MB/s, latency %s ms  (%+.1f%%)\n",
              tuned.throughput.to_string().c_str(),
              tuned.latency.to_string().c_str(),
              report.tuned_gain_percent());

  std::printf("final parameters:");
  for (std::size_t i = 0; i < report.parameter_names.size(); ++i) {
    std::printf(" %s=%.0f", report.parameter_names[i].c_str(),
                report.final_parameters[i]);
  }
  std::printf("\n");

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kSim) {
    std::uint64_t dropped = 0, late = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
      late += phase.result.messages_late;
    }
    std::printf("control network (sim): %llu messages dropped, %llu late\n",
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(late));
  }

  if (experiment->simulator().num_shards() > 1) {
    // Event-count based (deterministic), so CI can compare this line
    // across runs; the strip lists only drop it when comparing static
    // against rate placements.
    std::printf("shard imbalance (events, max/mean):");
    for (const auto& phase : report.phases) {
      std::printf(" %s %.2f", phase.label.c_str(),
                  phase.result.shard_imbalance());
    }
    std::printf(" -- %zu replans\n", experiment->system().shard_replans());
  }

  // Gated on the plan, not on whether anything fired: faults-off output
  // stays byte-identical to pre-fault builds, and a quiet faulted run
  // still reports its zeros.
  if (experiment->preset().capes.faults.enabled()) {
    std::uint64_t injected = 0, crashes = 0, stragglers = 0, partitions = 0,
                  degraded = 0;
    for (const auto& phase : report.phases) {
      injected += phase.result.faults_injected;
      crashes += phase.result.ost_crashes;
      stragglers += phase.result.stragglers;
      partitions += phase.result.partitions;
      degraded += phase.result.ticks_degraded;
    }
    std::printf("faults: %llu injected (%llu ost crashes, %llu stragglers, "
                "%llu partitions), %llu degraded domain-ticks\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(crashes),
                static_cast<unsigned long long>(stragglers),
                static_cast<unsigned long long>(partitions),
                static_cast<unsigned long long>(degraded));
    std::printf("regime shifts:");
    for (const auto& phase : report.phases) {
      std::printf(" %s %zu", phase.label.c_str(), phase.result.regime_shifts);
    }
    std::printf("\n");
  }

  if (experiment->preset().capes.transport.kind == bus::TransportKind::kTcp) {
    std::uint64_t dropped = 0;
    for (const auto& phase : report.phases) {
      dropped += phase.result.messages_dropped;
    }
    const auto* client = experiment->system().brain_client();
    std::printf("control network (tcp): %llu messages dropped, link %s\n",
                static_cast<unsigned long long>(dropped),
                client && client->alive() ? "alive" : "dead");
  }

  // Always printed: the determinism handle the capture/replay round trip
  // (and the CI cmp smokes) compare across runs. Remote-safe: under a
  // tcp: transport these come from the daemon's phase-end ack.
  std::printf("training fingerprint %08x (%zu train steps)\n",
              experiment->system().training_fingerprint(),
              experiment->system().total_train_steps());

  if (auto* writer = experiment->system().capture_writer()) {
    // Close first so the byte count reflects the fully drained sink (and
    // the header's drop count is patched before anyone reads the file).
    writer->close();
    std::printf("capture: %llu records (%llu dropped, %llu bytes) -> %s\n",
                static_cast<unsigned long long>(writer->records_logged()),
                static_cast<unsigned long long>(writer->records_dropped()),
                static_cast<unsigned long long>(writer->bytes_written()),
                experiment->preset().capes.capture_path.c_str());
  }

  if (!model_out.empty()) {
    if (!experiment->save_model(model_out)) {
      std::fprintf(stderr, "cannot save model %s\n", model_out.c_str());
      return 1;
    }
    std::printf("model saved to %s\n", model_out.c_str());
  }
  return 0;
}
