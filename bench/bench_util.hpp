#pragma once
// Shared helpers for the reproduction benches: phase runners, formatted
// table output, and the Pilot-style measurement wrapper used to report
// every number with a 95% confidence interval.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "stats/measurement.hpp"
#include "util/cli.hpp"

namespace capes::benchutil {

/// Registry spec for the random R/W workload ("random:<frac>[,seed=N]").
inline std::string random_spec(double read_fraction) {
  std::ostringstream ss;
  ss << "random:" << read_fraction;
  return ss.str();
}

inline std::string random_spec(double read_fraction, std::uint64_t seed) {
  std::ostringstream ss;
  ss << random_spec(read_fraction) << ",seed=" << seed;
  return ss.str();
}

/// Benches treat a mis-built experiment as a fatal setup error.
inline std::unique_ptr<core::Experiment> build_or_die(
    core::ExperimentBuilder builder) {
  std::string error;
  auto experiment = builder.build(&error);
  if (!experiment) {
    std::fprintf(stderr, "experiment setup failed: %s\n", error.c_str());
    std::exit(1);
  }
  return experiment;
}

/// Run `workload` on `cluster` with the *current* parameter values for
/// `ticks` sampling ticks and return per-tick throughput samples.
inline stats::MeasurementSession measure_fixed(
    sim::Simulator& sim, lustre::Cluster& cluster, std::int64_t ticks,
    double tick_s = 1.0) {
  stats::MeasurementSession session;
  const auto tick_us = sim::seconds(tick_s);
  (void)cluster.sample_performance();  // reset the window
  for (std::int64_t i = 0; i < ticks; ++i) {
    sim.run_until(sim.now() + tick_us);
    session.add(cluster.sample_performance().throughput_mbs());
  }
  return session;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_row(const std::string& label, const stats::MeasurementResult& r,
                      const char* suffix = "MB/s") {
  std::printf("%-28s %8.2f ± %6.2f %s  (n=%zu, merge=%zu, iid=%s)\n",
              label.c_str(), r.mean, r.ci_half_width, suffix, r.used_samples,
              r.merge_factor, r.iid_validated ? "yes" : "no");
}

inline double percent_gain(double tuned, double baseline) {
  return baseline <= 0.0 ? 0.0 : (tuned / baseline - 1.0) * 100.0;
}

/// The flags every ext_* bench takes, for util::parse_command_line:
/// --ticks=N and --json=FILE, plus --threads=N (>= min_threads) when
/// `threads` is set.
inline std::vector<util::Flag> bench_flags(std::int64_t* ticks,
                                           std::string* json_path,
                                           std::size_t* threads = nullptr,
                                           std::int64_t min_threads = 1) {
  std::vector<util::Flag> flags = {
      {"--ticks", "N", "training ticks per measured point",
       util::store_int(ticks, 1)},
      {"--json", "FILE", "also write a machine-readable summary to FILE",
       util::store_to(json_path)},
  };
  if (threads != nullptr) {
    flags.push_back({"--threads", "N", "worker threads in the pool",
                     util::store_int(threads, min_threads)});
  }
  return flags;
}

}  // namespace capes::benchutil
