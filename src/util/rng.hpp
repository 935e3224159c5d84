#pragma once
// Deterministic pseudo-random number generation for simulation and training.
//
// Everything in CAPES that needs randomness (epsilon-greedy exploration,
// minibatch sampling, workload generators, disk/network noise) takes an
// explicit Rng so runs are reproducible from a single seed.

#include <cstdint>
#include <vector>

namespace capes::util {

/// The splitmix64 finalizer. Rng seeds itself with it, and the hash fates
/// (bus::SimTransport's per-message drop/jitter, sim/fault.hpp's fault
/// starts) chain keys through it: unlike a shared RNG stream it is
/// order-independent, so a fate never depends on which others were drawn
/// before it.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 53 bits of a 64-bit value as a uniform double in [0, 1).
constexpr double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// xoshiro256** PRNG (Blackman & Vigna), seeded via splitmix64.
/// Fast, high quality, and deterministic across platforms.
class Rng {
 public:
  /// Construct from a 64-bit seed; any value (including 0) is valid.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (one value cached).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Uniformly pick an index into a container of the given size (> 0).
  std::size_t pick_index(std::size_t size);

  /// Split off an independent child generator (for per-component streams).
  Rng split();

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<std::size_t>& v);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace capes::util
