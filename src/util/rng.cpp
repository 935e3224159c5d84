#include "util/rng.hpp"

#include <cmath>

namespace capes::util {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // The splitmix64 generator: mix64 of a counter stepping by its
  // increment.
  for (auto& s : s_) {
    s = mix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() { return to_unit(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  double u = 0.0;
  while (u == 0.0) u = uniform();
  return -std::log(u) / rate;
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::pick_index(std::size_t size) {
  return static_cast<std::size_t>(uniform_u64(size));
}

Rng Rng::split() { return Rng(next_u64()); }

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = pick_index(i);
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace capes::util
