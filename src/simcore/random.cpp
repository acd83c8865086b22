#include "simcore/random.hpp"

#include <cmath>
#include <numbers>

#include "simcore/check.hpp"

namespace rh::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
}

std::uint64_t Rng::next() {
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

double Rng::uniform01() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ensure(lo <= hi, "Rng::uniform_int: lo > hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit range
  // Debiased modulo (rejection sampling on the tail).
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span + 1) % span;
  std::uint64_t raw = next();
  while (raw > limit) raw = next();
  return lo + static_cast<std::int64_t>(raw % span);
}

double Rng::exponential(double mean) {
  ensure(mean > 0.0, "Rng::exponential: mean must be positive");
  double u = uniform01();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return mean + stddev * radius * std::cos(angle);
}

Duration Rng::exponential_duration(Duration mean) {
  if (mean <= 0) return 0;
  return static_cast<Duration>(exponential(static_cast<double>(mean)));
}

Duration Rng::normal_duration(Duration mean, Duration stddev, Duration min_value) {
  const auto v = static_cast<Duration>(
      normal(static_cast<double>(mean), static_cast<double>(stddev)));
  return v < min_value ? min_value : v;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::size_t Rng::index(std::size_t size) {
  ensure(size > 0, "Rng::index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

Rng Rng::split() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace rh::sim
