#include "common/rng.h"

#include <cmath>
#include <stdexcept>

namespace exiot {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t state = seed;
  for (auto& s : s_) s = splitmix64(state);
}

Rng Rng::split() { return Rng(next_u64() ^ 0xA5A5A5A5DEADBEEFull); }

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1;
  do {
    u1 = next_double();
  } while (u1 == 0.0);
  double u2 = next_double();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::pareto(double xm, double alpha) {
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  return weighted_index(weights, total);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights,
                                double total) {
  if (total <= 0.0) throw std::invalid_argument("weighted_index: zero total");
  double target = next_double() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace exiot
