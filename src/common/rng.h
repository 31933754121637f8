// Deterministic random number generation for the simulation. Every stochastic
// component takes an explicit Rng (or a seed) so that experiments are
// reproducible bit-for-bit across runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace exiot {

/// A small, fast, splittable PRNG (splitmix64-seeded xoshiro256**).
/// Not cryptographic; used exclusively for workload synthesis. The draws a
/// synthesized packet makes (6-10 per packet) are defined inline below so
/// the per-packet path pays no call per draw.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Derives an independent child generator; used to give each simulated
  /// host its own stream so host behaviour is order-independent.
  Rng split();

  std::uint64_t next_u64() {
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
  /// Uniform integer in [0, bound) (bound must be > 0). Lemire's
  /// nearly-divisionless bounded sampling; bias is negligible for
  /// simulation purposes (< 2^-64 * bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }
  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }
  bool bernoulli(double p) { return next_double() < p; }
  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) {
    double u;
    do {
      u = next_double();
    } while (u == 0.0);
    return -std::log(u) / rate;
  }
  /// Standard normal via Box-Muller (cached second value).
  double normal(double mean = 0.0, double stddev = 1.0);
  /// Pareto variate with scale xm and shape alpha (heavy-tailed rates).
  double pareto(double xm, double alpha);
  /// Samples an index from unnormalized non-negative weights.
  std::size_t weighted_index(const std::vector<double>& weights);
  /// Same draw with the weight total precomputed by the caller (hot paths
  /// sample from a fixed weight vector per packet).
  std::size_t weighted_index(const std::vector<double>& weights,
                             double total);
  /// Same draw again, from precomputed inclusive prefix sums
  /// (prefix[i] = w[0] + ... + w[i], accumulated in index order so the
  /// doubles match weighted_index's running sum bit for bit). Branch-free
  /// scan — the data-dependent early exit of weighted_index mispredicts
  /// ~50% on the per-packet port draw. `prefix` must be non-empty.
  std::size_t weighted_index_prefix(std::span<const double> prefix) {
    const double target = next_double() * prefix.back();
    // Count prefix entries <= target: equals the first index whose running
    // sum exceeds the target — the same index (and the same single draw)
    // weighted_index returns, including its last-bucket fallback.
    std::size_t idx = 0;
    const std::size_t last = prefix.size() - 1;
    for (std::size_t i = 0; i < last; ++i) {
      idx += static_cast<std::size_t>(target >= prefix[i]);
    }
    return idx;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[next_below(i)]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace exiot
