// Per-token token-bucket rate limiting for the authenticated API surface.
// Every registered bearer token gets its own bucket of `burst` request
// credits refilled at `rate_per_s`; a drained bucket answers 429 Too Many
// Requests with a Retry-After header telling the consumer when one credit
// will be back — so a single greedy feed consumer throttles itself, never
// the other tokens.
//
// Time is injectable (check_at) so tests advance the clock explicitly; the
// serving path uses the steady clock via check(). Metrics (instrument()):
//   exiot_api_ratelimit_throttled_total   requests answered 429
//   exiot_api_ratelimit_tokens            buckets currently tracked
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.h"

namespace exiot::api {

struct RateLimitConfig {
  /// Sustained requests per second per token; <= 0 disables the limiter.
  double rate_per_s = 0.0;
  /// Bucket depth: how many requests a token may burst above the
  /// sustained rate. Clamped to >= 1 when the limiter is enabled.
  double burst = 10.0;
};

class TokenBucketLimiter {
 public:
  explicit TokenBucketLimiter(RateLimitConfig config);

  TokenBucketLimiter(const TokenBucketLimiter&) = delete;
  TokenBucketLimiter& operator=(const TokenBucketLimiter&) = delete;

  /// Registers the limiter's counters/gauges. Call before concurrent use.
  void instrument(obs::MetricsRegistry& registry);

  struct Decision {
    bool allowed = true;
    /// Whole seconds until one credit refills (the Retry-After value);
    /// at least 1 when throttled.
    std::int64_t retry_after_s = 0;
  };

  /// Spends one credit from `token`'s bucket at the current steady clock.
  Decision check(const std::string& token);

  /// Same, at an explicit time in microseconds (monotonic; tests drive
  /// this directly instead of sleeping).
  Decision check_at(const std::string& token, std::uint64_t now_micros);

  bool enabled() const { return config_.rate_per_s > 0.0; }

 private:
  struct Bucket {
    double tokens = 0.0;
    std::uint64_t refilled_at = 0;  // Micros of the last refill.
  };

  RateLimitConfig config_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Bucket> buckets_;
  obs::Counter* throttled_c_ = nullptr;
  obs::Gauge* tokens_g_ = nullptr;
};

}  // namespace exiot::api
