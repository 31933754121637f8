#include "api/ratelimit.h"

#include <chrono>
#include <cmath>

namespace exiot::api {

TokenBucketLimiter::TokenBucketLimiter(RateLimitConfig config)
    : config_(config) {
  if (config_.burst < 1.0) config_.burst = 1.0;
  instrument(obs::scratch_registry());
}

void TokenBucketLimiter::instrument(obs::MetricsRegistry& registry) {
  throttled_c_ = &registry.counter(
      "exiot_api_ratelimit_throttled_total",
      "Requests answered 429 by the per-token rate limiter.");
  tokens_g_ = &registry.gauge("exiot_api_ratelimit_tokens",
                              "Distinct tokens with a tracked bucket.");
}

TokenBucketLimiter::Decision TokenBucketLimiter::check(
    const std::string& token) {
  return check_at(token,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count()));
}

TokenBucketLimiter::Decision TokenBucketLimiter::check_at(
    const std::string& token, std::uint64_t now_micros) {
  if (!enabled()) return Decision{};
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = buckets_.try_emplace(token);
  Bucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = config_.burst;
    bucket.refilled_at = now_micros;
    tokens_g_->set(static_cast<double>(buckets_.size()));
  } else if (now_micros > bucket.refilled_at) {
    const double elapsed_s =
        static_cast<double>(now_micros - bucket.refilled_at) / 1e6;
    bucket.tokens =
        std::min(config_.burst, bucket.tokens + elapsed_s * config_.rate_per_s);
    bucket.refilled_at = now_micros;
  }
  if (bucket.tokens >= 1.0) {
    bucket.tokens -= 1.0;
    return Decision{};
  }
  throttled_c_->inc();
  Decision decision;
  decision.allowed = false;
  const double deficit_s = (1.0 - bucket.tokens) / config_.rate_per_s;
  decision.retry_after_s =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(deficit_s)));
  return decision;
}

}  // namespace exiot::api
