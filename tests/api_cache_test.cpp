// Tests for the sequence-keyed response cache, the per-token rate
// limiter, and their integration into the ApiServer request flow
// (auth -> rate limit -> cache / If-None-Match -> handler).
#include <gtest/gtest.h>

#include <string>

#include "api/cache.h"
#include "api/ratelimit.h"
#include "api/server.h"
#include "feed/manager.h"

namespace exiot::api {
namespace {

HttpResponse plain(int status, std::string body) {
  return HttpResponse::json(status, std::move(body));
}

/// A cache instrumented into its own registry, so a test reads exactly
/// its own counters and gauges.
struct InstrumentedCache {
  explicit InstrumentedCache(std::size_t capacity_bytes)
      : cache(capacity_bytes) {
    cache.instrument(registry);
  }
  std::uint64_t counter(const char* name) const {
    return registry.counter_value(name);
  }
  double gauge(const char* name) const { return registry.gauge_value(name); }

  obs::MetricsRegistry registry;
  ResponseCache cache;
};

// ---------------------------------------------------------------- cache ----

TEST(ResponseCacheTest, HitsOnlyAtMatchingVersion) {
  InstrumentedCache c(1 << 16);
  ResponseCache& cache = c.cache;
  EXPECT_FALSE(cache.lookup("/v1/snapshot", 1).has_value());
  cache.insert("/v1/snapshot", 1, plain(200, R"({"total":1})"));
  auto hit = cache.lookup("/v1/snapshot", 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->body, R"({"total":1})");
  EXPECT_EQ(c.counter("exiot_api_cache_hits_total"), 1u);
  EXPECT_EQ(c.counter("exiot_api_cache_misses_total"), 1u);
}

TEST(ResponseCacheTest, SequenceAdvanceInvalidatesExactly) {
  InstrumentedCache c(1 << 16);
  ResponseCache& cache = c.cache;
  cache.insert("/v1/snapshot", 3, plain(200, "old"));
  // A commit landed: the entry cached at sequence 3 must never serve at 4.
  EXPECT_FALSE(cache.lookup("/v1/snapshot", 4).has_value());
  // Stale entry dropped, not kept.
  EXPECT_EQ(c.gauge("exiot_api_cache_entries"), 0.0);
  cache.insert("/v1/snapshot", 4, plain(200, "new"));
  auto hit = cache.lookup("/v1/snapshot", 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->body, "new");
}

TEST(ResponseCacheTest, LruEvictionBoundsBytes) {
  // Each entry costs ~230 bytes (key + body + headers): two fit, not three.
  InstrumentedCache c(512);
  ResponseCache& cache = c.cache;
  const std::string body(200, 'x');
  cache.insert("/a", 1, plain(200, body));
  cache.insert("/b", 1, plain(200, body));
  (void)cache.lookup("/a", 1);            // /a is now hottest.
  cache.insert("/c", 1, plain(200, body));  // Evicts the coldest: /b.
  EXPECT_LE(c.gauge("exiot_api_cache_bytes"), 512.0);
  EXPECT_GE(c.counter("exiot_api_cache_evictions_total"), 1u);
  EXPECT_TRUE(cache.lookup("/a", 1).has_value());
  EXPECT_FALSE(cache.lookup("/b", 1).has_value());
}

TEST(ResponseCacheTest, ZeroCapacityDisables) {
  InstrumentedCache c(0);
  c.cache.insert("/a", 1, plain(200, "x"));
  EXPECT_FALSE(c.cache.lookup("/a", 1).has_value());
  EXPECT_EQ(c.gauge("exiot_api_cache_entries"), 0.0);
}

TEST(ResponseCacheTest, OversizeEntryAndStreamsNeverCached) {
  InstrumentedCache small(16);
  small.cache.insert("/big", 1, plain(200, std::string(64, 'x')));
  EXPECT_EQ(small.gauge("exiot_api_cache_entries"), 0.0);
  InstrumentedCache roomy(1 << 16);
  HttpResponse streaming;
  streaming.body_stream = std::make_shared<HttpResponse::BodyStream>(
      []() -> std::optional<std::string> { return std::nullopt; });
  roomy.cache.insert("/stream", 1, streaming);
  EXPECT_EQ(roomy.gauge("exiot_api_cache_entries"), 0.0);
  EXPECT_FALSE(roomy.cache.lookup("/stream", 1).has_value());
}

TEST(ResponseCacheTest, EtagIsStrongAndStable) {
  const std::string tag = response_etag(7, "/v1/snapshot");
  EXPECT_EQ(tag, response_etag(7, "/v1/snapshot"));  // Deterministic.
  EXPECT_NE(tag, response_etag(8, "/v1/snapshot"));  // Sequence-keyed.
  EXPECT_NE(tag, response_etag(7, "/v1/records"));   // Target-keyed.
  EXPECT_TRUE(tag.starts_with("\"v7-"));
  EXPECT_TRUE(tag.ends_with("\""));
}

// -------------------------------------------------------------- limiter ----

TEST(TokenBucketLimiterTest, BurstThenThrottleWithRetryAfter) {
  TokenBucketLimiter limiter({/*rate_per_s=*/1.0, /*burst=*/3.0});
  obs::MetricsRegistry registry;
  limiter.instrument(registry);
  const std::uint64_t t0 = 1'000'000;
  EXPECT_TRUE(limiter.check_at("a", t0).allowed);
  EXPECT_TRUE(limiter.check_at("a", t0).allowed);
  EXPECT_TRUE(limiter.check_at("a", t0).allowed);
  const auto denied = limiter.check_at("a", t0);
  EXPECT_FALSE(denied.allowed);
  EXPECT_GE(denied.retry_after_s, 1);
  EXPECT_EQ(registry.counter_value("exiot_api_ratelimit_throttled_total"),
            1u);
}

TEST(TokenBucketLimiterTest, RefillsAtConfiguredRate) {
  TokenBucketLimiter limiter({/*rate_per_s=*/2.0, /*burst=*/1.0});
  const std::uint64_t t0 = 0;
  EXPECT_TRUE(limiter.check_at("a", t0).allowed);
  EXPECT_FALSE(limiter.check_at("a", t0).allowed);
  // 500 ms at 2 req/s refills exactly one credit.
  EXPECT_TRUE(limiter.check_at("a", t0 + 500'000).allowed);
  EXPECT_FALSE(limiter.check_at("a", t0 + 500'000).allowed);
}

TEST(TokenBucketLimiterTest, TokensAreIsolated) {
  TokenBucketLimiter limiter({/*rate_per_s=*/1.0, /*burst=*/1.0});
  EXPECT_TRUE(limiter.check_at("greedy", 0).allowed);
  EXPECT_FALSE(limiter.check_at("greedy", 0).allowed);
  // The other consumer's bucket is untouched by the greedy one.
  EXPECT_TRUE(limiter.check_at("polite", 0).allowed);
}

TEST(TokenBucketLimiterTest, DisabledPassesEverything) {
  TokenBucketLimiter limiter({/*rate_per_s=*/0.0});
  obs::MetricsRegistry registry;
  limiter.instrument(registry);
  EXPECT_FALSE(limiter.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(limiter.check_at("a", 0).allowed);
  }
  EXPECT_EQ(registry.counter_value("exiot_api_ratelimit_throttled_total"),
            0u);
}

// ------------------------------------------------- server integration ----

class CachedApiTest : public ::testing::Test {
 protected:
  CachedApiTest() : server_(feed_), cache_(1 << 20) {
    cache_.instrument(metrics_);
    server_.add_token("secret");
    server_.attach_cache(&cache_, [this] { return sequence_; });
    publish(Ipv4(50, 1, 2, 3), "CN", hours(5));
    publish(Ipv4(60, 1, 2, 3), "US", hours(7));
  }

  void publish(Ipv4 src, const std::string& country_code, TimeMicros at) {
    feed::CtiRecord r;
    r.src = src;
    r.label = feed::kLabelIot;
    r.country_code = country_code;
    r.published_at = at;
    (void)feed_.publish(r, at);
    ++sequence_;  // The pipeline's commit advances it once per publish.
  }

  HttpResponse get(const std::string& target,
                   const std::string& if_none_match = "") {
    std::string raw = "GET " + target + " HTTP/1.1\r\n";
    raw += "Authorization: Bearer secret\r\n";
    if (!if_none_match.empty()) {
      raw += "If-None-Match: " + if_none_match + "\r\n";
    }
    raw += "\r\n";
    auto req = HttpRequest::parse(raw);
    EXPECT_TRUE(req.has_value());
    return server_.handle(*req);
  }

  std::uint64_t cache_hits() const {
    return metrics_.counter_value("exiot_api_cache_hits_total");
  }
  double cache_entries() const {
    return metrics_.gauge_value("exiot_api_cache_entries");
  }

  obs::MetricsRegistry metrics_;
  feed::FeedManager feed_;
  ApiServer server_;
  ResponseCache cache_;
  std::uint64_t sequence_ = 0;
};

TEST_F(CachedApiTest, SnapshotBytesIdenticalToUncachedHandler) {
  // The correctness bar: caching must never change the body bytes.
  ApiServer uncached(feed_);
  uncached.add_token("secret");
  auto req = HttpRequest::parse(
      "GET /v1/snapshot HTTP/1.1\r\nAuthorization: Bearer secret\r\n\r\n");
  const std::string reference = uncached.handle(*req).body;
  EXPECT_EQ(get("/v1/snapshot").body, reference);  // Miss -> handler.
  EXPECT_EQ(get("/v1/snapshot").body, reference);  // Hit -> cached bytes.
  EXPECT_EQ(cache_hits(), 1u);
}

TEST_F(CachedApiTest, CachedEndpointsCarryEtagOthersDoNot) {
  EXPECT_TRUE(get("/v1/snapshot").headers.contains("ETag"));
  EXPECT_TRUE(get("/v1/records?label=IoT").headers.contains("ETag"));
  EXPECT_FALSE(get("/v1/stats").headers.contains("ETag"));
}

TEST_F(CachedApiTest, IfNoneMatchAnswers304WithoutStores) {
  const auto first = get("/v1/snapshot");
  const std::string etag = first.headers.at("ETag");
  const auto conditional = get("/v1/snapshot", etag);
  EXPECT_EQ(conditional.status, 304);
  EXPECT_TRUE(conditional.body.empty());
  EXPECT_EQ(conditional.headers.at("ETag"), etag);
}

TEST_F(CachedApiTest, CommitFlips304To200AndChangesBody) {
  const auto before = get("/v1/snapshot");
  const std::string etag = before.headers.at("ETag");
  EXPECT_EQ(get("/v1/snapshot", etag).status, 304);

  publish(Ipv4(70, 1, 2, 3), "DE", hours(9));  // Sequence advances.

  // The stale tag no longer matches: full 200 with the new bytes.
  const auto after = get("/v1/snapshot", etag);
  EXPECT_EQ(after.status, 200);
  EXPECT_NE(after.body, before.body);
  EXPECT_NE(after.headers.at("ETag"), etag);
  // And the new tag validates again.
  EXPECT_EQ(get("/v1/snapshot", after.headers.at("ETag")).status, 304);
}

TEST_F(CachedApiTest, WindowedRecordsInvalidateOnCommit) {
  const std::string target = "/v1/records?since=" + std::to_string(hours(6));
  const auto before = get(target);
  EXPECT_EQ(get(target).body, before.body);
  EXPECT_EQ(cache_hits(), 1u);

  publish(Ipv4(80, 1, 2, 3), "FR", hours(8));  // Lands inside the window.

  const auto after = get(target);
  EXPECT_NE(after.body, before.body);  // Differs exactly when seq advances.
  EXPECT_EQ(cache_hits(), 1u);        // Stale entry missed, not served.
}

TEST_F(CachedApiTest, QueryParameterOrderSharesOneEntry) {
  const auto a = get("/v1/records?label=IoT&limit=5");
  const auto b = get("/v1/records?limit=5&label=IoT");
  EXPECT_EQ(a.body, b.body);
  EXPECT_EQ(a.headers.at("ETag"), b.headers.at("ETag"));
  EXPECT_EQ(cache_entries(), 1.0);  // Canonicalized to one cache key.
}

TEST_F(CachedApiTest, ErrorsAreNotCached) {
  EXPECT_EQ(get("/v1/records?since=abc").status, 400);
  EXPECT_EQ(cache_entries(), 0.0);
}

TEST(RateLimitedApiTest, ThrottledRequestsGet429WithRetryAfter) {
  feed::FeedManager feed;
  ApiServer server(feed);
  server.add_token("secret");
  server.add_token("other");
  TokenBucketLimiter limiter({/*rate_per_s=*/0.5, /*burst=*/2.0});
  server.attach_rate_limiter(&limiter);

  auto get_with = [&](const std::string& token) {
    auto req = HttpRequest::parse("GET /v1/stats HTTP/1.1\r\n"
                                  "Authorization: Bearer " +
                                  token + "\r\n\r\n");
    return server.handle(*req);
  };
  EXPECT_EQ(get_with("secret").status, 200);
  EXPECT_EQ(get_with("secret").status, 200);
  const auto throttled = get_with("secret");
  EXPECT_EQ(throttled.status, 429);
  EXPECT_FALSE(throttled.headers.at("Retry-After").empty());
  // Another token's bucket is untouched; unauthenticated endpoints are
  // never throttled (scrapers carry no token to bucket by).
  EXPECT_EQ(get_with("other").status, 200);
  auto health = HttpRequest::parse("GET /v1/health HTTP/1.1\r\n\r\n");
  EXPECT_EQ(server.handle(*health).status, 200);
  // Bad credentials are rejected by auth before touching any bucket.
  EXPECT_EQ(get_with("wrong").status, 401);
}

// ----------------------------------------------------------- Date header ----

TEST(HttpDateTest, FormatsImfFixdate) {
  EXPECT_EQ(http_date(0), "Thu, 01 Jan 1970 00:00:00 GMT");
  EXPECT_EQ(http_date(784111777), "Sun, 06 Nov 1994 08:49:37 GMT");
}

TEST(HttpDateTest, SerializedResponsesCarryDate) {
  const std::string wire = HttpResponse::json(200, "{}").serialize();
  EXPECT_NE(wire.find("\r\nDate: "), std::string::npos);
  EXPECT_NE(wire.find(" GMT\r\n"), std::string::npos);
}

TEST(HttpDateTest, StatusLineCovers304And429) {
  EXPECT_STREQ(status_text(304), "Not Modified");
  EXPECT_STREQ(status_text(429), "Too Many Requests");
}

}  // namespace
}  // namespace exiot::api
