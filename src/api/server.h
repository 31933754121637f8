// The eX-IoT REST API (§IV): authenticated programmatic access to the CTI
// feed, returning JSON. Endpoints:
//
//   GET /v1/health                      liveness + uptime hints (no auth)
//   GET /v1/metrics                     Prometheus text exposition of the
//                                       attached registry (no auth, like
//                                       /v1/health — scraper-friendly)
//   GET /v1/metrics.json                same registry as JSON (auth)
//   GET /v1/stats                       feed-level counters
//   GET /v1/records?label=&country=&asn=&since=&until=&active=&limit=
//                                       filtered record query
//   GET /v1/records/<ip>                all records for a source IP
//   GET /v1/snapshot?window_us=         aggregate roll-ups (Table V style)
//   GET /v1/query?q=<expr>&limit=       query-builder expressions (see
//                                       api/query.h for the language)
//   GET /v1/traces?limit=               sampled end-to-end record/batch
//                                       spans (attach_tracer; auth)
//   GET /v1/flightrecorder              recent structural events ring
//                                       (attach_flight_recorder; auth)
//   GET /v1/export?format=&since=&until=
//                                       bulk export as jsonl (default) or
//                                       csv; streamed chunked, walking the
//                                       store's published_at index in
//                                       bounded slices (auth)
//   GET <registered>                    extra JSON endpoints
//                                       (add_json_endpoint; e.g.
//                                       /v1/telescope statistics)
//
// Auth: "Authorization: Bearer <token>" checked against registered tokens.
// With a watchdog attached, /v1/health's status escalates
// ok -> degraded -> stalled from worker heartbeat ages; with a flight
// recorder attached, every 4xx/5xx response is recorded as an "api" event.
//
// Authenticated requests flow auth -> rate limit -> cache -> handler:
//   - attach_rate_limiter: per-token token buckets; a drained bucket gets
//     429 with Retry-After (api/ratelimit.h).
//   - attach_cache: /v1/snapshot and /v1/records responses are cached
//     keyed by (canonical target, commit sequence) with a strong ETag;
//     a matching If-None-Match answers 304 without touching the stores
//     (api/cache.h). Bodies are byte-identical to the uncached handler.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <unordered_set>

#include "api/cache.h"
#include "api/http.h"
#include "api/ratelimit.h"
#include "feed/manager.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"

namespace exiot::api {

class ApiServer {
 public:
  explicit ApiServer(const feed::FeedManager& feed) : feed_(feed) {}

  /// Registers an API token.
  void add_token(std::string token) { tokens_.insert(std::move(token)); }

  /// Registers an extra authenticated GET endpoint whose body is produced
  /// by `provider` (e.g. /v1/telescope backed by the pipeline's
  /// ReportStore). The path must start with "/".
  void add_json_endpoint(std::string path,
                         std::function<json::Value()> provider) {
    extra_endpoints_[std::move(path)] = std::move(provider);
  }

  /// Attaches a metrics registry: enables GET /v1/metrics (Prometheus
  /// text, unauthenticated like /v1/health) and GET /v1/metrics.json, and
  /// adds registry-backed uptime hints to /v1/health. The registry must
  /// outlive the server (pass &pipeline.metrics()).
  void attach_metrics(const obs::MetricsRegistry* registry) {
    metrics_ = registry;
  }

  /// Attaches a span tracer: enables GET /v1/traces (authenticated). The
  /// tracer must outlive the server (pass &pipeline.tracer()).
  void attach_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a flight recorder: enables GET /v1/flightrecorder
  /// (authenticated) and records every 4xx/5xx response as an "api"
  /// event. Must outlive the server.
  void attach_flight_recorder(obs::FlightRecorder* flight) {
    flight_ = flight;
  }

  /// Attaches the stall watchdog: /v1/health's "status" becomes
  /// ok/degraded/stalled from worker heartbeat ages, with per-worker
  /// detail under "watchdog". Must outlive the server.
  void attach_watchdog(const obs::Watchdog* watchdog) {
    watchdog_ = watchdog;
  }

  /// Supplies the pipeline's commit sequence number (e.g.
  /// [&pipe] { return pipe.commit_sequence(); }) — the validity key for
  /// cached responses and their ETags.
  using VersionFn = std::function<std::uint64_t()>;

  /// Attaches a response cache for /v1/snapshot and /v1/records, keyed by
  /// `version` for exact invalidation. Both must outlive the server.
  void attach_cache(ResponseCache* cache, VersionFn version) {
    cache_ = cache;
    version_ = std::move(version);
  }

  /// Attaches a per-token rate limiter; throttled requests get 429 with a
  /// Retry-After header. Must outlive the server.
  void attach_rate_limiter(TokenBucketLimiter* limiter) { limiter_ = limiter; }

  /// Handles one request (transport-independent; the TCP binding and the
  /// tests both route through here).
  HttpResponse handle(const HttpRequest& request) const;

 private:
  bool authorized(const HttpRequest& request) const;
  /// Full request flow: auth -> rate limit -> cache / If-None-Match ->
  /// dispatch (see the header comment).
  HttpResponse process(const HttpRequest& request) const;
  HttpResponse dispatch(const HttpRequest& request) const;
  HttpResponse handle_stats() const;
  HttpResponse handle_records(const HttpRequest& request) const;
  HttpResponse handle_records_for_ip(const std::string& ip) const;
  HttpResponse handle_snapshot(const HttpRequest& request) const;
  HttpResponse handle_query(const HttpRequest& request) const;
  HttpResponse handle_traces(const HttpRequest& request) const;
  HttpResponse handle_export(const HttpRequest& request) const;

  const feed::FeedManager& feed_;
  const obs::MetricsRegistry* metrics_ = nullptr;
  const obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  const obs::Watchdog* watchdog_ = nullptr;
  ResponseCache* cache_ = nullptr;
  VersionFn version_;
  TokenBucketLimiter* limiter_ = nullptr;
  std::unordered_set<std::string> tokens_;
  std::map<std::string, std::function<json::Value()>> extra_endpoints_;
};

}  // namespace exiot::api
