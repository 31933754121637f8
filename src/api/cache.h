// Sequence-keyed response cache for the hot read-only API queries
// (/v1/snapshot, recent-window /v1/records). The cache key is the
// canonical request target; the validity key is the pipeline's commit
// sequence number (ExIotPipeline::commit_sequence), which advances exactly
// when a commit's side effects become visible in the feed — so
// invalidation is exact: an entry is served verbatim while the sequence
// matches and silently recomputed the moment a publish lands, never
// serving bytes a pre-cache server would not have produced.
//
// The same (sequence, key) pair deterministically names the response
// bytes, which is what makes the ETag strong: `"v<seq>-<key hash>"`. A
// client replaying it via If-None-Match gets 304 without the server
// touching the stores at all (the ApiServer handles the conditional; the
// cache only supplies the tag).
//
// Bounded by bytes with LRU eviction; thread-safe (the TCP worker pool
// calls lookup/insert concurrently). Metrics (via instrument()):
//   exiot_api_cache_hits_total / _misses_total   lookup outcomes
//   exiot_api_cache_stale_total                  entries dropped on a
//                                                sequence advance
//   exiot_api_cache_evictions_total              LRU byte-pressure drops
//   exiot_api_cache_bytes / _entries             current occupancy gauges
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "api/http.h"
#include "obs/metrics.h"

namespace exiot::api {

/// Strong ETag for the response produced at commit sequence `version`
/// for canonical request target `key`.
std::string response_etag(std::uint64_t version, const std::string& key);

class ResponseCache {
 public:
  /// `capacity_bytes` bounds the sum of cached body + header bytes; 0
  /// disables caching (lookup always misses, insert is a no-op).
  explicit ResponseCache(std::size_t capacity_bytes);

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Registers the cache's counters/gauges. Call before concurrent use.
  void instrument(obs::MetricsRegistry& registry);

  /// The cached response for `key`, valid only at commit sequence
  /// `version`. An entry cached at an older sequence is stale: it is
  /// dropped and the lookup misses, so a publish invalidates exactly the
  /// responses it could have changed.
  std::optional<HttpResponse> lookup(const std::string& key,
                                     std::uint64_t version);

  /// Caches `response` as the bytes for `key` at sequence `version`.
  /// Streaming responses are never cached (their body is not materialized).
  void insert(const std::string& key, std::uint64_t version,
              const HttpResponse& response);

 private:
  struct Entry {
    std::uint64_t version = 0;
    std::size_t bytes = 0;
    HttpResponse response;
    std::list<std::string>::iterator lru;  // Position in lru_ (front = hot).
  };

  static std::size_t entry_bytes(const std::string& key,
                                 const HttpResponse& response);
  /// Drops the coldest entries until occupancy fits. Lock held.
  void evict_to_fit();
  /// Removes one entry. Lock held.
  void erase_locked(std::unordered_map<std::string, Entry>::iterator it);
  void publish_gauges();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // Front = most recently used.
  std::size_t bytes_ = 0;

  obs::Counter* hits_c_ = nullptr;
  obs::Counter* misses_c_ = nullptr;
  obs::Counter* stale_c_ = nullptr;
  obs::Counter* evictions_c_ = nullptr;
  obs::Gauge* bytes_g_ = nullptr;
  obs::Gauge* entries_g_ = nullptr;
};

}  // namespace exiot::api
