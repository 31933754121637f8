#include "api/cache.h"

#include <cstdio>

namespace exiot::api {

std::string response_etag(std::uint64_t version, const std::string& key) {
  // FNV-1a over the canonical target: the tag must be stable across
  // processes (a restarted server at the same commit sequence serves
  // the same bytes), so no std::hash.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return "\"v" + std::to_string(version) + "-" + hex + "\"";
}

ResponseCache::ResponseCache(std::size_t capacity_bytes)
    : capacity_(capacity_bytes) {
  instrument(obs::scratch_registry());
}

void ResponseCache::instrument(obs::MetricsRegistry& registry) {
  hits_c_ = &registry.counter("exiot_api_cache_hits_total",
                              "Responses served from the cache.");
  misses_c_ = &registry.counter(
      "exiot_api_cache_misses_total",
      "Cache lookups that fell through to the handler.");
  stale_c_ = &registry.counter(
      "exiot_api_cache_stale_total",
      "Entries invalidated by a commit-sequence advance.");
  evictions_c_ = &registry.counter("exiot_api_cache_evictions_total",
                                   "Entries evicted by LRU byte pressure.");
  bytes_g_ = &registry.gauge("exiot_api_cache_bytes",
                             "Bytes currently held by the response cache.");
  entries_g_ = &registry.gauge("exiot_api_cache_entries",
                               "Responses currently cached.");
}

std::optional<HttpResponse> ResponseCache::lookup(const std::string& key,
                                                  std::uint64_t version) {
  if (capacity_ == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_c_->inc();
    return std::nullopt;
  }
  if (it->second.version != version) {
    // A commit landed since this entry was built: exact invalidation.
    stale_c_->inc();
    erase_locked(it);
    misses_c_->inc();
    publish_gauges();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  hits_c_->inc();
  return it->second.response;
}

void ResponseCache::insert(const std::string& key, std::uint64_t version,
                           const HttpResponse& response) {
  if (capacity_ == 0 || response.body_stream != nullptr) return;
  const std::size_t cost = entry_bytes(key, response);
  if (cost > capacity_) return;  // Would evict everything and still not fit.
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) erase_locked(it);
  lru_.push_front(key);
  Entry entry;
  entry.version = version;
  entry.bytes = cost;
  entry.response = response;
  entry.lru = lru_.begin();
  entries_.emplace(key, std::move(entry));
  bytes_ += cost;
  evict_to_fit();
  publish_gauges();
}

std::size_t ResponseCache::entry_bytes(const std::string& key,
                                       const HttpResponse& response) {
  std::size_t total = key.size() + response.body.size();
  for (const auto& [name, value] : response.headers) {
    total += name.size() + value.size();
  }
  return total;
}

void ResponseCache::evict_to_fit() {
  while (bytes_ > capacity_ && !lru_.empty()) {
    auto victim = entries_.find(lru_.back());
    evictions_c_->inc();
    erase_locked(victim);
  }
}

void ResponseCache::erase_locked(
    std::unordered_map<std::string, Entry>::iterator it) {
  bytes_ -= it->second.bytes;
  lru_.erase(it->second.lru);
  entries_.erase(it);
}

void ResponseCache::publish_gauges() {
  bytes_g_->set(static_cast<double>(bytes_));
  entries_g_->set(static_cast<double>(entries_.size()));
}

}  // namespace exiot::api
