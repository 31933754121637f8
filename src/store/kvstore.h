// A Redis-style in-memory key-value store. The pipeline keeps the ObjectID
// of every *active* compromised device here, keyed by source IP, so that
// END_FLOW control messages update MongoDB records by direct id instead of
// a search — the paper's stated reason for the Redis tier.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "store/opmetrics.h"

namespace exiot::store {

class KvStore {
 public:
  /// When a registry is given, ops count into
  /// `exiot_store_ops_total{store=<label>,op=...}`.
  explicit KvStore(obs::MetricsRegistry* metrics = nullptr,
                   const std::string& store_label = "kv")
      : ops_(obs::Labels{{"store", store_label}},
             metrics != nullptr ? *metrics : obs::scratch_registry()) {}

  void set(const std::string& key, std::string value);
  std::optional<std::string> get(const std::string& key) const;
  /// Removes a key. Returns whether it existed.
  bool del(const std::string& key);
  bool exists(const std::string& key) const;

  std::size_t size() const { return strings_.size(); }
  std::vector<std::string> keys() const;

  /// Full-state serialization for durability snapshots:
  /// {"strings": {key: value, ...}}.
  json::Value snapshot_state() const;

  /// Rebuilds state from snapshot_state() output. The store must be empty
  /// (recovery targets a freshly constructed store); otherwise an error is
  /// returned and nothing is modified. A "hashes" object, which snapshots
  /// written while the store also held hash keys carry, must be empty: a
  /// non-empty one is an error rather than state dropped.
  Status restore_state(const json::Value& state);

 private:
  StoreOps ops_;
  std::unordered_map<std::string, std::string> strings_;
};

}  // namespace exiot::store
