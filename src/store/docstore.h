// An in-memory JSON document store playing MongoDB's role in the feed
// architecture: ObjectID-keyed documents, single-field secondary indexes,
// filtered queries, and the two-week lapse policy of the historical
// database. All times are virtual (TimeMicros).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.h"
#include "obs/metrics.h"
#include "store/objectid.h"
#include "store/opmetrics.h"

namespace exiot::store {

class DocumentStore {
 public:
  /// `retention` < 0 disables expiry (the "latest" DB); the historical DB
  /// uses the paper's two-week lapse. When a registry is given, every
  /// operation counts into `exiot_store_ops_total{store=<label>,op=...}`.
  explicit DocumentStore(TimeMicros retention = -1,
                         obs::MetricsRegistry* metrics = nullptr,
                         const std::string& store_label = "doc")
      : retention_(retention),
        ops_(obs::Labels{{"store", store_label}},
             metrics != nullptr ? *metrics : obs::scratch_registry()) {}

  /// Declares a secondary index over a top-level string/int field. Must be
  /// called before documents are inserted.
  void ensure_index(const std::string& field);

  /// Declares an ordered secondary index over a top-level integer field,
  /// enabling `find_range` lookups (e.g. "published_at" windows). Must be
  /// called before documents are inserted.
  void ensure_ordered_index(const std::string& field);

  /// Inserts a document at virtual time `now`; stamps "_id" and
  /// "updated_at" fields and returns the id.
  ObjectId insert(json::Value doc, TimeMicros now);

  /// Direct id lookup (nullptr if absent).
  const json::Value* get(const ObjectId& id) const;

  /// In-place update through a mutator; refreshes "updated_at". Returns
  /// false if the document is gone.
  bool update(const ObjectId& id, TimeMicros now,
              const std::function<void(json::Value&)>& mutate);

  /// Index lookup: ids of documents whose `field` stringifies to `value`,
  /// in id (insertion) order — the order a full scan yields, regardless of
  /// how many updates have churned the bucket.
  std::vector<ObjectId> find_by(const std::string& field,
                                const std::string& value) const;

  /// Ordered-index range lookup: ids of documents with `from` <= field <
  /// `to`, returned in id (insertion) order — the same order a full scan
  /// yields, so routing a query through the index cannot change its
  /// output. Empty when no ordered index exists on `field`.
  std::vector<ObjectId> find_range(const std::string& field,
                                   std::int64_t from, std::int64_t to) const;

  /// Resumable position in a paged ordered-index walk. Value-initialized
  /// means "start of range"; after a page it names the last (value, id)
  /// returned so the next page resumes strictly past it.
  struct PageCursor {
    std::int64_t value = 0;
    ObjectId after{};
    bool active = false;
  };

  /// One bounded slice of `find_range`, in (field value, id) order: up to
  /// `limit` ids with `from` <= field < `to` strictly past `cursor`, which
  /// is advanced in place. An empty result means the walk is done. The
  /// cursor survives interleaved inserts — new documents land at fresh
  /// (value, id) positions, so a paused walk (a streaming export waiting
  /// out socket backpressure) never sees an id twice.
  std::vector<ObjectId> find_range_page(const std::string& field,
                                        std::int64_t from, std::int64_t to,
                                        std::size_t limit,
                                        PageCursor& cursor) const;

  /// Full scan with predicate (the query-builder path).
  std::vector<ObjectId> find_if(
      const std::function<bool(const json::Value&)>& pred) const;

  /// Applies the retention policy: drops documents whose "updated_at" is
  /// older than `now - retention`. Returns the number removed.
  std::size_t expire(TimeMicros now);

  std::size_t size() const { return docs_.size(); }

  /// Iterates documents in id (i.e. insertion-time) order.
  void for_each(
      const std::function<void(const ObjectId&, const json::Value&)>& fn)
      const;

  /// Full-state serialization for durability snapshots:
  /// {"next_sequence": N, "docs": [doc, ...]} with docs in id order. The
  /// retention policy and declared indexes are configuration, not state —
  /// they are re-declared by the owning component before restore.
  json::Value snapshot_state() const;

  /// Rebuilds documents and indexes from snapshot_state() output. The
  /// store must be empty (recovery targets a freshly constructed store
  /// with its indexes already declared); otherwise an error is returned
  /// and nothing is modified.
  Status restore_state(const json::Value& state);

 private:
  static std::string index_key(const json::Value& doc,
                               const std::string& field);
  void index_insert(const ObjectId& id, const json::Value& doc);
  void index_remove(const ObjectId& id, const json::Value& doc);

  TimeMicros retention_;
  StoreOps ops_;
  std::uint64_t next_sequence_ = 1;
  std::map<ObjectId, json::Value> docs_;
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<ObjectId>>>
      indexes_;
  /// field -> (value -> ids with that value), value-sorted for ranges.
  std::map<std::string, std::map<std::int64_t, std::vector<ObjectId>>>
      ordered_indexes_;
};

}  // namespace exiot::store
