#include "store/docstore.h"

#include <algorithm>

namespace exiot::store {

void DocumentStore::ensure_index(const std::string& field) {
  indexes_.try_emplace(field);
}

void DocumentStore::ensure_ordered_index(const std::string& field) {
  ordered_indexes_.try_emplace(field);
}

std::string DocumentStore::index_key(const json::Value& doc,
                                     const std::string& field) {
  const json::Value* v = doc.find(field);
  if (v == nullptr) return "";
  if (v->is_string()) return v->as_string();
  if (v->is_number()) return std::to_string(v->as_int());
  return "";
}

void DocumentStore::index_insert(const ObjectId& id, const json::Value& doc) {
  for (auto& [field, buckets] : indexes_) {
    const std::string key = index_key(doc, field);
    if (!key.empty()) buckets[key].push_back(id);
  }
  for (auto& [field, buckets] : ordered_indexes_) {
    const json::Value* v = doc.find(field);
    if (v != nullptr && v->is_number()) buckets[v->as_int()].push_back(id);
  }
}

void DocumentStore::index_remove(const ObjectId& id, const json::Value& doc) {
  for (auto& [field, buckets] : indexes_) {
    const std::string key = index_key(doc, field);
    auto it = buckets.find(key);
    if (it == buckets.end()) continue;
    std::erase(it->second, id);
    if (it->second.empty()) buckets.erase(it);
  }
  for (auto& [field, buckets] : ordered_indexes_) {
    const json::Value* v = doc.find(field);
    if (v == nullptr || !v->is_number()) continue;
    auto it = buckets.find(v->as_int());
    if (it == buckets.end()) continue;
    std::erase(it->second, id);
    if (it->second.empty()) buckets.erase(it);
  }
}

ObjectId DocumentStore::insert(json::Value doc, TimeMicros now) {
  ops_.write->inc();
  ObjectId id = ObjectId::make(now, next_sequence_++);
  doc["_id"] = id.to_hex();
  doc["updated_at"] = static_cast<std::int64_t>(now);
  index_insert(id, doc);
  docs_.emplace(id, std::move(doc));
  return id;
}

const json::Value* DocumentStore::get(const ObjectId& id) const {
  ops_.read->inc();
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second;
}

bool DocumentStore::update(const ObjectId& id, TimeMicros now,
                           const std::function<void(json::Value&)>& mutate) {
  ops_.write->inc();
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  index_remove(id, it->second);
  mutate(it->second);
  it->second["updated_at"] = static_cast<std::int64_t>(now);
  it->second["_id"] = id.to_hex();  // The id field is not mutable.
  index_insert(id, it->second);
  return true;
}

std::vector<ObjectId> DocumentStore::find_by(const std::string& field,
                                             const std::string& value) const {
  ops_.read->inc();
  auto index_it = indexes_.find(field);
  if (index_it == indexes_.end()) return {};
  auto bucket_it = index_it->second.find(value);
  if (bucket_it == index_it->second.end()) return {};
  // update() re-appends an id to its bucket, so bucket order drifts from
  // insertion order over time; sort so the result matches a full scan
  // (and recovery from a snapshot, which rebuilds buckets in id order).
  std::vector<ObjectId> out = bucket_it->second;
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> DocumentStore::find_range(const std::string& field,
                                                std::int64_t from,
                                                std::int64_t to) const {
  ops_.read->inc();
  auto index_it = ordered_indexes_.find(field);
  if (index_it == ordered_indexes_.end() || from >= to) return {};
  const auto& buckets = index_it->second;
  std::vector<ObjectId> out;
  for (auto it = buckets.lower_bound(from); it != buckets.end(); ++it) {
    if (it->first >= to) break;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  // Documents are only approximately ordered by indexed value (batch
  // completion interleaves publication times), so restore the id order a
  // full scan would have produced.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ObjectId> DocumentStore::find_range_page(const std::string& field,
                                                     std::int64_t from,
                                                     std::int64_t to,
                                                     std::size_t limit,
                                                     PageCursor& cursor) const {
  ops_.read->inc();
  auto index_it = ordered_indexes_.find(field);
  if (index_it == ordered_indexes_.end() || from >= to || limit == 0) return {};
  const auto& buckets = index_it->second;
  std::vector<ObjectId> out;
  const std::int64_t start = cursor.active ? std::max(from, cursor.value) : from;
  for (auto it = buckets.lower_bound(start); it != buckets.end(); ++it) {
    if (it->first >= to) break;
    // Bucket order churns as updates re-append ids; pages promise (value,
    // id) order, so sort a copy before slicing.
    std::vector<ObjectId> ids = it->second;
    std::sort(ids.begin(), ids.end());
    for (const auto& id : ids) {
      if (cursor.active && it->first == cursor.value && !(cursor.after < id)) {
        continue;  // Already emitted in an earlier page.
      }
      out.push_back(id);
      cursor.value = it->first;
      cursor.after = id;
      cursor.active = true;
      if (out.size() == limit) return out;
    }
  }
  return out;
}

std::vector<ObjectId> DocumentStore::find_if(
    const std::function<bool(const json::Value&)>& pred) const {
  ops_.scan->inc();
  std::vector<ObjectId> out;
  for (const auto& [id, doc] : docs_) {
    if (pred(doc)) out.push_back(id);
  }
  return out;
}

std::size_t DocumentStore::expire(TimeMicros now) {
  if (retention_ < 0) return 0;
  ops_.expire->inc();
  const TimeMicros cutoff = now - retention_;
  std::size_t removed = 0;
  for (auto it = docs_.begin(); it != docs_.end();) {
    if (it->second.get_int("updated_at") < cutoff) {
      index_remove(it->first, it->second);
      it = docs_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

json::Value DocumentStore::snapshot_state() const {
  ops_.scan->inc();
  json::Array docs;
  docs.reserve(docs_.size());
  for (const auto& [id, doc] : docs_) docs.push_back(doc);
  json::Value out;
  out["next_sequence"] = static_cast<std::int64_t>(next_sequence_);
  out["docs"] = std::move(docs);
  return out;
}

Status DocumentStore::restore_state(const json::Value& state) {
  if (!docs_.empty()) {
    return make_error("doc_not_empty",
                      "restore_state requires an empty DocumentStore");
  }
  const json::Value* docs = state.find("docs");
  if (docs == nullptr || !docs->is_array() ||
      state.get_int("next_sequence", -1) < 1) {
    return make_error("doc_snapshot", "malformed DocumentStore snapshot");
  }
  ops_.write->inc();
  for (const json::Value& doc : docs->as_array()) {
    auto id = ObjectId::parse(doc.get_string("_id"));
    if (!id.has_value()) {
      return make_error("doc_snapshot",
                        "document without a parsable _id in snapshot");
    }
    index_insert(*id, doc);
    docs_.emplace(*id, doc);
  }
  next_sequence_ =
      static_cast<std::uint64_t>(state.get_int("next_sequence"));
  return Ok{};
}

void DocumentStore::for_each(
    const std::function<void(const ObjectId&, const json::Value&)>& fn)
    const {
  ops_.scan->inc();
  for (const auto& [id, doc] : docs_) fn(id, doc);
}

}  // namespace exiot::store
