#include "store/kvstore.h"

namespace exiot::store {

void KvStore::set(const std::string& key, std::string value) {
  ops_.write->inc();
  strings_[key] = std::move(value);
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  ops_.read->inc();
  auto it = strings_.find(key);
  if (it == strings_.end()) return std::nullopt;
  return it->second;
}

bool KvStore::del(const std::string& key) {
  ops_.write->inc();
  return strings_.erase(key) > 0;
}

bool KvStore::exists(const std::string& key) const {
  ops_.read->inc();
  return strings_.contains(key);
}

json::Value KvStore::snapshot_state() const {
  ops_.scan->inc();
  json::Object strings;
  for (const auto& [k, v] : strings_) strings[k] = v;
  json::Value out;
  out["strings"] = std::move(strings);
  return out;
}

Status KvStore::restore_state(const json::Value& state) {
  if (size() != 0) {
    return make_error("kv_not_empty",
                      "restore_state requires an empty KvStore");
  }
  const json::Value* strings = state.find("strings");
  const json::Value* hashes = state.find("hashes");
  if (strings == nullptr || !strings->is_object() ||
      (hashes != nullptr && !hashes->is_object())) {
    return make_error("kv_snapshot", "malformed KvStore snapshot");
  }
  if (hashes != nullptr && !hashes->as_object().empty()) {
    return make_error("kv_snapshot",
                      "KvStore snapshot holds hash keys; the store keeps "
                      "strings only");
  }
  for (const auto& [k, v] : strings->as_object()) {
    if (!v.is_string()) {
      return make_error("kv_snapshot", "non-string value for key " + k);
    }
  }
  ops_.write->inc();
  for (const auto& [k, v] : strings->as_object()) strings_[k] = v.as_string();
  return Ok{};
}

std::vector<std::string> KvStore::keys() const {
  ops_.scan->inc();
  std::vector<std::string> out;
  out.reserve(size());
  for (const auto& [k, v] : strings_) out.push_back(k);
  return out;
}

}  // namespace exiot::store
