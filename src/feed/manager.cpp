#include "feed/manager.h"

namespace exiot::feed {

FeedManager::FeedManager(obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : metrics_(metrics),
      tracer_(tracer),
      latest_(-1, metrics, "latest"),
      historical_(14 * kMicrosPerDay, metrics, "historical"),
      active_(metrics, "active") {
  latest_.ensure_index("src_ip");
  latest_.ensure_index("label");
  latest_.ensure_ordered_index("published_at");
  historical_.ensure_index("src_ip");

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  published_c_ = &reg.counter("exiot_feed_records_published_total",
                              "CTI records published into the feed.");
  ended_c_ = &reg.counter("exiot_feed_records_ended_total",
                          "Active records closed by END_FLOW handling.");
  expired_c_ = &reg.counter("exiot_feed_records_expired_total",
                            "Historical records dropped by the 14-day lapse.");
  active_g_ = &reg.gauge("exiot_feed_active_sources",
                         "Sources currently marked active in the KV cache.");
  publish_latency_h_ = &reg.histogram(
      "exiot_feed_publish_latency_seconds",
      "Virtual detect-to-publish latency per record (the paper's Fig. 6 "
      "end-to-end path).",
      obs::virtual_latency_buckets());
}

std::string FeedManager::active_key(Ipv4 src) {
  return "active:" + src.to_string();
}

store::ObjectId FeedManager::publish(const CtiRecord& record, TimeMicros now,
                                     const obs::TraceContext* trace) {
  const bool traced =
      tracer_ != nullptr && trace != nullptr && trace->sampled();
  const std::uint64_t publish_start = traced ? obs::steady_micros() : 0;
  json::Value doc = record.to_json();
  store::ObjectId id = latest_.insert(doc, now);
  (void)historical_.insert(std::move(doc), now);
  const std::string key = active_key(record.src);
  const bool was_active = active_.exists(key);
  active_.set(key, id.to_hex());
  published_c_->inc();
  if (metrics_ != nullptr && !record.label.empty()) {
    metrics_
        ->counter("exiot_feed_records_by_label_total",
                  "Published records by classification label.",
                  {{"label", record.label}})
        .inc();
  }
  obs::VirtualTimer(*publish_latency_h_, record.detect_time).stop(now);
  if (!was_active) active_g_->inc();
  if (traced) {
    // Tail of the record trace: the store-insert cost. Publish runs inline
    // in the commit, so there is no queue hop to wait on.
    tracer_->record(*trace, obs::SpanStage::kPublish, publish_start,
                    obs::steady_micros() - publish_start, 0,
                    record.src.value());
  }
  return id;
}

bool FeedManager::mark_ended(Ipv4 src, TimeMicros scan_end, TimeMicros now) {
  const std::string key = active_key(src);
  auto hex = active_.get(key);
  if (!hex.has_value()) return false;
  auto id = store::ObjectId::parse(*hex);
  active_.del(key);
  active_g_->dec();
  if (!id.has_value()) return false;
  const bool updated = latest_.update(*id, now, [&](json::Value& doc) {
    doc["active"] = false;
    doc["scan_end"] = scan_end;
  });
  if (updated) ended_c_->inc();
  return updated;
}

std::size_t FeedManager::expire(TimeMicros now) {
  const std::size_t removed = historical_.expire(now);
  expired_c_->inc(removed);
  return removed;
}

std::optional<CtiRecord> FeedManager::get(const store::ObjectId& id) const {
  const json::Value* doc = latest_.get(id);
  if (doc == nullptr) return std::nullopt;
  return CtiRecord::from_json(*doc);
}

std::vector<CtiRecord> FeedManager::records_for(Ipv4 src) const {
  std::vector<CtiRecord> out;
  for (const auto& id : latest_.find_by("src_ip", src.to_string())) {
    const json::Value* doc = latest_.get(id);
    if (doc != nullptr) out.push_back(CtiRecord::from_json(*doc));
  }
  return out;
}

std::vector<CtiRecord> FeedManager::published_between(TimeMicros from,
                                                      TimeMicros to) const {
  // Range lookup over the published_at ordered index instead of a full
  // scan; find_range returns id order, so the output is unchanged.
  std::vector<CtiRecord> out;
  for (const auto& id : latest_.find_range("published_at", from, to)) {
    const json::Value* doc = latest_.get(id);
    if (doc != nullptr) out.push_back(CtiRecord::from_json(*doc));
  }
  return out;
}

std::vector<Ipv4> FeedManager::sources_between(
    TimeMicros from, TimeMicros to, const std::string& label) const {
  std::map<std::uint32_t, bool> seen;
  for (const auto& id : latest_.find_range("published_at", from, to)) {
    const json::Value* doc = latest_.get(id);
    if (doc == nullptr) continue;
    if (!label.empty() && doc->get_string("label") != label) continue;
    if (auto ip = Ipv4::parse(doc->get_string("src_ip"))) {
      seen.emplace(ip->value(), true);
    }
  }
  std::vector<Ipv4> out;
  out.reserve(seen.size());
  for (const auto& [value, unused] : seen) out.emplace_back(value);
  return out;
}

json::Value FeedManager::snapshot_state() const {
  json::Value out;
  out["latest"] = latest_.snapshot_state();
  out["historical"] = historical_.snapshot_state();
  out["active"] = active_.snapshot_state();
  return out;
}

Status FeedManager::restore_state(const json::Value& state) {
  if (latest_.size() != 0 || historical_.size() != 0 ||
      active_.size() != 0) {
    return make_error("feed_not_empty",
                      "restore_state requires an empty FeedManager");
  }
  const json::Value* latest = state.find("latest");
  const json::Value* historical = state.find("historical");
  const json::Value* active = state.find("active");
  if (latest == nullptr || historical == nullptr || active == nullptr) {
    return make_error("feed_snapshot", "malformed FeedManager snapshot");
  }
  if (Status s = latest_.restore_state(*latest); !s.ok()) return s;
  if (Status s = historical_.restore_state(*historical); !s.ok()) return s;
  if (Status s = active_.restore_state(*active); !s.ok()) return s;
  active_g_->set(static_cast<double>(active_count()));
  return Ok{};
}

std::size_t FeedManager::active_count() const {
  std::size_t count = 0;
  for (const auto& key : active_.keys()) {
    if (key.starts_with("active:")) ++count;
  }
  return count;
}

}  // namespace exiot::feed
