#include "pipeline/organizer.h"

#include <algorithm>

#include "net/wire.h"

namespace exiot::pipeline {

PacketOrganizer::PacketOrganizer(OrganizerConfig config,
                                 obs::MetricsRegistry* metrics)
    : config_(config) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  organized_c_ = &reg.counter("exiot_organizer_sources_total",
                              "Sources organized or dropped by the packet "
                              "organizer.",
                              {{"result", "organized"}});
  dropped_c_ = &reg.counter("exiot_organizer_sources_total",
                            "Sources organized or dropped by the packet "
                            "organizer.",
                            {{"result", "dropped"}});
  sample_size_h_ = &reg.histogram(
      "exiot_organizer_sample_size",
      "Packets per organized source sample (drops observe their short "
      "size too).",
      obs::size_buckets());
}

std::optional<ScannerBundle> PacketOrganizer::organize(
    Ipv4 src, std::vector<net::Packet> sample) {
  sample_size_h_->observe(static_cast<double>(sample.size()));
  if (sample.size() < config_.min_samples) {
    dropped_c_->inc();
    return std::nullopt;
  }
  std::stable_sort(
      sample.begin(), sample.end(),
      [](const net::Packet& a, const net::Packet& b) { return a.ts < b.ts; });
  ScannerBundle bundle;
  bundle.src = src;
  bundle.first_sample_ts = sample.front().ts;
  bundle.last_sample_ts = sample.back().ts;
  bundle.sample = std::move(sample);
  organized_c_->inc();
  return bundle;
}

json::Value PacketOrganizer::to_json(const ScannerBundle& bundle) {
  json::Value doc;
  doc["src_ip"] = bundle.src.to_string();
  doc["first_ts"] = bundle.first_sample_ts;
  doc["last_ts"] = bundle.last_sample_ts;
  doc["count"] = static_cast<std::int64_t>(bundle.sample.size());
  json::Array pkts;
  for (const auto& pkt : bundle.sample) {
    json::Value p;
    p["ts"] = pkt.ts;
    p["proto"] = static_cast<std::int64_t>(pkt.proto);
    p["dst"] = pkt.dst.to_string();
    p["dport"] = std::int64_t{pkt.dst_port};
    p["sport"] = std::int64_t{pkt.src_port};
    p["len"] = std::int64_t{pkt.total_length};
    p["ttl"] = std::int64_t{pkt.ttl};
    p["flags"] = std::int64_t{pkt.flags};
    p["win"] = std::int64_t{pkt.window};
    p["seq"] = static_cast<std::int64_t>(pkt.seq);
    pkts.push_back(std::move(p));
  }
  doc["packets"] = std::move(pkts);
  return doc;
}

}  // namespace exiot::pipeline
