#include "flow/detector.h"

#include <algorithm>

namespace exiot::flow {

FlowDetector::FlowDetector(DetectorConfig config, DetectorEvents events,
                           std::vector<std::uint16_t> report_ports)
    : config_(config),
      events_(std::move(events)),
      report_ports_(std::move(report_ports)) {
  if (!report_ports_.empty()) {
    report_port_index_.assign(65536, -1);
    for (std::uint16_t p : report_ports_) {
      if (report_port_index_[p] >= 0) continue;  // Duplicate port.
      report_port_index_[p] =
          static_cast<std::int32_t>(port_counts_.size());
      port_counts_.push_back(0);
    }
  }
}

void FlowDetector::materialize_per_port() {
  for (std::uint16_t p : report_ports_) {
    const std::uint64_t n =
        port_counts_[static_cast<std::size_t>(report_port_index_[p])];
    if (n != 0) current_report_.per_port[p] = n;
  }
  std::fill(port_counts_.begin(), port_counts_.end(), 0);
}

void FlowDetector::roll_second(TimeMicros ts) {
  const TimeMicros second = ts - ts % kMicrosPerSecond;
  if (report_open_ && second == current_report_.second_start) return;
  if (report_open_) {
    materialize_per_port();
    if (events_.on_report) events_.on_report(current_report_);
  }
  current_report_ = SecondReport{};
  current_report_.second_start = second;
  report_open_ = true;
}

void FlowDetector::process(const net::Packet& pkt) {
  roll_second(pkt.ts);
  ++stats_.packets_processed;
  ++current_report_.total;
  switch (pkt.proto) {
    case net::IpProto::kTcp: ++current_report_.tcp; break;
    case net::IpProto::kUdp: ++current_report_.udp; break;
    case net::IpProto::kIcmp: ++current_report_.icmp; break;
  }

  if (net::is_backscatter(pkt)) {
    ++stats_.backscatter_filtered;
    ++current_report_.backscatter_filtered;
    return;
  }

  // Per-port counts feed the Table-1 port ranking; backscatter replies
  // landing on a report port are filtered above so they cannot inflate it.
  if (!report_port_index_.empty()) {
    const std::int32_t pidx = report_port_index_[pkt.dst_port];
    if (pidx >= 0) ++port_counts_[static_cast<std::size_t>(pidx)];
  }

  SourceState& s = table_.find_or_insert(pkt.src.value());
  if (s.packets == 0) {
    s.first_seen = pkt.ts;
  } else if (!s.is_scanner && pkt.ts - s.last_seen > config_.max_gap) {
    // A pending flow with a >max_gap hole is restarted: the earlier burst
    // was not a sustained scan.
    ++stats_.pending_resets;
    s = SourceState{};
    s.first_seen = pkt.ts;
  }
  s.last_seen = pkt.ts;
  ++s.packets;

  if (!s.is_scanner) {
    if (s.packets >= static_cast<std::uint64_t>(
                         config_.scanner_packet_threshold) &&
        s.last_seen - s.first_seen >= config_.min_duration) {
      s.is_scanner = true;
      s.detect_time = pkt.ts;
      s.packets_at_detect = s.packets;
      ++stats_.scanners_detected;
      ++current_report_.new_scanners;
      if (events_.on_scanner) {
        events_.on_scanner(FlowSummary{pkt.src, s.first_seen, s.detect_time,
                                       s.last_seen, s.packets});
      }
      s.sample.reserve(static_cast<std::size_t>(config_.sample_count));
    }
    return;
  }

  // Detected scanner: sample the next `sample_count` packets, then ignore
  // (only updating last_seen, already done above).
  if (!s.sample_done) {
    s.sample.push_back(pkt);
    if (s.sample.size() >=
        static_cast<std::size_t>(config_.sample_count)) {
      s.sample_done = true;
      ++stats_.samples_completed;
      if (events_.on_sample) events_.on_sample(pkt.src, s.sample);
      s.sample.clear();
      s.sample.shrink_to_fit();
    }
  }
}

void FlowDetector::end_flow(Ipv4 src, SourceState& s) {
  ++stats_.flows_ended;
  if (events_.on_flow_end) {
    events_.on_flow_end(
        FlowSummary{src, s.first_seen, s.detect_time, s.last_seen,
                    s.packets});
  }
}

void FlowDetector::flush_report() {
  if (report_open_) {
    materialize_per_port();
    if (events_.on_report) events_.on_report(current_report_);
  }
  current_report_ = SecondReport{};
  report_open_ = false;
}

void FlowDetector::expire(std::vector<std::pair<std::uint32_t, SourceState>>
                              expired) {
  // Expiries are emitted in ascending source order so the event stream is
  // deterministic regardless of hash-table layout or shard count.
  std::sort(expired.begin(), expired.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [addr, s] : expired) {
    if (!s.is_scanner) continue;
    // An incomplete sample still ships: the packet organizer downstream
    // decides whether it is usable (the paper drops short samples).
    if (!s.sample_done && !s.sample.empty() && events_.on_sample) {
      events_.on_sample(Ipv4(addr), s.sample);
    }
    end_flow(Ipv4(addr), s);
  }
}

void FlowDetector::end_of_hour(TimeMicros now) {
  // The hour barrier ships the open per-second report: the last second of
  // the hour must not wait for the next hour's first packet to arrive.
  flush_report();
  std::vector<std::pair<std::uint32_t, SourceState>> expired;
  table_.for_each([&](std::uint32_t addr, SourceState& s) {
    if (now - s.last_seen > config_.flow_expiry) {
      expired.emplace_back(addr, std::move(s));
    }
  });
  for (const auto& [addr, s] : expired) table_.erase(addr);
  expire(std::move(expired));
}

void FlowDetector::finish() {
  std::vector<std::pair<std::uint32_t, SourceState>> all;
  all.reserve(table_.size());
  table_.for_each([&](std::uint32_t addr, SourceState& s) {
    all.emplace_back(addr, std::move(s));
  });
  table_.clear();
  expire(std::move(all));
  flush_report();
}

}  // namespace exiot::flow
