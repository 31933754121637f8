#include "flow/detector.h"

#include <algorithm>

namespace exiot::flow {

FlowDetector::FlowDetector(DetectorConfig config, DetectorEvents events,
                           std::vector<std::uint16_t> report_ports)
    : config_(config),
      events_(std::move(events)),
      report_ports_(std::move(report_ports)) {
  std::sort(report_ports_.begin(), report_ports_.end());
  report_ports_.erase(std::unique(report_ports_.begin(), report_ports_.end()),
                      report_ports_.end());
  if (!report_ports_.empty()) {
    report_port_index_.assign(65536, -1);
    for (std::size_t i = 0; i < report_ports_.size(); ++i) {
      report_port_index_[report_ports_[i]] = static_cast<std::int32_t>(i);
    }
    port_counts_.assign(report_ports_.size(), 0);
  }
}

void FlowDetector::materialize_per_port() {
  for (std::size_t i = 0; i < report_ports_.size(); ++i) {
    if (port_counts_[i] != 0) {
      current_report_.per_port[report_ports_[i]] = port_counts_[i];
      port_counts_[i] = 0;
    }
  }
}

void FlowDetector::roll_second(TimeMicros ts) {
  if (ts < open_end_ && ts >= current_report_.second_start) return;
  const TimeMicros second = ts - ts % kMicrosPerSecond;
  if (report_open_ && second == current_report_.second_start) return;
  flush_report();
  current_report_.second_start = second;
  report_open_ = true;
  // `%` truncates toward zero, so a negative second does not span
  // [second, second + 1 s); such packets always take the path above.
  if (second >= 0) open_end_ = second + kMicrosPerSecond;
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
      ++stats_.scanners_detected;
      ++current_report_.new_scanners;
      if (events_.on_scanner) {
        events_.on_scanner(FlowSummary{pkt.src, s.first_seen, s.detect_time,
                                       s.last_seen, s.packets});
      }
      s.sample_slot = acquire_sample();
    }
    return;
  }

  // Detected scanner: sample the next `sample_count` packets, then ignore
  // (only updating last_seen, already done above).
  if (!s.sample_done) {
    std::vector<net::Packet>& sample = samples_[s.sample_slot];
    sample.push_back(pkt);
    if (sample.size() >= static_cast<std::size_t>(config_.sample_count)) {
      s.sample_done = true;
      ++stats_.samples_completed;
      if (events_.on_sample) events_.on_sample(pkt.src, sample);
      release_sample(s.sample_slot);
    }
  }
}

std::uint32_t FlowDetector::acquire_sample() {
  if (!free_samples_.empty()) {
    const std::uint32_t slot = free_samples_.back();
    free_samples_.pop_back();
    return slot;
  }
  samples_.emplace_back().reserve(
      static_cast<std::size_t>(config_.sample_count));
  return static_cast<std::uint32_t>(samples_.size() - 1);
}

void FlowDetector::release_sample(std::uint32_t slot) {
  samples_[slot].clear();
  free_samples_.push_back(slot);
}

void FlowDetector::end_flow(Ipv4 src, const SourceState& s) {
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
  // A fresh report, but per_port keeps its storage: no allocation per
  // second once the busiest second's port list has been seen.
  PortCounts per_port = std::move(current_report_.per_port);
  per_port.clear();
  current_report_ = SecondReport{};
  current_report_.per_port = std::move(per_port);
  report_open_ = false;
  open_end_ = std::numeric_limits<TimeMicros>::min();
}

void FlowDetector::end_flows(Expired& scanners) {
  // Expiries are emitted in ascending source order so the event stream is
  // deterministic regardless of hash-table layout or shard count.
  std::sort(scanners.begin(), scanners.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [addr, s] : scanners) {
    if (!s.sample_done) {
      // An incomplete sample still ships: the packet organizer downstream
      // decides whether it is usable (the paper drops short samples).
      const std::vector<net::Packet>& sample = samples_[s.sample_slot];
      if (!sample.empty() && events_.on_sample) {
        events_.on_sample(Ipv4(addr), sample);
      }
      release_sample(s.sample_slot);
    }
    end_flow(Ipv4(addr), s);
  }
}

void FlowDetector::end_of_hour(TimeMicros now) {
  // The hour barrier ships the open per-second report: the last second of
  // the hour must not wait for the next hour's first packet to arrive.
  flush_report();
  // One pass drops every idle source; only scanners have events to emit,
  // so only they are collected and sorted (a flood's one-packet sources
  // are dropped in place).
  Expired scanners;
  table_.erase_if([&](std::uint32_t addr, const SourceState& s) {
    if (now - s.last_seen <= config_.flow_expiry) return false;
    if (s.is_scanner) scanners.emplace_back(addr, s);
    return true;
  });
  end_flows(scanners);
}

void FlowDetector::finish() {
  Expired scanners;
  table_.for_each([&](std::uint32_t addr, const SourceState& s) {
    if (s.is_scanner) scanners.emplace_back(addr, s);
  });
  table_.clear();
  end_flows(scanners);
  flush_report();
}

}  // namespace exiot::flow
