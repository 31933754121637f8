// Plain model of flow::FlowDetector's contract, the oracle its fast
// implementation is checked against: std::map per-source state with the
// sample inside, std::map per-port counts for the open second, and hour
// sweeps that visit every source in ascending address order. It emits
// through the same DetectorEvents as the detector, so a test can log both
// event streams the same way and compare them line by line. Simple rather
// than fast: for tests.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "flow/detector.h"

namespace exiot::oracle {

class ReferenceDetector {
 public:
  ReferenceDetector(flow::DetectorConfig config, flow::DetectorEvents events,
                    const std::vector<std::uint16_t>& report_ports)
      : config_(config),
        events_(std::move(events)),
        report_ports_(report_ports.begin(), report_ports.end()) {}

  void process(const net::Packet& pkt) {
    // A packet outside the open second (later, or stepping back) ships the
    // open report and opens its own second.
    const TimeMicros second = pkt.ts - pkt.ts % kMicrosPerSecond;
    if (!open_ || second != report_.second_start) {
      flush_report();
      report_.second_start = second;
      open_ = true;
    }
    ++stats_.packets_processed;
    ++report_.total;
    if (pkt.proto == net::IpProto::kTcp) ++report_.tcp;
    if (pkt.proto == net::IpProto::kUdp) ++report_.udp;
    if (pkt.proto == net::IpProto::kIcmp) ++report_.icmp;
    if (net::is_backscatter(pkt)) {
      ++stats_.backscatter_filtered;
      ++report_.backscatter_filtered;
      return;
    }
    if (report_ports_.count(pkt.dst_port) != 0) ++ports_[pkt.dst_port];

    Source& s = sources_[pkt.src.value()];
    if (s.packets > 0 && !s.scanner && pkt.ts - s.last_seen > config_.max_gap) {
      ++stats_.pending_resets;
      s = Source{};
    }
    if (s.packets == 0) s.first_seen = pkt.ts;
    s.last_seen = pkt.ts;
    ++s.packets;
    if (!s.scanner) {
      if (s.packets >= static_cast<std::uint64_t>(
                           config_.scanner_packet_threshold) &&
          s.last_seen - s.first_seen >= config_.min_duration) {
        s.scanner = true;
        s.detect_time = pkt.ts;
        ++stats_.scanners_detected;
        ++report_.new_scanners;
        if (events_.on_scanner) events_.on_scanner(summary(pkt.src, s));
      }
      return;
    }
    if (s.sample_done) return;
    s.sample.push_back(pkt);
    if (s.sample.size() >= static_cast<std::size_t>(config_.sample_count)) {
      s.sample_done = true;
      ++stats_.samples_completed;
      if (events_.on_sample) events_.on_sample(pkt.src, s.sample);
      s.sample.clear();
    }
  }

  void end_of_hour(TimeMicros now) {
    flush_report();
    for (auto it = sources_.begin(); it != sources_.end();) {
      if (now - it->second.last_seen > config_.flow_expiry) {
        if (it->second.scanner) end_flow(Ipv4(it->first), it->second);
        it = sources_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void finish() {
    for (const auto& [addr, s] : sources_) {
      if (s.scanner) end_flow(Ipv4(addr), s);
    }
    sources_.clear();
    flush_report();
  }

  const flow::DetectorStats& stats() const { return stats_; }
  std::size_t tracked_sources() const { return sources_.size(); }

 private:
  struct Source {
    TimeMicros first_seen = 0;
    TimeMicros last_seen = 0;
    TimeMicros detect_time = 0;
    std::uint64_t packets = 0;
    bool scanner = false;
    bool sample_done = false;
    std::vector<net::Packet> sample;
  };

  static flow::FlowSummary summary(Ipv4 src, const Source& s) {
    return flow::FlowSummary{src, s.first_seen, s.detect_time, s.last_seen,
                             s.packets};
  }

  void end_flow(Ipv4 src, const Source& s) {
    if (!s.sample_done && !s.sample.empty() && events_.on_sample) {
      events_.on_sample(src, s.sample);
    }
    ++stats_.flows_ended;
    if (events_.on_flow_end) events_.on_flow_end(summary(src, s));
  }

  void flush_report() {
    if (open_) {
      for (const auto& [port, n] : ports_) report_.per_port[port] = n;
      if (events_.on_report) events_.on_report(report_);
    }
    report_ = flow::SecondReport{};
    ports_.clear();
    open_ = false;
  }

  flow::DetectorConfig config_;
  flow::DetectorEvents events_;
  std::set<std::uint16_t> report_ports_;
  std::map<std::uint32_t, Source> sources_;
  std::map<std::uint16_t, std::uint64_t> ports_;
  flow::SecondReport report_;
  bool open_ = false;
  flow::DetectorStats stats_;
};

}  // namespace exiot::oracle
