// The "Flow detection and packet sampling" module of Figure 2: the C++
// program that runs on the CAIDA cluster. It filters backscatter, tracks
// per-source flow state in a hash table keyed by source IP (the paper's
// GLib hashtable), applies the TRW-derived operational thresholds (>=100
// packets, inter-arrival <= 300 s, duration >= 1 min), samples the next 200
// packets after detection, expires idle flows at hour boundaries (emitting
// END_FLOW), and publishes per-second packet-level reports.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "flow/source_table.h"
#include "net/packet.h"

namespace exiot::flow {

struct DetectorConfig {
  /// Minimum packets before a source is declared a scanner (paper: 100).
  int scanner_packet_threshold = 100;
  /// Maximum inter-arrival gap inside a pending flow (paper: 300 s); a
  /// larger gap resets the pending state.
  TimeMicros max_gap = seconds(300);
  /// Minimum flow duration — excludes misconfiguration bursts (paper: 1 min).
  TimeMicros min_duration = minutes(1);
  /// Packets sampled (full header field list) after detection (paper: 200).
  int sample_count = 200;
  /// Idle time after which an hour-boundary sweep ends the flow (paper: 1 h).
  TimeMicros flow_expiry = kMicrosPerHour;
};

/// End-of-flow statistics shipped with the END_FLOW control message.
struct FlowSummary {
  Ipv4 src;
  TimeMicros first_seen = 0;
  TimeMicros detect_time = 0;
  TimeMicros last_seen = 0;
  std::uint64_t total_packets = 0;  // Including pre-detection packets.
};

/// The packet-level report the module emits every (virtual) second.
struct SecondReport {
  TimeMicros second_start = 0;
  std::uint64_t total = 0;
  std::uint64_t tcp = 0;
  std::uint64_t udp = 0;
  std::uint64_t icmp = 0;
  std::uint64_t backscatter_filtered = 0;
  std::uint64_t new_scanners = 0;
  /// Packets targeting each of the configured report ports this second.
  std::unordered_map<std::uint16_t, std::uint64_t> per_port;
};

/// Event sinks. Any callback may be left empty.
struct DetectorEvents {
  /// A source crossed the scan thresholds.
  std::function<void(const FlowSummary&)> on_scanner;
  /// The 200-packet sample for a detected scanner is complete.
  std::function<void(Ipv4 src, const std::vector<net::Packet>&)> on_sample;
  /// A detected scanner's flow expired (END_FLOW).
  std::function<void(const FlowSummary&)> on_flow_end;
  /// Per-second packet-level report.
  std::function<void(const SecondReport&)> on_report;
};

/// Aggregate counters over the detector's lifetime.
struct DetectorStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t backscatter_filtered = 0;
  std::uint64_t scanners_detected = 0;
  std::uint64_t samples_completed = 0;
  std::uint64_t flows_ended = 0;
  std::uint64_t pending_resets = 0;  // Pending flows reset by a >300s gap.
};

class FlowDetector {
 public:
  FlowDetector(DetectorConfig config, DetectorEvents events,
               std::vector<std::uint16_t> report_ports = {});

  /// Processes one telescope packet — the only way a packet enters
  /// detection. Packets must arrive in non-decreasing timestamp order (the
  /// capture is time-sorted).
  void process(const net::Packet& pkt);

  /// The paper runs the expiry sweep between hours: flushes the open
  /// per-second report (the last second of the hour must not lag into the
  /// next hour), then ends every detected flow idle for more than
  /// `flow_expiry` and drops stale pending state. Expiry events are
  /// emitted in ascending source order (deterministic across shard counts
  /// and hash-table layouts).
  void end_of_hour(TimeMicros now);

  /// Flushes everything (end of run): emits END_FLOW for all detected
  /// flows and the final partial second report.
  void finish();

  const DetectorStats& stats() const { return stats_; }
  std::size_t tracked_sources() const { return table_.size(); }

 private:
  struct SourceState {
    TimeMicros first_seen = 0;
    TimeMicros last_seen = 0;
    TimeMicros detect_time = 0;
    std::uint64_t packets = 0;
    std::uint64_t packets_at_detect = 0;
    bool is_scanner = false;
    bool sample_done = false;
    std::vector<net::Packet> sample;
  };

  void roll_second(TimeMicros ts);
  /// Ships the open per-second report (if any) and resets it.
  void flush_report();
  /// Emits sample/END_FLOW events for the given sources in ascending
  /// source order.
  void expire(std::vector<std::pair<std::uint32_t, SourceState>> expired);
  void end_flow(Ipv4 src, SourceState& state);

  /// Copies the flat per-port counters into the open report's map (the
  /// published SecondReport keeps its map shape) and zeroes them.
  void materialize_per_port();

  DetectorConfig config_;
  DetectorEvents events_;
  std::vector<std::uint16_t> report_ports_;
  /// report_port_index_[p] is the counter index of report port p, or -1 —
  /// O(1) membership on the per-packet path (the linear scan showed up in
  /// profiles), and the flat counter replaces a per-packet map increment:
  /// port_counts_ accumulates during the second and is materialized into
  /// SecondReport::per_port only when the report ships.
  std::vector<std::int32_t> report_port_index_;
  std::vector<std::uint64_t> port_counts_;
  /// Open-addressing table keyed by source address: the per-packet
  /// find-or-insert is the detect stage's hottest load, and the flat
  /// layout avoids unordered_map's node chase.
  SourceTable<SourceState> table_;
  DetectorStats stats_;
  SecondReport current_report_;
  bool report_open_ = false;
};

}  // namespace exiot::flow
