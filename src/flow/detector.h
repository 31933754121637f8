// The "Flow detection and packet sampling" module of Figure 2: the C++
// program that runs on the CAIDA cluster. It filters backscatter, tracks
// per-source flow state in a hash table keyed by source IP (the paper's
// GLib hashtable), applies the TRW-derived operational thresholds (>=100
// packets, inter-arrival <= 300 s, duration >= 1 min), samples the next 200
// packets after detection, expires idle flows at hour boundaries (emitting
// END_FLOW), and publishes per-second packet-level reports.
//
// Per packet it costs one table probe into a 40-byte plain-data state and
// one flat port counter; per second it refills one reused report; per hour
// one in-place pass over the table that collects only scanners, the only
// sources that emit events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>
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

/// Per-port packet counts of one report: (port, count) pairs in ascending
/// port order; the detector omits zero counts. Reads like a
/// std::map<port, count> (iteration, operator[], at, count), but is one
/// flat array the detector refills every second without allocating.
class PortCounts {
 public:
  using value_type = std::pair<std::uint16_t, std::uint64_t>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Drops the entries, keeping the storage.
  void clear() { entries_.clear(); }

  /// The count of `port`, inserted as 0 when absent (std::map semantics).
  /// Appending in ascending port order — the detector's fill — is O(1).
  std::uint64_t& operator[](std::uint16_t port) {
    if (entries_.empty() || entries_.back().first < port) {
      return entries_.emplace_back(port, 0).second;
    }
    const auto it = lower_bound(port);  // Not end(): back() >= port.
    if (it->first == port) {
      return entries_[static_cast<std::size_t>(it - begin())].second;
    }
    return entries_.emplace(it, port, 0)->second;
  }

  /// The count of `port`; throws std::out_of_range when absent.
  const std::uint64_t& at(std::uint16_t port) const {
    const auto it = lower_bound(port);
    if (it == end() || it->first != port) {
      throw std::out_of_range("PortCounts::at: port not present");
    }
    return it->second;
  }

  std::size_t count(std::uint16_t port) const {
    const auto it = lower_bound(port);
    return it != end() && it->first == port ? 1 : 0;
  }

 private:
  const_iterator lower_bound(std::uint16_t port) const {
    return std::lower_bound(
        begin(), end(), port,
        [](const value_type& e, std::uint16_t p) { return e.first < p; });
  }

  std::vector<value_type> entries_;
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
  /// Packets targeting each of the configured report ports this second
  /// (ports with no packet are absent).
  PortCounts per_port;
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
  /// Sample buffers allocated so far. A finished or expired sample's
  /// buffer is reused by the next detection, so this is the most scanners
  /// that were sampling at once — the bound on retained sample memory.
  std::size_t sample_buffers() const { return samples_.size(); }

 private:
  /// Per-source flow state. Plain data, so the table copies and tombstones
  /// it as bytes; a detected scanner's sample lives in `samples_`, at
  /// `sample_slot` while `!sample_done`.
  struct SourceState {
    TimeMicros first_seen = 0;
    TimeMicros last_seen = 0;
    TimeMicros detect_time = 0;
    std::uint64_t packets = 0;
    std::uint32_t sample_slot = 0;
    bool is_scanner = false;
    bool sample_done = false;
  };
  static_assert(std::is_trivially_copyable_v<SourceState>);
  static_assert(sizeof(SourceState) <= 40);

  using Expired = std::vector<std::pair<std::uint32_t, SourceState>>;

  void roll_second(TimeMicros ts);
  /// Ships the open per-second report (if any) and closes it.
  void flush_report();
  /// Emits sample/END_FLOW events for the given scanners in ascending
  /// source order and releases their sample buffers.
  void end_flows(Expired& scanners);
  void end_flow(Ipv4 src, const SourceState& state);
  /// A cleared sample buffer: a released one if any, else a new one.
  std::uint32_t acquire_sample();
  /// Clears a sample buffer (keeping its capacity) for the next detection.
  void release_sample(std::uint32_t slot);

  /// Appends the non-zero flat per-port counters, in ascending port order,
  /// to the open report and zeroes them.
  void materialize_per_port();

  DetectorConfig config_;
  DetectorEvents events_;
  /// Report ports, sorted and de-duplicated at construction.
  std::vector<std::uint16_t> report_ports_;
  /// report_port_index_[p] is the index of report port p in report_ports_
  /// and port_counts_, or -1 — O(1) membership on the per-packet path (the
  /// linear scan showed up in profiles), and the flat counter replaces a
  /// per-packet map increment: port_counts_ accumulates during the second
  /// and is materialized into SecondReport::per_port only when the report
  /// ships.
  std::vector<std::int32_t> report_port_index_;
  std::vector<std::uint64_t> port_counts_;
  /// Open-addressing table keyed by source address: the per-packet
  /// find-or-insert is the detect stage's hottest load, and the flat
  /// layout avoids unordered_map's node chase.
  SourceTable<SourceState> table_;
  /// Sample buffers, addressed by SourceState::sample_slot; free_samples_
  /// lists the released ones.
  std::vector<std::vector<net::Packet>> samples_;
  std::vector<std::uint32_t> free_samples_;
  DetectorStats stats_;
  /// The open report; its per_port storage is reused across seconds.
  SecondReport current_report_;
  bool report_open_ = false;
  /// A packet with ts in [current_report_.second_start, open_end_) belongs
  /// to the open second and skips the roll; the window is empty while no
  /// report is open.
  TimeMicros open_end_ = std::numeric_limits<TimeMicros>::min();
};

}  // namespace exiot::flow
