// The Packet Organizer of Figure 2: receives sampled packets from all
// sources, groups them by source and arrival time, and drops sources whose
// samples are too small to use — "typically sources that have been
// erroneously identified as scanners and may be the result of node
// malfunction" (short bursts). Output is a JSON-packed bundle per source.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "json/json.h"
#include "net/packet.h"
#include "obs/metrics.h"

namespace exiot::pipeline {

struct OrganizerConfig {
  /// Minimum usable sample size; smaller bundles are discarded.
  std::size_t min_samples = 20;
};

struct ScannerBundle {
  Ipv4 src;
  std::vector<net::Packet> sample;  // Time-ordered.
  TimeMicros first_sample_ts = 0;
  TimeMicros last_sample_ts = 0;
};

class PacketOrganizer {
 public:
  explicit PacketOrganizer(OrganizerConfig config = {},
                           obs::MetricsRegistry* metrics = nullptr);

  /// Organizes one source's sample. Returns nullopt when the sample is too
  /// small to use (the source is dropped and counted).
  std::optional<ScannerBundle> organize(Ipv4 src,
                                        std::vector<net::Packet> sample);

  /// JSON packing of a bundle (the inter-module wire format of Figure 2).
  static json::Value to_json(const ScannerBundle& bundle);

 private:
  OrganizerConfig config_;
  obs::Counter* organized_c_;
  obs::Counter* dropped_c_;
  obs::Histogram* sample_size_h_;
};

}  // namespace exiot::pipeline
