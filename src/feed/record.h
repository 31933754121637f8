// The eX-IoT CTI record: everything the feed publishes about one detected
// scanning source — classification (IoT / non-IoT / Benign) with score,
// device identity when banners allowed it, tool fingerprint, enrichment
// context (geo, ASN/ISP, WHOIS organization and sector, rDNS), flow
// statistics, and the scan lifecycle timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "json/json.h"

namespace exiot::feed {

/// Classification labels a record can carry.
inline constexpr const char* kLabelIot = "IoT";
inline constexpr const char* kLabelNonIot = "non-IoT";
inline constexpr const char* kLabelBenign = "Benign";
inline constexpr const char* kLabelUnlabeled = "unlabeled";

struct CtiRecord {
  // Identity and lifecycle.
  Ipv4 src;
  TimeMicros scan_start = 0;    // First packet of the flow (telescope time).
  TimeMicros detect_time = 0;   // TRW detection instant.
  TimeMicros scan_end = 0;      // 0 while the scan is still active.
  TimeMicros published_at = 0;  // When the record became visible in the feed.
  bool active = true;

  // Classification.
  std::string label = kLabelUnlabeled;
  double score = 0.0;           // The classifier's prediction score in [0,1].
  std::string tool;             // "Mirai", "Zmap", ..., "unknown".

  // Device identity (from banner fingerprinting; empty when unavailable).
  std::string vendor;
  std::string device_type;
  std::string model;
  std::string firmware;
  std::vector<std::uint16_t> open_ports;
  bool banner_returned = false;

  // Enrichment.
  std::string country;
  std::string country_code;
  std::string continent;
  double latitude = 0.0;
  double longitude = 0.0;
  std::uint32_t asn = 0;
  std::string isp;
  std::string organization;
  std::string sector;
  std::string rdns;
  std::string abuse_email;

  // Flow statistics.
  double scan_rate = 0.0;
  double address_repetition = 1.0;
  std::vector<std::pair<std::uint16_t, int>> targeted_ports;

  json::Value to_json() const;
  static CtiRecord from_json(const json::Value& doc);
};

}  // namespace exiot::feed
