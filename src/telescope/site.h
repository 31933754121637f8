// Telescope federation primitives: sensor-site apertures carved out of the
// canonical telescope prefix and per-source per-sensor sighting
// bookkeeping.
//
// The federation model keeps the determinism contract the single-telescope
// pipeline asserts: traffic is synthesized once against the full telescope
// aperture (the synthesizer's RNG consumption depends on the aperture, so
// per-site synthesis would diverge), and each site observes exactly the
// rows of the canonical stream that land in its sub-prefix. The
// aggregator's stream is the canonical one with the dark (inactive)
// apertures' rows filtered out, in input order — so with every site active
// it is byte-identical for any site count, which is what lets the
// federation determinism matrix compare feeds across {1, 2, 4} sites.
//
// Clock skew is site-local color, not stream order: a site stamps its copy
// of a packet with `canonical_ts + skew` for its own books (local
// first-seen attribution), while the aggregator keeps the canonical
// order — exactly how the real aggregator would order after NTP-style
// skew normalization.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/types.h"

namespace exiot::telescope {

/// One sensor site of the federated telescope.
struct SiteInfo {
  std::string name;       // "site0", "site1", ... (metric label, feed tag).
  Cidr aperture;          // The sub-prefix this sensor monitors.
  TimeMicros clock_skew;  // Site clock minus canonical clock.
};

/// Splits `telescope` into `n` equal consecutive sub-prefixes (n must be a
/// power of two, and prefix_len + log2(n) must stay <= 32). Site i covers
/// [network + i * size/n, network + (i+1) * size/n).
std::vector<Cidr> partition_aperture(Cidr telescope, int n);

/// True iff n is a power of two (the only site counts partition_aperture
/// accepts — keeps site demux a shift, not a division).
constexpr bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

/// Per-source, per-sensor sighting ledger: which sites saw a scanner, when
/// each first saw it (canonical clock), and how many of its
/// packets each aperture captured. Open-addressing table keyed by source
/// address (same Fibonacci-hash scheme as flow::SourceTable); per-source
/// data lives in flat stride-N arrays indexed by a stable row id, so
/// rehashes move 4-byte rows only.
class SightingTable {
 public:
  static constexpr TimeMicros kNever =
      std::numeric_limits<TimeMicros>::max();

  explicit SightingTable(std::size_t num_sites = 1);

  /// Resets the table for `num_sites` sensors.
  void reset(std::size_t num_sites);

  /// Records one packet from `src` captured by `site` at canonical time
  /// `ts`. The site's own clock read `ts + skew`; the skew is a per-site
  /// constant, so the ledger keeps only the canonical time.
  void record(std::uint32_t src, std::uint32_t site, TimeMicros ts);

  /// One sensor's view of one source.
  struct Sighting {
    std::uint32_t site = 0;
    TimeMicros first_seen = kNever;  // Canonical clock.
    std::uint64_t packets = 0;
  };

  /// The sightings of `src` in ascending site order (empty when the source
  /// was never captured). Read-only: safe to call while recording is
  /// quiescent.
  std::vector<Sighting> sightings_of(std::uint32_t src) const;

  /// Distinct sources captured by at least one sensor.
  std::uint64_t sources() const { return size_; }
  /// Sources captured by two or more sensors — the dedup work the
  /// aggregator saves the feed from double-reporting.
  std::uint64_t multi_sensor_sources() const {
    return multi_sensor_sources_;
  }

 private:
  static std::size_t hash(std::uint32_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }
  std::size_t capacity() const { return state_.size(); }
  void grow();
  /// Row id of `src`, or kNoRow when absent (const probe, no insert).
  std::uint32_t find_row(std::uint32_t src) const;

  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialCapacity = 1024;

  std::size_t num_sites_ = 1;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> rows_;  // Slot -> stable row id.
  std::size_t size_ = 0;
  std::uint64_t multi_sensor_sources_ = 0;
  // Stride-num_sites_ flat arrays indexed by row id * num_sites_ + site.
  std::vector<TimeMicros> first_seen_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint8_t> sites_seen_;  // Per row: distinct sensor count.
};

}  // namespace exiot::telescope
