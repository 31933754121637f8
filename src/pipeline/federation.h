// The telescope federation stage: N sensor sites, each monitoring one
// sub-prefix of the telescope aperture through its own reconnecting
// tunnel, aggregated into the single deterministic packet stream the
// sharded ingest consumes.
//
// Placement: between the producer (canonical traffic synthesis against
// the full aperture) and the threaded ingest. The stage is a stable
// filter: one pass over each canonical batch's rows attributes every row
// to the site whose sub-prefix its destination lands in, sets that site's
// bit in the source's site mask, and drops the row if that site is dark
// (inactive). The surviving rows go downstream in input order; with every
// site active that is the input batch itself. The union of all sites is
// the canonical stream, so the forwarded feed is byte-identical for any
// site count — whatever the input order, including replayed captures
// whose timestamps step back — and the federation determinism matrix
// (tests/federation_test.cpp) asserts it against the producers x shards
// grid.
//
// The site-mask ledger (one 64-bit mask per source in a
// flow::SourceTable) is all the federation keeps per source: detector
// events (SCANNER / SAMPLE / END_FLOW) ship to the aggregator over the
// tunnel of every site whose bit is set, and the event is actionable once
// the last copy arrives (max of the per-site delivery times). With one
// site this degenerates to the legacy single-tunnel behavior exactly.
//
// Single-site fast path: num_sites == 1 forwards batches untouched — no
// attribution, no ledger, one counter add per window — so the
// single-telescope pipeline pays nothing for the federation layer
// existing. Every site count labels its packet and tunnel series with the
// site name (`site0` for the single telescope).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "flow/source_table.h"
#include "net/batch.h"
#include "obs/metrics.h"
#include "pipeline/tunnel.h"
#include "telescope/site.h"

namespace exiot::pipeline {

/// Per-site configuration overrides (index-matched to sites; missing
/// entries take the defaults).
struct SiteSpec {
  /// This site's tunnel re-establishment delay after an outage.
  TimeMicros reconnect_delay = seconds(5);
  /// Tunnel outages [from, to) to inject at construction.
  std::vector<std::pair<TimeMicros, TimeMicros>> outages;
};

struct FederationConfig {
  /// The full telescope prefix the canonical synthesis runs against.
  Cidr telescope{Ipv4(44, 0, 0, 0), 8};
  /// Sensor sites the aperture is carved into (a power of two in
  /// 1..FederationStage::kMaxSites, and prefix_len + log2(num_sites) <= 32;
  /// 1 = the single-telescope legacy path).
  int num_sites = 1;
  /// Sites actually capturing (first `active_sites` of the partition;
  /// 0 = all). Fewer active sites shrink the effective aperture — the
  /// marginal-aperture experiment's knob (bench_federation).
  int active_sites = 0;
  /// Per-site overrides, index-matched.
  std::vector<SiteSpec> sites;
};

class FederationStage {
 public:
  using BatchFn = std::function<void(const net::PacketBatch&)>;
  using BatchSource = std::function<std::size_t(const BatchFn&)>;

  /// Most sites a federation carves: the width of a source's site mask.
  static constexpr int kMaxSites = std::numeric_limits<std::uint64_t>::digits;

  /// Throws std::invalid_argument when `config.num_sites` is not a power
  /// of two in 1..kMaxSites, or splits the telescope finer than a /32.
  FederationStage(FederationConfig config,
                  obs::MetricsRegistry* metrics = nullptr);

  /// Streams one window: pulls canonical batches from `source`, sets each
  /// row's site bit in its source's mask, and forwards the rows of the
  /// active apertures to `sink` in input order. Returns the number of
  /// packets forwarded.
  std::size_t run_window(const BatchSource& source, const BatchFn& sink);

  /// Delivery time of a detector event about `src` sent at `sent_at`: the
  /// event crosses the tunnel of every site in sites_of(src), in ascending
  /// site order, and is actionable when the last copy lands. A source no
  /// site captured (always, on the single-site fast path) uses site 0's
  /// tunnel — identical to the legacy single-tunnel pipeline.
  TimeMicros deliver_event(Ipv4 src, TimeMicros sent_at);

  /// The sites that captured `src` so far, as a mask (bit s = site s).
  /// 0 when none did, and always on the single-site fast path, which
  /// keeps no ledger.
  std::uint64_t sites_of(Ipv4 src) const;

  ReconnectingTunnel& tunnel(std::size_t site = 0) {
    return *tunnels_[site];
  }
  const telescope::SiteInfo& site(std::size_t i) const { return sites_[i]; }

 private:
  /// Which site's aperture `dst` lands in (a shift — apertures are equal
  /// consecutive power-of-two slices of the telescope prefix).
  std::size_t site_of(std::uint32_t dst) const {
    return (dst - config_.telescope.network().value()) >> site_shift_;
  }

  FederationConfig config_;
  int active_ = 1;
  std::uint32_t site_shift_ = 32;
  std::vector<telescope::SiteInfo> sites_;
  std::vector<std::unique_ptr<ReconnectingTunnel>> tunnels_;
  flow::SourceTable<std::uint64_t> site_masks_;  // Source -> its sites.
  std::uint64_t multi_sensor_sources_ = 0;
  net::PacketBatch out_;  // Surviving rows when a site is dark, reused.
  std::vector<std::uint64_t> site_counts_;  // Per-batch metric scratch.
  std::vector<obs::Counter*> packets_c_;    // Per-site captured packets.
  obs::Counter* dropped_c_;
  obs::Gauge* sites_g_;
  obs::Gauge* multi_sensor_g_;
};

}  // namespace exiot::pipeline
