#include "pipeline/federation.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace exiot::pipeline {

FederationStage::FederationStage(FederationConfig config,
                                 obs::MetricsRegistry* metrics)
    : config_(config) {
  if (!telescope::is_power_of_two(config_.num_sites) ||
      config_.num_sites > kMaxSites) {
    throw std::invalid_argument(
        "federation: num_sites must be a power of two in 1.." +
        std::to_string(kMaxSites) + ", got " +
        std::to_string(config_.num_sites));
  }
  const int bits = std::countr_zero(static_cast<unsigned>(config_.num_sites));
  if (config_.telescope.prefix_len() + bits > 32) {
    throw std::invalid_argument(
        "federation: " + std::to_string(config_.num_sites) +
        " sites split " + config_.telescope.to_string() +
        " finer than a /32");
  }
  active_ = config_.active_sites <= 0
                ? config_.num_sites
                : std::min(config_.active_sites, config_.num_sites);

  const std::vector<Cidr> apertures =
      telescope::partition_aperture(config_.telescope, config_.num_sites);
  site_shift_ = static_cast<std::uint32_t>(
      32 - config_.telescope.prefix_len() - bits);

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  for (int i = 0; i < config_.num_sites; ++i) {
    SiteSpec spec =
        static_cast<std::size_t>(i) < config_.sites.size()
            ? config_.sites[static_cast<std::size_t>(i)]
            : SiteSpec{};
    telescope::SiteInfo info;
    info.name = "site" + std::to_string(i);
    info.aperture = apertures[static_cast<std::size_t>(i)];
    sites_.push_back(info);
    tunnels_.push_back(std::make_unique<ReconnectingTunnel>(
        spec.reconnect_delay, metrics, info.name));
    for (const auto& [from, to] : spec.outages) {
      tunnels_.back()->schedule_outage(from, to);
    }
    packets_c_.push_back(&reg.counter(
        "exiot_federation_packets_total",
        "Packets captured per sensor site's aperture.",
        obs::Labels{{"site", info.name}}));
  }
  site_counts_.assign(static_cast<std::size_t>(config_.num_sites), 0);
  dropped_c_ = &reg.counter(
      "exiot_federation_dropped_total",
      "Packets landing in dark (inactive) site apertures, dropped.");
  sites_g_ = &reg.gauge("exiot_federation_active_sites",
                        "Sensor sites currently capturing.");
  multi_sensor_g_ = &reg.gauge(
      "exiot_federation_multi_sensor_sources",
      "Distinct sources sighted by two or more sensors (deduped into one "
      "feed record each).");
  sites_g_->set(static_cast<double>(active_));
}

std::size_t FederationStage::run_window(const BatchSource& source,
                                        const BatchFn& sink) {
  if (config_.num_sites == 1) {
    // Single-telescope path: the one site is the whole aperture — forward
    // batches untouched and count the window's packets in one add.
    const std::size_t forwarded = source(sink);
    packets_c_[0]->inc(forwarded);
    return forwarded;
  }
  // With every site active nothing is dropped and the input batch itself
  // is forwarded; otherwise the surviving rows are copied out in input
  // order. Either way the stream keeps the canonical order.
  const bool filtering = active_ < config_.num_sites;
  const auto active = static_cast<std::size_t>(active_);
  std::size_t forwarded = 0;
  std::uint64_t dropped = 0;
  source([&](const net::PacketBatch& batch) {
    std::fill(site_counts_.begin(), site_counts_.end(), 0);
    if (filtering) out_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const net::Packet& pkt = batch[i];
      const std::size_t site = site_of(pkt.dst.value());
      if (site >= active) {
        ++dropped;
        continue;  // Dark aperture: nobody is listening there.
      }
      ++site_counts_[site];
      std::uint64_t& sites = site_masks_.find_or_insert(pkt.src.value());
      const std::uint64_t with_site = sites | (std::uint64_t{1} << site);
      // A second site: one more source deduped across sensors.
      if (with_site != sites && std::has_single_bit(sites)) {
        ++multi_sensor_sources_;
      }
      sites = with_site;
      if (filtering) out_.push_back(pkt);
    }
    for (std::size_t s = 0; s < site_counts_.size(); ++s) {
      if (site_counts_[s] != 0) packets_c_[s]->inc(site_counts_[s]);
    }
    const net::PacketBatch& out = filtering ? out_ : batch;
    if (!out.empty()) {
      forwarded += out.size();
      sink(out);
    }
  });
  if (dropped != 0) dropped_c_->inc(dropped);
  multi_sensor_g_->set(static_cast<double>(multi_sensor_sources_));
  return forwarded;
}

TimeMicros FederationStage::deliver_event(Ipv4 src, TimeMicros sent_at) {
  std::uint64_t sites = sites_of(src);
  if (sites == 0) return tunnels_[0]->deliver(sent_at);
  TimeMicros at = sent_at;
  for (; sites != 0; sites &= sites - 1) {
    at = std::max(at, tunnels_[std::countr_zero(sites)]->deliver(sent_at));
  }
  return at;
}

std::uint64_t FederationStage::sites_of(Ipv4 src) const {
  const std::uint64_t* sites = site_masks_.find(src.value());
  return sites != nullptr ? *sites : 0;
}

}  // namespace exiot::pipeline
