#include "inet/population.h"

#include <algorithm>
#include <cmath>

namespace exiot::inet {

std::string to_string(HostClass c) {
  switch (c) {
    case HostClass::kInfectedIot: return "infected_iot";
    case HostClass::kInfectedGeneric: return "infected_generic";
    case HostClass::kBenignScanner: return "benign_scanner";
    case HostClass::kMisconfigured: return "misconfigured";
    case HostClass::kBackscatterVictim: return "backscatter_victim";
  }
  return "?";
}

PopulationConfig PopulationConfig::scaled(double factor) const {
  PopulationConfig c = *this;
  auto scale = [factor](int n) {
    return std::max(1, static_cast<int>(std::lround(n * factor)));
  };
  c.iot_per_day = scale(iot_per_day);
  c.generic_per_day = scale(generic_per_day);
  c.benign_per_day = scale(benign_per_day);
  c.misconfig_per_day = scale(misconfig_per_day);
  c.victims_per_day = scale(victims_per_day);
  return c;
}

namespace {

const char* kBenignRdns[] = {
    "census1.shodan.io",
    "scanner-05.censys-scanner.com",
    "researchscan041.eecs.umich.edu",
    "scan-09.sonar.rapid7.com",
    "nerd-scan.cesnet.cz",
    "internet-census.binaryedge.ninja",
};

/// Sessions for an ordinary scanner: one active window per appearance day,
/// exponential length capped to the day.
Session make_scan_session(Rng& rng, int day, double mean_seconds,
                          double rate) {
  Session s;
  const TimeMicros day_start = day * kMicrosPerDay;
  s.start = day_start + static_cast<TimeMicros>(
                            rng.next_double() * 0.9 * kMicrosPerDay);
  const double len = std::min(rng.exponential(1.0 / mean_seconds),
                              36.0 * 3600.0);
  // Sessions must be long enough that the TRW minimums (100 packets, 1 min
  // duration) are reachable for the typical host; short draws happen and
  // correctly go undetected.
  s.end = s.start + static_cast<TimeMicros>(std::max(len, 90.0) *
                                            kMicrosPerSecond);
  s.rate = rate;
  return s;
}

}  // namespace

Population Population::generate(const PopulationConfig& config,
                                const WorldModel& world) {
  Population pop;
  pop.roster_ = BehaviorRoster::standard();
  pop.catalog_ = DeviceCatalog::standard();
  Rng rng(config.seed);

  auto unique_address = [&](const AsInfo& as, Rng& r) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      Ipv4 addr = world.random_address(as, r);
      if (!pop.by_addr_.contains(addr.value())) return addr;
    }
    // Extremely unlikely at simulated scales; fall back to a linear scan.
    for (std::uint64_t i = 0;; ++i) {
      Ipv4 addr = world.random_address(as, r);
      if (!pop.by_addr_.contains(addr.value())) return addr;
      (void)i;
    }
  };

  auto add_host = [&](Host host) {
    host.id = static_cast<int>(pop.hosts_.size());
    pop.by_addr_.emplace(host.addr.value(), host.id);
    pop.hosts_.push_back(std::move(host));
  };

  for (int day = 0; day < config.days; ++day) {
    // Infected IoT cohort.
    for (int i = 0; i < config.iot_per_day; ++i) {
      Host h;
      h.cls = HostClass::kInfectedIot;
      const AsInfo& as = world.sample_iot_as(rng);
      h.asn = as.asn;
      h.addr = unique_address(as, rng);
      h.behavior_index = static_cast<int>(
          rng.weighted_index(pop.roster_.iot_weights));
      h.behavior_is_iot = true;
      const ScanBehavior& b = pop.roster_.iot_families[h.behavior_index];
      // Device model; catalog sampling is vendor-frequency weighted.
      const DeviceModel& dev = pop.catalog_.sample(rng);
      h.device_index = static_cast<int>(&dev - pop.catalog_.models().data());
      h.responds_banner = rng.bernoulli(config.iot_banner_response);
      h.banner_scrubbed =
          h.responds_banner &&
          !rng.bernoulli(config.iot_banner_textual_given_response);
      const double rate =
          std::min(rng.pareto(b.rate_scale, b.rate_shape), b.rate_cap);
      h.sessions.push_back(
          make_scan_session(rng, day, b.mean_session_seconds, rate));
      h.seed = rng.next_u64();
      // Sparse PTR records for residential space.
      if (rng.bernoulli(0.35)) {
        h.rdns = "host-" + std::to_string(h.addr.value() & 0xFFFF) +
                 ".pool.example-isp.net";
      }
      add_host(std::move(h));
    }

    // Infected generic cohort.
    for (int i = 0; i < config.generic_per_day; ++i) {
      Host h;
      h.cls = HostClass::kInfectedGeneric;
      const AsInfo& as = world.sample_generic_as(rng);
      h.asn = as.asn;
      h.addr = unique_address(as, rng);
      h.behavior_index = static_cast<int>(
          rng.weighted_index(pop.roster_.generic_weights));
      h.behavior_is_iot = false;
      const ScanBehavior& b = pop.roster_.generic_families[h.behavior_index];
      h.responds_banner = rng.bernoulli(config.generic_banner_response);
      h.banner_scrubbed = false;
      const double rate =
          std::min(rng.pareto(b.rate_scale, b.rate_shape), b.rate_cap);
      h.sessions.push_back(
          make_scan_session(rng, day, b.mean_session_seconds, rate));
      h.seed = rng.next_u64();
      if (rng.bernoulli(0.25)) {
        h.rdns = "vps" + std::to_string(h.addr.value() % 99999) +
                 ".example-host.net";
      }
      add_host(std::move(h));
    }

    // Benign research scanners: ZMap-style blasting with honest PTR records.
    for (int i = 0; i < config.benign_per_day; ++i) {
      Host h;
      h.cls = HostClass::kBenignScanner;
      const AsInfo& as = world.sample_generic_as(rng);
      h.asn = as.asn;
      h.addr = unique_address(as, rng);
      // Benign scanners use the zmap behaviour slot.
      for (std::size_t f = 0; f < pop.roster_.generic_families.size(); ++f) {
        if (pop.roster_.generic_families[f].family == "zmap") {
          h.behavior_index = static_cast<int>(f);
        }
      }
      h.behavior_is_iot = false;
      h.responds_banner = true;
      h.rdns = kBenignRdns[rng.next_below(std::size(kBenignRdns))];
      h.sessions.push_back(make_scan_session(rng, day, 4 * 3600.0,
                                             std::min(rng.pareto(2.0, 1.5),
                                                      40.0)));
      h.seed = rng.next_u64();
      add_host(std::move(h));
    }

    // Misconfigured nodes: bursts too short / too small for the detector.
    for (int i = 0; i < config.misconfig_per_day; ++i) {
      Host h;
      h.cls = HostClass::kMisconfigured;
      const AsInfo& as = world.sample_generic_as(rng);
      h.asn = as.asn;
      h.addr = unique_address(as, rng);
      Session s;
      s.start = day * kMicrosPerDay +
                static_cast<TimeMicros>(rng.next_double() * kMicrosPerDay);
      const double len = rng.uniform(5.0, 45.0);
      s.end = s.start + static_cast<TimeMicros>(len * kMicrosPerSecond);
      if (rng.bernoulli(0.3)) {
        // Fast burst: enough packets to pass a bare count threshold but
        // too short-lived to be a real scan — what the 1-minute duration
        // floor exists to exclude.
        s.rate = rng.uniform(120.0, 300.0) / len;
      } else {
        // Trickle: total packets stay below the 100-packet threshold.
        s.rate = rng.uniform(0.3, 80.0 / len);
      }
      h.sessions.push_back(s);
      h.seed = rng.next_u64();
      add_host(std::move(h));
    }

    // DDoS victims: backscatter sprayed across the telescope.
    for (int i = 0; i < config.victims_per_day; ++i) {
      Host h;
      h.cls = HostClass::kBackscatterVictim;
      const AsInfo& as = world.sample_generic_as(rng);
      h.asn = as.asn;
      h.addr = unique_address(as, rng);
      Session s;
      s.start = day * kMicrosPerDay +
                static_cast<TimeMicros>(rng.next_double() * kMicrosPerDay);
      s.end = s.start + static_cast<TimeMicros>(
                            rng.uniform(60.0, 7200.0) * kMicrosPerSecond);
      s.rate = std::min(rng.pareto(0.5, 1.2), 200.0);
      h.sessions.push_back(s);
      h.seed = rng.next_u64();
      add_host(std::move(h));
    }

    // Reappearances: infected hosts from earlier days get a fresh session,
    // keeping their address (Table V's ~16% instance redundancy).
    if (day > 0) {
      const std::size_t prior = pop.hosts_.size();
      for (std::size_t idx = 0; idx < prior; ++idx) {
        Host& h = pop.hosts_[idx];
        if (h.cls != HostClass::kInfectedIot &&
            h.cls != HostClass::kInfectedGeneric) {
          continue;
        }
        if (h.sessions.back().start >= day * kMicrosPerDay) continue;
        if (!rng.bernoulli(config.reappear_prob)) continue;
        const ScanBehavior* b = pop.behavior_of(h);
        const double rate =
            std::min(rng.pareto(b->rate_scale, b->rate_shape), b->rate_cap);
        h.sessions.push_back(
            make_scan_session(rng, day, b->mean_session_seconds, rate));
      }
    }
  }
  return pop;
}

const ScanBehavior* Population::behavior_of(const Host& host) const {
  if (host.behavior_index < 0) return nullptr;
  const auto idx = static_cast<std::size_t>(host.behavior_index);
  return host.behavior_is_iot ? &roster_.iot_families[idx]
                              : &roster_.generic_families[idx];
}

const DeviceModel* Population::device_of(const Host& host) const {
  if (host.device_index < 0) return nullptr;
  return &catalog_.models()[static_cast<std::size_t>(host.device_index)];
}

const Host* Population::find(Ipv4 addr) const {
  auto it = by_addr_.find(addr.value());
  return it == by_addr_.end() ? nullptr : &hosts_[it->second];
}

int Population::inject_host(Host host) {
  host.id = static_cast<int>(hosts_.size());
  by_addr_.emplace(host.addr.value(), host.id);
  hosts_.push_back(std::move(host));
  return hosts_.back().id;
}

std::unordered_map<HostClass, int> Population::count_by_class() const {
  std::unordered_map<HostClass, int> counts;
  for (const auto& h : hosts_) counts[h.cls]++;
  return counts;
}

}  // namespace exiot::inet
