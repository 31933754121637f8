// The world model: a synthetic allocation of the IPv4 space to autonomous
// systems, ISPs, countries, and organizational sectors. It substitutes for
// the proprietary registries the paper consumes (MaxMind GeoIP, WHOIS,
// rDNS) while letting every downstream join (enrichment, Table V roll-ups)
// run against consistent data. The AS/country weights are calibrated to the
// marginals the paper reports in Table V.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace exiot::inet {

enum class Continent {
  kAsia,
  kEurope,
  kNorthAmerica,
  kSouthAmerica,
  kAfrica,
  kOceania,
};

std::string to_string(Continent c);

/// Organizational sector of the entity hosting an address. The paper flags
/// compromised IoT inside critical sectors (Table V, "Critical Sector").
enum class Sector {
  kResidential,
  kEducation,
  kManufacturing,
  kGovernment,
  kBanking,
  kMedical,
  kTechnology,
  kHosting,
};

std::string to_string(Sector s);

/// One autonomous system: routing identity plus the metadata enrichment
/// returns for addresses inside its prefixes.
struct AsInfo {
  std::uint32_t asn = 0;
  std::string isp;
  std::string country;       // ISO-like short name ("China", "Brazil", ...)
  std::string country_code;  // Two-letter code ("CN", "BR", ...)
  Continent continent = Continent::kAsia;
  std::vector<Cidr> prefixes;
  /// Relative share of the world's infected IoT population hosted here
  /// (drives sampling; calibrated to Table V's ASN column).
  double iot_weight = 0.0;
  /// Relative share of generic (non-IoT) scanning hosts.
  double generic_weight = 0.0;
};

/// The world model. Construction is deterministic given the seed.
class WorldModel {
 public:
  /// Builds the standard world: ~40 ASes over ~25 countries with Table V
  /// calibrated weights. `telescope` is excluded from every allocation so
  /// no simulated host lives inside the darknet aperture.
  static WorldModel standard(Cidr telescope, std::uint64_t seed = 1);

  const std::vector<AsInfo>& ases() const { return ases_; }

  /// Longest-prefix-match lookup (all prefixes are /16 so an exact map
  /// applies). Returns nullptr for unallocated space.
  const AsInfo* lookup(Ipv4 addr) const;

  /// Samples an AS for a new infected-IoT host (Table V weighting) or a
  /// generic scanning host.
  const AsInfo& sample_iot_as(Rng& rng) const;
  const AsInfo& sample_generic_as(Rng& rng) const;

  /// Uniformly samples an address inside the AS's prefixes.
  Ipv4 random_address(const AsInfo& as, Rng& rng) const;

  /// Samples the hosting sector for an address. Residential dominates; the
  /// critical sectors appear with small probabilities as in Table V.
  Sector sample_sector(Rng& rng) const;

  /// Deterministic per-address sector: hashes the address so the same IP
  /// always lands in the same sector across modules.
  Sector sector_of(Ipv4 addr) const;

  /// Synthesizes an organization name for an address given its sector and
  /// AS (used by the WHOIS substitute).
  std::string organization_name(Ipv4 addr) const;

 private:
  std::vector<AsInfo> ases_;
  std::vector<double> iot_weights_;
  std::vector<double> generic_weights_;
  // Maps first-16-bit prefix -> AS index for O(1) lookup.
  std::vector<std::int32_t> prefix_to_as_;
};

}  // namespace exiot::inet
