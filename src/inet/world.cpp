#include "inet/world.h"

#include <algorithm>
#include <cstdio>

namespace exiot::inet {

std::string to_string(Continent c) {
  switch (c) {
    case Continent::kAsia: return "Asia";
    case Continent::kEurope: return "Europe";
    case Continent::kNorthAmerica: return "N. America";
    case Continent::kSouthAmerica: return "S. America";
    case Continent::kAfrica: return "Africa";
    case Continent::kOceania: return "Oceania";
  }
  return "?";
}

std::string to_string(Sector s) {
  switch (s) {
    case Sector::kResidential: return "Residential";
    case Sector::kEducation: return "Education";
    case Sector::kManufacturing: return "Manufacturing";
    case Sector::kGovernment: return "Government";
    case Sector::kBanking: return "Banking";
    case Sector::kMedical: return "Medical";
    case Sector::kTechnology: return "Technology";
    case Sector::kHosting: return "Hosting";
  }
  return "?";
}

namespace {

struct AsSpec {
  std::uint32_t asn;
  const char* isp;
  const char* country;
  const char* cc;
  Continent continent;
  double iot_weight;      // Table V calibrated share of infected IoT.
  double generic_weight;  // Share of generic scanning hosts.
  int num_prefixes;       // Number of /16 blocks to allocate.
};

// The registry is calibrated so that aggregating infected-IoT hosts by
// country / continent / ASN / ISP reproduces the Table V top-5 rows:
//   Countries: CN 43.46, IN 10.32, BR 8.48, IR 5.51, MX 3.52
//   Continents: Asia 73.31, S.America 10.82, Europe 8.62, N.America 5.57,
//               Africa 4.10
//   ASNs: 4134 (21.28), 4837 (16.45), 9829 (5.38), 27699 (4.96),
//         58244 (3.30)  — paired with ISPs China Telecom, Unicom Liaoning,
//         Vivo [BR], BSNL [IN], Axtel [MX] in the paper's row order.
constexpr AsSpec kAsSpecs[] = {
    // China: 43.46 total.
    {4134, "China Telecom", "China", "CN", Continent::kAsia, 21.28, 2.0, 12},
    {4837, "Unicom Liaoning", "China", "CN", Continent::kAsia, 16.45, 1.5, 9},
    {9808, "China Mobile", "China", "CN", Continent::kAsia, 3.40, 0.8, 3},
    {4538, "CERNET", "China", "CN", Continent::kAsia, 2.33, 0.5, 2},
    // Brazil: 8.48 total.
    {9829, "Vivo", "Brazil", "BR", Continent::kSouthAmerica, 5.38, 0.7, 4},
    {28573, "Claro BR", "Brazil", "BR", Continent::kSouthAmerica, 3.10, 0.5, 3},
    // India: 10.32 total.
    {27699, "BSNL", "India", "IN", Continent::kAsia, 4.96, 0.6, 4},
    {45609, "Airtel", "India", "IN", Continent::kAsia, 3.20, 0.5, 3},
    {55836, "Jio", "India", "IN", Continent::kAsia, 2.16, 0.4, 2},
    // Mexico: 3.52 total.
    {58244, "Axtel", "Mexico", "MX", Continent::kNorthAmerica, 3.30, 0.3, 3},
    {8151, "Telmex", "Mexico", "MX", Continent::kNorthAmerica, 0.22, 0.2, 1},
    // Iran: 5.51 total.
    {58224, "TCI", "Iran", "IR", Continent::kAsia, 3.60, 0.3, 3},
    {44244, "Irancell", "Iran", "IR", Continent::kAsia, 1.91, 0.2, 2},
    // Rest of Asia (brings Asia to 73.31).
    {7552, "Viettel", "Vietnam", "VN", Continent::kAsia, 2.90, 0.4, 3},
    {4766, "Korea Telecom", "South Korea", "KR", Continent::kAsia, 2.10, 0.6, 2},
    {3462, "HiNet", "Taiwan", "TW", Continent::kAsia, 1.80, 0.4, 2},
    {9121, "Turk Telekom", "Turkey", "TR", Continent::kAsia, 1.70, 0.3, 2},
    {17974, "Telkomnet", "Indonesia", "ID", Continent::kAsia, 1.60, 0.3, 2},
    {9737, "TOT", "Thailand", "TH", Continent::kAsia, 1.20, 0.2, 2},
    {17557, "PTCL", "Pakistan", "PK", Continent::kAsia, 1.00, 0.2, 1},
    // South America remainder (10.82 total).
    {10620, "Telmex Colombia", "Colombia", "CO", Continent::kSouthAmerica,
     1.20, 0.2, 1},
    {7303, "Telecom Argentina", "Argentina", "AR", Continent::kSouthAmerica,
     1.00, 0.2, 1},
    // Europe: 8.62 total.
    {12389, "Rostelecom", "Russia", "RU", Continent::kEurope, 2.20, 0.8, 2},
    {3320, "Deutsche Telekom", "Germany", "DE", Continent::kEurope, 1.35, 0.9,
     1},
    {3215, "Orange", "France", "FR", Continent::kEurope, 1.15, 0.7, 1},
    {12741, "Netia", "Poland", "PL", Continent::kEurope, 0.95, 0.3, 1},
    {8452, "TE Data EU", "Ukraine", "UA", Continent::kEurope, 0.95, 0.3, 1},
    {6830, "Liberty Global", "Netherlands", "NL", Continent::kEurope, 0.85,
     0.8, 1},
    {5610, "O2 Czech", "Czech Republic", "CZ", Continent::kEurope, 0.75, 0.3,
     1},
    // North America remainder (5.57 total).
    {7922, "Comcast", "United States", "US", Continent::kNorthAmerica, 0.85,
     3.0, 2},
    {701, "Verizon", "United States", "US", Continent::kNorthAmerica, 0.50,
     2.0, 1},
    {812, "Rogers", "Canada", "CA", Continent::kNorthAmerica, 0.28, 0.5, 1},
    // Africa: 4.10 total.
    {24863, "Link Egypt", "Egypt", "EG", Continent::kAfrica, 1.50, 0.2, 2},
    {36935, "Vodafone Egypt", "Egypt", "EG", Continent::kAfrica, 0.80, 0.1, 1},
    {37457, "Telkom SA", "South Africa", "ZA", Continent::kAfrica, 0.75, 0.2,
     1},
    {36903, "Maroc Telecom", "Morocco", "MA", Continent::kAfrica, 0.75, 0.1,
     1},
    // Oceania (tail).
    {1221, "Telstra", "Australia", "AU", Continent::kOceania, 0.23, 0.5, 1},
    // Hosting/cloud ASes: mostly generic scanners, few IoT.
    {16509, "Amazon AWS", "United States", "US", Continent::kNorthAmerica,
     0.05, 2.5, 2},
    {14061, "DigitalOcean", "United States", "US", Continent::kNorthAmerica,
     0.05, 2.0, 1},
    {24940, "Hetzner", "Germany", "DE", Continent::kEurope, 0.05, 1.5, 1},
    {16276, "OVH", "France", "FR", Continent::kEurope, 0.05, 1.5, 1},
};

}  // namespace

WorldModel WorldModel::standard(Cidr telescope, std::uint64_t seed) {
  WorldModel w;
  w.prefix_to_as_.assign(1 << 16, -1);
  Rng rng(seed);

  // Register the ASes first, then allocate their /16 blocks in a shuffled
  // interleaved order: real allocations are historical accretions, so one
  // registry's blocks are scattered across the space rather than
  // contiguous. (Contiguity would also let a single numeric split on the
  // src-IP feature capture a whole AS, over-crediting the classifier.)
  std::vector<std::size_t> slots;
  for (const AsSpec& spec : kAsSpecs) {
    AsInfo info;
    info.asn = spec.asn;
    info.isp = spec.isp;
    info.country = spec.country;
    info.country_code = spec.cc;
    info.continent = spec.continent;
    info.iot_weight = spec.iot_weight;
    info.generic_weight = spec.generic_weight;
    for (int i = 0; i < spec.num_prefixes; ++i) {
      slots.push_back(w.ases_.size());
    }
    w.ases_.push_back(std::move(info));
  }
  rng.shuffle(slots);

  std::uint32_t next_hi = 1 << 8;  // Start at 1.0.0.0 in /16 units.
  auto reserved = [&](std::uint32_t hi16) {
    const std::uint32_t first_octet = hi16 >> 8;
    if (first_octet == 0 || first_octet == 10 || first_octet == 127 ||
        first_octet >= 224) {
      return true;
    }
    return telescope.contains(Ipv4(hi16 << 16));
  };
  // Spread the blocks over roughly the full unicast space.
  const std::uint32_t stride = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>((220u << 8) / (slots.size() + 1)));
  for (std::size_t as_index : slots) {
    while (reserved(next_hi)) ++next_hi;
    w.ases_[as_index].prefixes.emplace_back(Ipv4(next_hi << 16), 16);
    w.prefix_to_as_[next_hi] = static_cast<std::int32_t>(as_index);
    next_hi += stride + static_cast<std::uint32_t>(rng.next_below(3));
  }

  for (const auto& as : w.ases_) {
    w.iot_weights_.push_back(as.iot_weight);
    w.generic_weights_.push_back(as.generic_weight);
  }
  return w;
}

const AsInfo* WorldModel::lookup(Ipv4 addr) const {
  const std::int32_t idx = prefix_to_as_[addr.value() >> 16];
  return idx < 0 ? nullptr : &ases_[static_cast<std::size_t>(idx)];
}

const AsInfo& WorldModel::sample_iot_as(Rng& rng) const {
  return ases_[rng.weighted_index(iot_weights_)];
}

const AsInfo& WorldModel::sample_generic_as(Rng& rng) const {
  return ases_[rng.weighted_index(generic_weights_)];
}

Ipv4 WorldModel::random_address(const AsInfo& as, Rng& rng) const {
  const auto& prefix =
      as.prefixes[rng.next_below(as.prefixes.size())];
  // Avoid .0 and .255 in the last octet (network/broadcast conventions).
  while (true) {
    Ipv4 addr = prefix.address_at(rng.next_below(prefix.size()));
    const auto last = addr.octet(3);
    if (last != 0 && last != 255) return addr;
  }
}

Sector WorldModel::sample_sector(Rng& rng) const {
  // Calibrated to Table V's critical-sector counts: out of ~406k infected
  // hosts only 649 Education, 240 Manufacturing, 184 Government, 80
  // Banking, 79 Medical — i.e. tiny fractions on top of a residential mass.
  static const std::vector<double> weights = {
      /*Residential*/ 0.9892, /*Education*/ 0.0016,
      /*Manufacturing*/ 0.00059, /*Government*/ 0.00045,
      /*Banking*/ 0.0002, /*Medical*/ 0.000195,
      /*Technology*/ 0.004, /*Hosting*/ 0.0038};
  return static_cast<Sector>(rng.weighted_index(weights));
}

Sector WorldModel::sector_of(Ipv4 addr) const {
  // Deterministic hash of the /24 so that a whole block shares a sector,
  // like real organizational allocations.
  std::uint64_t h = addr.value() >> 8;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  Rng rng(h);
  return sample_sector(rng);
}

std::string WorldModel::organization_name(Ipv4 addr) const {
  const AsInfo* as = lookup(addr);
  const std::string region = as ? as->country : "Unknown";
  const Sector sector = sector_of(addr);
  const std::uint32_t block = (addr.value() >> 8) & 0xFFFF;
  char buf[128];
  switch (sector) {
    case Sector::kResidential:
      std::snprintf(buf, sizeof(buf), "%s Broadband Pool %u",
                    as ? as->isp.c_str() : "Unknown ISP", block);
      break;
    case Sector::kEducation:
      std::snprintf(buf, sizeof(buf), "University of %s Campus %u",
                    region.c_str(), block % 50);
      break;
    case Sector::kManufacturing:
      std::snprintf(buf, sizeof(buf), "%s Industrial Works %u",
                    region.c_str(), block % 100);
      break;
    case Sector::kGovernment:
      std::snprintf(buf, sizeof(buf), "%s Municipal Authority %u",
                    region.c_str(), block % 30);
      break;
    case Sector::kBanking:
      std::snprintf(buf, sizeof(buf), "%s National Bank Branch %u",
                    region.c_str(), block % 20);
      break;
    case Sector::kMedical:
      std::snprintf(buf, sizeof(buf), "%s Regional Hospital %u",
                    region.c_str(), block % 25);
      break;
    case Sector::kTechnology:
      std::snprintf(buf, sizeof(buf), "TechPark %s %u", region.c_str(),
                    block % 60);
      break;
    case Sector::kHosting:
      std::snprintf(buf, sizeof(buf), "%s Cloud Region %u",
                    as ? as->isp.c_str() : "Hosting", block % 10);
      break;
  }
  return buf;
}

}  // namespace exiot::inet
