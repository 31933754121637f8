// Unit tests for the synthetic Internet: world model allocation, device
// catalog, behaviour roster, and population generation invariants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "inet/behavior.h"
#include "inet/device_catalog.h"
#include "inet/population.h"
#include "inet/world.h"

namespace exiot::inet {
namespace {

Cidr telescope() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

class WorldTest : public ::testing::Test {
 protected:
  WorldModel world_ = WorldModel::standard(telescope());
};

TEST_F(WorldTest, NoAsOverlapsTelescope) {
  for (const auto& as : world_.ases()) {
    for (const auto& prefix : as.prefixes) {
      EXPECT_FALSE(telescope().contains(prefix.network()))
          << as.isp << " " << prefix.to_string();
    }
  }
}

TEST_F(WorldTest, PrefixesAreDisjoint) {
  std::set<std::uint32_t> seen;
  for (const auto& as : world_.ases()) {
    for (const auto& prefix : as.prefixes) {
      EXPECT_EQ(prefix.prefix_len(), 16);
      EXPECT_TRUE(seen.insert(prefix.network().value()).second)
          << prefix.to_string();
    }
  }
}

TEST_F(WorldTest, LookupFindsOwningAs) {
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const AsInfo& as = world_.sample_iot_as(rng);
    Ipv4 addr = world_.random_address(as, rng);
    const AsInfo* found = world_.lookup(addr);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->asn, as.asn);
  }
}

TEST_F(WorldTest, LookupMissesUnallocatedSpace) {
  EXPECT_EQ(world_.lookup(Ipv4(223, 255, 255, 1)), nullptr);
  EXPECT_EQ(world_.lookup(Ipv4(44, 1, 2, 3)), nullptr);  // Telescope.
}

TEST_F(WorldTest, IotSamplingMatchesTableVCountries) {
  Rng rng(7);
  std::map<std::string, int> by_country;
  const int n = 200000;
  for (int i = 0; i < n; ++i) by_country[world_.sample_iot_as(rng).country]++;
  // Table V: CN 43.46%, IN 10.32%, BR 8.48%, IR 5.51%, MX 3.52%.
  EXPECT_NEAR(by_country["China"] / double(n), 0.4346, 0.01);
  EXPECT_NEAR(by_country["India"] / double(n), 0.1032, 0.01);
  EXPECT_NEAR(by_country["Brazil"] / double(n), 0.0848, 0.01);
  EXPECT_NEAR(by_country["Iran"] / double(n), 0.0551, 0.01);
  EXPECT_NEAR(by_country["Mexico"] / double(n), 0.0352, 0.01);
}

TEST_F(WorldTest, IotSamplingMatchesTableVContinents) {
  Rng rng(8);
  std::map<Continent, int> by_cont;
  const int n = 200000;
  for (int i = 0; i < n; ++i) by_cont[world_.sample_iot_as(rng).continent]++;
  EXPECT_NEAR(by_cont[Continent::kAsia] / double(n), 0.7331, 0.025);
  EXPECT_NEAR(by_cont[Continent::kSouthAmerica] / double(n), 0.1082, 0.01);
  EXPECT_NEAR(by_cont[Continent::kEurope] / double(n), 0.0862, 0.01);
  EXPECT_NEAR(by_cont[Continent::kNorthAmerica] / double(n), 0.0557, 0.01);
  EXPECT_NEAR(by_cont[Continent::kAfrica] / double(n), 0.0410, 0.01);
}

TEST_F(WorldTest, TopAsnIsChinaTelecom) {
  Rng rng(9);
  std::map<std::uint32_t, int> by_asn;
  const int n = 100000;
  for (int i = 0; i < n; ++i) by_asn[world_.sample_iot_as(rng).asn]++;
  EXPECT_NEAR(by_asn[4134] / double(n), 0.2128, 0.01);
  EXPECT_NEAR(by_asn[4837] / double(n), 0.1645, 0.01);
}

TEST_F(WorldTest, SectorOfIsDeterministicAndBlockAligned) {
  Ipv4 a(50, 1, 2, 3), b(50, 1, 2, 99);
  EXPECT_EQ(world_.sector_of(a), world_.sector_of(a));
  EXPECT_EQ(world_.sector_of(a), world_.sector_of(b));  // Same /24.
}

TEST_F(WorldTest, SectorsAreMostlyResidential) {
  Rng rng(10);
  int residential = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (world_.sample_sector(rng) == Sector::kResidential) ++residential;
  }
  EXPECT_GT(residential / double(n), 0.97);
}

TEST_F(WorldTest, OrganizationNamesReflectSector) {
  // Find an address in each critical sector and check the name template.
  Rng rng(11);
  bool found_education = false;
  for (int i = 0; i < 2000000 && !found_education; ++i) {
    const AsInfo& as = world_.sample_iot_as(rng);
    Ipv4 addr = world_.random_address(as, rng);
    if (world_.sector_of(addr) == Sector::kEducation) {
      EXPECT_NE(world_.organization_name(addr).find("University"),
                std::string::npos);
      found_education = true;
    }
  }
  EXPECT_TRUE(found_education);
}

TEST(DeviceCatalogTest, ContainsTableVVendors) {
  auto catalog = DeviceCatalog::standard();
  for (const char* vendor :
       {"MikroTik", "Aposonic", "Foscam", "ZTE", "Hikvision"}) {
    EXPECT_FALSE(catalog.by_vendor(vendor).empty()) << vendor;
  }
}

TEST(DeviceCatalogTest, SamplingMatchesTableVOrder) {
  auto catalog = DeviceCatalog::standard();
  Rng rng(12);
  std::map<std::string, int> by_vendor;
  for (int i = 0; i < 100000; ++i) by_vendor[catalog.sample(rng).vendor]++;
  EXPECT_GT(by_vendor["MikroTik"], by_vendor["Aposonic"]);
  EXPECT_GT(by_vendor["Aposonic"], by_vendor["Foscam"]);
  EXPECT_GT(by_vendor["Foscam"], by_vendor["ZTE"]);
  EXPECT_GT(by_vendor["ZTE"], by_vendor["Hikvision"]);
  EXPECT_GT(by_vendor["Hikvision"], by_vendor["TP-Link"]);
}

TEST(DeviceCatalogTest, EveryModelServesAtLeastOneBanner) {
  auto catalog = DeviceCatalog::standard();
  for (const auto& m : catalog.models()) {
    EXPECT_FALSE(m.banners.empty()) << m.vendor << " " << m.model;
    for (const auto& b : m.banners) {
      EXPECT_NE(b.port, 0) << m.model;
      EXPECT_FALSE(b.text.empty()) << m.model;
    }
  }
}

TEST(BehaviorTest, RosterFamiliesAreLabeledConsistently) {
  auto roster = BehaviorRoster::standard();
  ASSERT_EQ(roster.iot_families.size(), roster.iot_weights.size());
  ASSERT_EQ(roster.generic_families.size(), roster.generic_weights.size());
  for (const auto& b : roster.iot_families) {
    EXPECT_TRUE(b.iot) << b.family;
    EXPECT_FALSE(b.ports.empty()) << b.family;
  }
  for (const auto& b : roster.generic_families) {
    EXPECT_FALSE(b.iot) << b.family;
  }
}

/// The synthesizer's next probe at `ts`, as a value.
net::Packet probe(PacketSynthesizer& synth, TimeMicros ts) {
  net::Packet p;
  synth.make_probe_into(ts, p);
  return p;
}

TEST(BehaviorTest, MiraiUsesDstIpSeqSignature) {
  auto roster = BehaviorRoster::standard();
  const ScanBehavior* mirai = nullptr;
  for (const auto& b : roster.iot_families) {
    if (b.family == "mirai") mirai = &b;
  }
  ASSERT_NE(mirai, nullptr);
  PacketSynthesizer synth(*mirai, Ipv4(1, 2, 3, 4),
                          Cidr(Ipv4(44, 0, 0, 0), 8), 5);
  for (int i = 0; i < 50; ++i) {
    auto p = probe(synth, i * 1000);
    EXPECT_EQ(p.seq, p.dst.value());
    EXPECT_FALSE(p.opts.mss.has_value());  // Raw-socket SYN, no options.
  }
}

TEST(BehaviorTest, ZmapUsesIpId54321) {
  auto roster = BehaviorRoster::standard();
  const ScanBehavior* zmap = nullptr;
  for (const auto& b : roster.generic_families) {
    if (b.family == "zmap") zmap = &b;
  }
  ASSERT_NE(zmap, nullptr);
  PacketSynthesizer synth(*zmap, Ipv4(5, 6, 7, 8),
                          Cidr(Ipv4(44, 0, 0, 0), 8), 6);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(probe(synth, i).ip_id, 54321);
  }
}

TEST(BehaviorTest, MasscanIpIdMatchesXorFingerprint) {
  auto roster = BehaviorRoster::standard();
  const ScanBehavior* masscan = nullptr;
  for (const auto& b : roster.generic_families) {
    if (b.family == "masscan") masscan = &b;
  }
  ASSERT_NE(masscan, nullptr);
  PacketSynthesizer synth(*masscan, Ipv4(5, 6, 7, 8),
                          Cidr(Ipv4(44, 0, 0, 0), 8), 7);
  for (int i = 0; i < 20; ++i) {
    auto p = probe(synth, i);
    EXPECT_EQ(p.ip_id, (p.dst.value() ^ p.dst_port ^ p.seq) & 0xFFFF);
  }
}

TEST(BehaviorTest, ProbesStayInsideTelescope) {
  auto roster = BehaviorRoster::standard();
  Cidr scope(Ipv4(44, 0, 0, 0), 8);
  PacketSynthesizer synth(roster.iot_families[0], Ipv4(9, 9, 9, 9), scope, 8);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(scope.contains(probe(synth, i).dst));
  }
}

TEST(BehaviorTest, PortWeightsDriveTargetSelection) {
  auto roster = BehaviorRoster::standard();
  const ScanBehavior& mirai = roster.iot_families[0];
  PacketSynthesizer synth(mirai, Ipv4(9, 9, 9, 9),
                          Cidr(Ipv4(44, 0, 0, 0), 8), 9);
  std::map<std::uint16_t, int> ports;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ports[probe(synth, i).dst_port]++;
  EXPECT_NEAR(ports[23] / double(n), 0.50, 0.02);
  EXPECT_NEAR(ports[2323] / double(n), 0.12, 0.02);
}

TEST(BehaviorTest, TtlReflectsPathLength) {
  auto roster = BehaviorRoster::standard();
  PacketSynthesizer synth(roster.iot_families[0], Ipv4(9, 9, 9, 9),
                          Cidr(Ipv4(44, 0, 0, 0), 8), 10);
  auto p = probe(synth, 0);
  EXPECT_LT(p.ttl, 64);  // Base 64 minus at least 6 hops.
  EXPECT_GE(p.ttl, 64 - 28);
}

class PopulationTest : public ::testing::Test {
 protected:
  static PopulationConfig small_config(int days = 1) {
    PopulationConfig c;
    c.days = days;
    c.iot_per_day = 150;
    c.generic_per_day = 600;
    c.benign_per_day = 5;
    c.misconfig_per_day = 80;
    c.victims_per_day = 12;
    return c;
  }
  WorldModel world_ = WorldModel::standard(telescope());
};

TEST_F(PopulationTest, GeneratesRequestedCohorts) {
  auto pop = Population::generate(small_config(), world_);
  auto counts = pop.count_by_class();
  EXPECT_EQ(counts[HostClass::kInfectedIot], 150);
  EXPECT_EQ(counts[HostClass::kInfectedGeneric], 600);
  EXPECT_EQ(counts[HostClass::kBenignScanner], 5);
  EXPECT_EQ(counts[HostClass::kMisconfigured], 80);
  EXPECT_EQ(counts[HostClass::kBackscatterVictim], 12);
}

TEST_F(PopulationTest, AddressesAreUniqueAndOutsideTelescope) {
  auto pop = Population::generate(small_config(3), world_);
  std::set<std::uint32_t> addrs;
  for (const auto& h : pop.hosts()) {
    EXPECT_TRUE(addrs.insert(h.addr.value()).second);
    EXPECT_FALSE(telescope().contains(h.addr));
  }
}

TEST_F(PopulationTest, DeterministicForSameSeed) {
  auto a = Population::generate(small_config(), world_);
  auto b = Population::generate(small_config(), world_);
  ASSERT_EQ(a.hosts().size(), b.hosts().size());
  for (std::size_t i = 0; i < a.hosts().size(); ++i) {
    EXPECT_EQ(a.hosts()[i].addr, b.hosts()[i].addr);
    EXPECT_EQ(a.hosts()[i].seed, b.hosts()[i].seed);
  }
}

TEST_F(PopulationTest, IotHostsHaveDevicesGenericsDoNot) {
  auto pop = Population::generate(small_config(), world_);
  for (const auto& h : pop.hosts()) {
    if (h.cls == HostClass::kInfectedIot) {
      EXPECT_NE(pop.device_of(h), nullptr);
      ASSERT_NE(pop.behavior_of(h), nullptr);
      EXPECT_TRUE(pop.behavior_of(h)->iot);
    } else if (h.cls == HostClass::kInfectedGeneric) {
      EXPECT_EQ(pop.device_of(h), nullptr);
      ASSERT_NE(pop.behavior_of(h), nullptr);
      EXPECT_FALSE(pop.behavior_of(h)->iot);
    } else if (h.cls == HostClass::kMisconfigured ||
               h.cls == HostClass::kBackscatterVictim) {
      EXPECT_EQ(pop.behavior_of(h), nullptr);
    }
  }
}

TEST_F(PopulationTest, BenignScannersCarryResearchRdns) {
  auto pop = Population::generate(small_config(), world_);
  for (const auto& h : pop.hosts()) {
    if (h.cls == HostClass::kBenignScanner) {
      EXPECT_FALSE(h.rdns.empty());
      EXPECT_TRUE(h.rdns.find("shodan") != std::string::npos ||
                  h.rdns.find("censys") != std::string::npos ||
                  h.rdns.find("umich") != std::string::npos ||
                  h.rdns.find("rapid7") != std::string::npos ||
                  h.rdns.find("cesnet") != std::string::npos ||
                  h.rdns.find("binaryedge") != std::string::npos)
          << h.rdns;
    }
  }
}

TEST_F(PopulationTest, BannerResponseRatesMatchPaperLimits) {
  auto cfg = small_config();
  cfg.iot_per_day = 4000;
  cfg.generic_per_day = 100;
  auto pop = Population::generate(cfg, world_);
  int responds = 0, textual = 0, iot = 0;
  for (const auto& h : pop.hosts()) {
    if (h.cls != HostClass::kInfectedIot) continue;
    ++iot;
    if (h.responds_banner) ++responds;
    if (h.responds_banner && !h.banner_scrubbed) ++textual;
  }
  // Paper §VI: <10% of infected hosts return banners, ~3% textual info.
  EXPECT_NEAR(responds / double(iot), 0.095, 0.02);
  EXPECT_NEAR(textual / double(iot), 0.031, 0.012);
}

TEST_F(PopulationTest, ReappearancesCreateMultiSessionHosts) {
  auto pop = Population::generate(small_config(3), world_);
  int multi = 0, infected = 0;
  for (const auto& h : pop.hosts()) {
    if (h.cls == HostClass::kInfectedIot ||
        h.cls == HostClass::kInfectedGeneric) {
      ++infected;
      if (h.sessions.size() > 1) ++multi;
    }
  }
  EXPECT_GT(multi, 0);
  EXPECT_LT(multi, infected / 2);
  for (const auto& h : pop.hosts()) {
    for (std::size_t i = 1; i < h.sessions.size(); ++i) {
      EXPECT_GT(h.sessions[i].start, h.sessions[i - 1].start);
    }
  }
}

TEST_F(PopulationTest, FindReturnsGroundTruth) {
  auto pop = Population::generate(small_config(), world_);
  for (const auto& h : pop.hosts()) {
    const Host* found = pop.find(h.addr);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id, h.id);
  }
  EXPECT_EQ(pop.find(Ipv4(44, 0, 0, 1)), nullptr);
}

TEST_F(PopulationTest, ScaledConfigScalesCohorts) {
  PopulationConfig base;
  auto half = base.scaled(0.5);
  EXPECT_EQ(half.iot_per_day, base.iot_per_day / 2);
  EXPECT_GE(half.benign_per_day, 1);
}

}  // namespace
}  // namespace exiot::inet
