// Tests for banner fingerprinting rules and packet-level tool signatures,
// including the literal-anchor prefilter's exact equivalence to the plain
// linear regex sweep and its thread safety under concurrent matching.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <set>
#include <string>
#include <thread>

#include "common/rng.h"
#include "fingerprint/rules.h"
#include "fingerprint/tools.h"
#include "inet/behavior.h"
#include "inet/device_catalog.h"
#include "reference_fingerprint.h"

namespace exiot::fingerprint {
namespace {

class RuleDbTest : public ::testing::Test {
 protected:
  RuleDb db_ = RuleDb::standard();
};

TEST_F(RuleDbTest, MatchesMikrotikRouterOs) {
  auto m = db_.match("HTTP/1.1 200 OK\r\n\r\n<title>RouterOS v6.45.9</title>");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->vendor, "MikroTik");
  EXPECT_EQ(m->label, BannerLabel::kIot);
  EXPECT_EQ(m->firmware, "6.45.9");
}

TEST_F(RuleDbTest, MatchesAxisCameraWithModelAndFirmware) {
  auto m = db_.match(
      "220 AXIS Q6115-E PTZ Dome Network Camera 6.20.1.2 (2016) ready.");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->vendor, "AXIS");
  EXPECT_EQ(m->model, "Q6115-E");
  EXPECT_EQ(m->firmware, "6.20.1.2");
}

TEST_F(RuleDbTest, MatchesHikvisionRealm) {
  auto m = db_.match(
      "HTTP/1.1 401 Unauthorized\r\nWWW-Authenticate: Basic "
      "realm=\"HikvisionDS-2CD2042WD\"\r\n\r\n");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->vendor, "Hikvision");
  EXPECT_EQ(m->model, "DS-2CD2042WD");
}

TEST_F(RuleDbTest, MatchesOpenSshAsNonIot) {
  auto m = db_.match("SSH-2.0-OpenSSH_7.4");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->label, BannerLabel::kNonIot);
}

TEST_F(RuleDbTest, DropbearLeansIot) {
  auto m = db_.match("SSH-2.0-dropbear_2017.75");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->label, BannerLabel::kIot);
}

TEST_F(RuleDbTest, ScrubbedBannersMatchNothingIdentifying) {
  // The scrubbed httpd banner must not match an IoT vendor rule.
  auto m = db_.match("HTTP/1.1 401 Unauthorized\r\nServer: httpd\r\n\r\n");
  EXPECT_FALSE(m.has_value());
  EXPECT_FALSE(db_.match("login:").has_value());
  EXPECT_FALSE(db_.match("220 FTP server ready").has_value());
}

TEST_F(RuleDbTest, CaseInsensitive) {
  EXPECT_TRUE(db_.match("routeros V6.44.6").has_value());
}

TEST_F(RuleDbTest, CoversEveryTextualCatalogBanner) {
  // Every textual banner in the device catalog must resolve to the right
  // vendor with an IoT label (the training-label path depends on it).
  auto catalog = inet::DeviceCatalog::standard();
  for (const auto& model : catalog.models()) {
    for (const auto& banner : model.banners) {
      if (!banner.textual_info) continue;
      auto m = db_.match(banner.text);
      ASSERT_TRUE(m.has_value()) << model.vendor << ": " << banner.text;
      EXPECT_EQ(m->label, BannerLabel::kIot) << banner.text;
      if (!m->vendor.empty()) {
        EXPECT_EQ(m->vendor, model.vendor) << banner.text;
      }
    }
  }
}

TEST_F(RuleDbTest, FirstRuleWinsOrdering) {
  auto db = RuleDb::from_rules(
      {{"specific", "abc123", BannerLabel::kIot, "V1", "T1", 0, 0},
       {"broad", "abc", BannerLabel::kNonIot, "V2", "T2", 0, 0}});
  auto m = db.match("xx abc123 yy");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->rule_name, "specific");
}

// ----------------------------------------------------------- Prefilter ----

void expect_same_match(const RuleDb& db, const std::string& banner) {
  auto fast = db.match(banner);
  auto slow = db.match_linear(banner);
  ASSERT_EQ(fast.has_value(), slow.has_value()) << banner;
  if (!fast.has_value()) return;
  EXPECT_EQ(fast->rule_name, slow->rule_name) << banner;
  EXPECT_EQ(fast->vendor, slow->vendor) << banner;
  EXPECT_EQ(fast->device_type, slow->device_type) << banner;
  EXPECT_EQ(fast->model, slow->model) << banner;
  EXPECT_EQ(fast->firmware, slow->firmware) << banner;
  EXPECT_EQ(fast->label, slow->label) << banner;
}

TEST(AnchorExtractionTest, LiteralRunsAndQuantifiers) {
  EXPECT_EQ(extract_literal_anchor("RouterOS v([0-9.]+)"), "routeros v");
  EXPECT_EQ(extract_literal_anchor(R"(SSH-2\.0-ROSSSH)"), "ssh-2.0-rosssh");
  // '?' makes the preceding char optional: it must not enter the anchor.
  EXPECT_EQ(extract_literal_anchor("TP-?LINK"), "link");
  EXPECT_EQ(extract_literal_anchor(R"(SIMATIC,?\s+(S7-[0-9]+))"), "simatic");
  // '+' keeps the char but ends the run ("ab+c" matches "abbc").
  EXPECT_EQ(extract_literal_anchor("ab+cdef"), "cdef");
  // Top-level alternation guarantees nothing.
  EXPECT_EQ(extract_literal_anchor("Server: Schneider-WEB|Modicon (M[0-9]+)"),
            "");
  // Purely group/class patterns have no required literal.
  EXPECT_EQ(extract_literal_anchor("(ZX[A-Z0-9]+ [A-Z0-9]+)"), "");
  // The longest run wins across class/group breaks.
  EXPECT_EQ(
      extract_literal_anchor(R"(AXIS (\S+)[^\r\n]*Network Camera ([0-9.]+)?)"),
      "network camera ");
  EXPECT_EQ(extract_literal_anchor(R"(Server: Apache(?:/([0-9.]+))?)"),
            "server: apache");
}

TEST_F(RuleDbTest, MostStandardRulesCarryAnchors) {
  // The prefilter only pays off if it covers the bulk of the sweep.
  EXPECT_GE(db_.anchored_rules() * 10, db_.size() * 8);
  for (std::size_t i = 0; i < db_.size(); ++i) {
    // Anchors are stored case-folded (the banner is folded once to match).
    for (char c : db_.anchor(i)) {
      EXPECT_FALSE(c >= 'A' && c <= 'Z');
    }
  }
}

TEST_F(RuleDbTest, PrefilterEquivalentOnCatalogBanners) {
  auto catalog = inet::DeviceCatalog::standard();
  for (const auto& model : catalog.models()) {
    for (const auto& banner : model.banners) {
      expect_same_match(db_, banner.text);
    }
  }
}

TEST_F(RuleDbTest, PrefilterEquivalentOnNearMissFuzzCorpus) {
  // Mutate realistic banners into near-misses — dropped characters, case
  // flips, injected noise, truncations — and assert the prefiltered match
  // agrees with the linear reference on every one. A too-long anchor
  // (e.g. one that swallowed an optional char) would diverge here.
  std::vector<std::string> seeds = {
      "HTTP/1.1 200 OK\r\n\r\n<title>RouterOS v6.45.9</title>",
      "MikroTik FTP server (MikroTik 6.44) ready",
      "SSH-2.0-ROSSSH",
      "220 AXIS Q6115-E PTZ Dome Network Camera 6.20.1.2 (2016) ready.",
      "WWW-Authenticate: Basic realm=\"HikvisionDS-2CD2042WD\"",
      "TP-LINK Router TL-WR841N",
      "TPLINK WR940N",
      "DIR-300 Ver 1.04",
      "Server: Schneider-WEB",
      "Modicon M340 v2.7",
      "SIMATIC, S7-300",
      "fox hello world Niagara 3.8",
      "Server: Apache/2.4.18 (Ubuntu)",
      "Server: nginx",
      "SSH-2.0-OpenSSH_7.4",
      "SSH-2.0-dropbear_2017.75",
      "NETGEAR R7000",
      "uc-httpd 1.0.0",
      "ESMTP Postfix",
      "BACnet device Honeywell XL15C v3.1",
  };
  Rng rng(0xF1273);
  std::vector<std::string> corpus = seeds;
  for (const auto& seed : seeds) {
    for (int variant = 0; variant < 40; ++variant) {
      std::string s = seed;
      switch (variant % 4) {
        case 0:  // Drop one character.
          s.erase(rng.uniform_int(0, static_cast<int>(s.size()) - 1), 1);
          break;
        case 1: {  // Flip one character's case or swap a digit.
          auto& c = s[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(s.size()) - 1))];
          c = std::isdigit(static_cast<unsigned char>(c))
                  ? static_cast<char>('0' + rng.uniform_int(0, 9))
                  : static_cast<char>(c ^ 0x20);
          break;
        }
        case 2:  // Inject noise.
          s.insert(static_cast<std::size_t>(rng.uniform_int(
                       0, static_cast<int>(s.size()))),
                   1, static_cast<char>('!' + rng.uniform_int(0, 60)));
          break;
        default:  // Truncate.
          s.resize(static_cast<std::size_t>(
              rng.uniform_int(1, static_cast<int>(s.size()))));
          break;
      }
      corpus.push_back(std::move(s));
    }
  }
  for (const auto& banner : corpus) expect_same_match(db_, banner);
}

TEST_F(RuleDbTest, PrefilterSkipsRulesWithoutRunningRegex) {
  obs::MetricsRegistry registry;
  db_.instrument(registry);
  ASSERT_FALSE(db_.match("completely unrelated banner text").has_value());
  const auto skipped =
      registry.counter_value("exiot_fingerprint_prefilter_skipped_total");
  const auto searched =
      registry.counter_value("exiot_fingerprint_prefilter_regex_total");
  EXPECT_EQ(skipped + searched, db_.size());
  // Every anchored rule was rejected by the cheap substring pass.
  EXPECT_EQ(skipped, db_.anchored_rules());
  EXPECT_EQ(searched, db_.size() - db_.anchored_rules());
}

TEST_F(RuleDbTest, ConcurrentMatchIsThreadSafe) {
  // Shared db + shared magic-static device-text regex hammered from many
  // threads. Run under TSan in CI.
  const std::vector<std::string> banners = {
      "RouterOS v6.45.9", "SSH-2.0-OpenSSH_7.4", "no match at all",
      "TL-WR841N device text", "Server: Apache/2.4.18"};
  std::atomic<int> matches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      int local = 0;
      for (int i = 0; i < 200; ++i) {
        for (const auto& banner : banners) {
          if (db_.match(banner).has_value()) ++local;
          (void)looks_like_device_text(banner);
        }
      }
      matches.fetch_add(local);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(matches.load(), 8 * 200 * 3);
}

TEST(DeviceTextTest, GenericRuleMatchesProductIdentifiers) {
  EXPECT_TRUE(looks_like_device_text("model hg8245h detected"));
  EXPECT_TRUE(looks_like_device_text("TL-WR841N"));
  EXPECT_TRUE(looks_like_device_text("ds-7608ni"));
  EXPECT_FALSE(looks_like_device_text("hello world"));
  EXPECT_FALSE(looks_like_device_text(""));
  EXPECT_FALSE(looks_like_device_text("......."));
}

TEST(DeviceTextTest, UnknownBannerLogKeepsPromisingOnly) {
  UnknownBannerLog log;
  EXPECT_TRUE(log.offer("Welcome to ACME x500-b terminal"));
  EXPECT_FALSE(log.offer("plain text banner"));
  EXPECT_EQ(log.entries().size(), 1u);
}

TEST(DeviceTextTest, UnknownBannerLogBoundedByCapacity) {
  UnknownBannerLog log(3);
  obs::MetricsRegistry registry;
  log.instrument(registry);
  for (int i = 0; i < 10; ++i) {
    const bool kept = log.offer("device acme-x" + std::to_string(100 + i));
    EXPECT_EQ(kept, i < 3);
  }
  EXPECT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.capacity(), 3u);
  auto dropped = [&registry] {
    return registry.counter_value(
        "exiot_fingerprint_unknown_banners_dropped_total");
  };
  EXPECT_EQ(dropped(), 7u);
  // Uninteresting banners are rejected, not counted as capacity drops.
  EXPECT_FALSE(log.offer("plain text banner"));
  EXPECT_EQ(dropped(), 7u);
}

// -------------------------------------------------------------- Tools ----

std::vector<net::Packet> synth_sample(const inet::ScanBehavior& behavior,
                                      int n, std::uint64_t seed = 42) {
  inet::PacketSynthesizer synth(behavior, Ipv4(1, 2, 3, 4),
                                Cidr(Ipv4(44, 0, 0, 0), 8), seed);
  std::vector<net::Packet> out;
  for (int i = 0; i < n; ++i) {
    synth.make_probe_into(i * 100000, out.emplace_back());
  }
  return out;
}

const inet::ScanBehavior& family(const inet::BehaviorRoster& roster,
                                 const std::string& name) {
  for (const auto& b : roster.iot_families) {
    if (b.family == name) return b;
  }
  for (const auto& b : roster.generic_families) {
    if (b.family == name) return b;
  }
  throw std::runtime_error("no family " + name);
}

class ToolFingerprintTest : public ::testing::Test {
 protected:
  inet::BehaviorRoster roster_ = inet::BehaviorRoster::standard();
};

TEST_F(ToolFingerprintTest, IdentifiesMirai) {
  auto match = fingerprint_tool(synth_sample(family(roster_, "mirai"), 200));
  EXPECT_EQ(match.tool, "Mirai");
  EXPECT_DOUBLE_EQ(match.confidence, 1.0);
}

TEST_F(ToolFingerprintTest, IdentifiesZmap) {
  auto match = fingerprint_tool(synth_sample(family(roster_, "zmap"), 200));
  EXPECT_EQ(match.tool, "Zmap");
}

TEST_F(ToolFingerprintTest, IdentifiesMasscan) {
  auto match =
      fingerprint_tool(synth_sample(family(roster_, "masscan"), 200));
  EXPECT_EQ(match.tool, "Masscan");
}

TEST_F(ToolFingerprintTest, IdentifiesNmap) {
  auto match = fingerprint_tool(synth_sample(family(roster_, "nmap"), 200));
  EXPECT_EQ(match.tool, "Nmap");
}

TEST_F(ToolFingerprintTest, IdentifiesUnicorn) {
  auto match =
      fingerprint_tool(synth_sample(family(roster_, "unicorn"), 200));
  EXPECT_EQ(match.tool, "Unicorn");
}

TEST_F(ToolFingerprintTest, UnicornRequiresConstantSourcePort) {
  auto sample = synth_sample(family(roster_, "unicorn"), 50);
  ASSERT_TRUE(matches_unicorn(sample));
  sample[10].src_port = static_cast<std::uint16_t>(sample[10].src_port + 1);
  EXPECT_FALSE(matches_unicorn(sample));
}

TEST_F(ToolFingerprintTest, GenericMalwareIsUnknown) {
  auto match =
      fingerprint_tool(synth_sample(family(roster_, "ssh_bruteforce"), 200));
  EXPECT_EQ(match.tool, "unknown");
}

TEST_F(ToolFingerprintTest, EmptySampleIsUnknown) {
  EXPECT_EQ(fingerprint_tool({}).tool, "unknown");
}

TEST_F(ToolFingerprintTest, MixedSampleBelowDominanceIsUnknown) {
  auto mirai = synth_sample(family(roster_, "mirai"), 100);
  auto nmap = synth_sample(family(roster_, "nmap"), 100);
  mirai.insert(mirai.end(), nmap.begin(), nmap.end());
  EXPECT_EQ(fingerprint_tool(mirai).tool, "unknown");
}

TEST(ToolPredicateTest, MiraiSignatureExact) {
  net::Packet p = net::make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(44, 2, 3, 4),
                                4000, 23);
  p.seq = p.dst.value();
  EXPECT_EQ(fingerprint_tool({p}).tool, "Mirai");
  p.seq += 1;
  EXPECT_NE(fingerprint_tool({p}).tool, "Mirai");
}

// The fused single pass against the per-packet reference
// (reference_fingerprint.h): same verdict, same fraction.
void expect_matches_reference(const std::vector<net::Packet>& sample,
                              const std::string& what) {
  const ToolMatch want = oracle::reference_fingerprint_tool(sample);
  const ToolMatch got = fingerprint_tool(sample);
  EXPECT_EQ(got.tool, want.tool) << what;
  EXPECT_EQ(got.confidence, want.confidence) << what;
}

TEST_F(ToolFingerprintTest, FusedPassMatchesPerPacketReference) {
  std::vector<const inet::ScanBehavior*> behaviors;
  for (const auto& b : roster_.iot_families) behaviors.push_back(&b);
  for (const auto& b : roster_.generic_families) behaviors.push_back(&b);
  std::set<std::string> verdicts;
  for (const inet::ScanBehavior* b : behaviors) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      auto sample = synth_sample(*b, 200, seed);
      const std::string what =
          b->family + " seed " + std::to_string(seed);
      expect_matches_reference(sample, what);
      verdicts.insert(fingerprint_tool(sample).tool);
      // The same sample carried over UDP: no TCP packet, no verdict.
      for (auto& pkt : sample) pkt.proto = net::IpProto::kUdp;
      expect_matches_reference(sample, what + " as UDP");
      EXPECT_EQ(fingerprint_tool(sample).tool, "unknown") << what;
    }
  }
  // The roster reaches every verdict the reference can give.
  EXPECT_EQ(verdicts, (std::set<std::string>{"Mirai", "Zmap", "Masscan",
                                             "Nmap", "Unicorn", "unknown"}));

  // Dominance exactly at and just below the 90% bar: 180 or 178 of 200
  // packets from one tool, the rest from a scanner matching none.
  const auto& other = family(roster_, "ssh_bruteforce");
  for (const char* name : {"mirai", "zmap", "masscan", "nmap"}) {
    for (const int dominant : {180, 178}) {
      auto sample = synth_sample(family(roster_, name), dominant);
      const auto rest = synth_sample(other, 200 - dominant);
      sample.insert(sample.end(), rest.begin(), rest.end());
      const std::string what =
          std::string(name) + " at " + std::to_string(dominant) + "/200";
      expect_matches_reference(sample, what);
      EXPECT_EQ(fingerprint_tool(sample).tool == "unknown", dominant == 178)
          << what;
    }
  }
}

}  // namespace
}  // namespace exiot::fingerprint
