// Tests for the telescope federation layer: aperture partitioning, the
// federation stage's config validation, its source -> site-mask ledger,
// its drop semantics and its input-order (stable filter) guarantee — and
// the determinism matrix: the federated feed (export, outbox, API bodies)
// is byte-identical across site counts {1, 2, 4} x outage profiles x
// producers x shards, with every published source's site set checked on a
// multi-site run.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "api/server.h"
#include "feed/export.h"
#include "inet/population.h"
#include "net/wire.h"
#include "pipeline/exiot.h"
#include "pipeline/federation.h"
#include "telescope/site.h"

namespace exiot::pipeline {
namespace {

/// The packet's wire image, in a buffer of its own.
std::vector<std::uint8_t> wire_image(const net::Packet& p) {
  std::vector<std::uint8_t> bytes;
  net::serialize_to(p, bytes);
  return bytes;
}

// ------------------------------------------------------------ Partition ----

TEST(PartitionTest, SplitsIntoEqualPowerOfTwoSubPrefixes) {
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  const auto quarters = telescope::partition_aperture(telescope, 4);
  ASSERT_EQ(quarters.size(), 4u);
  EXPECT_EQ(quarters[0], Cidr(Ipv4(44, 0, 0, 0), 10));
  EXPECT_EQ(quarters[1], Cidr(Ipv4(44, 64, 0, 0), 10));
  EXPECT_EQ(quarters[2], Cidr(Ipv4(44, 128, 0, 0), 10));
  EXPECT_EQ(quarters[3], Cidr(Ipv4(44, 192, 0, 0), 10));
  // The partition tiles the aperture: disjoint, covering, ordered.
  std::uint64_t covered = 0;
  for (const auto& q : quarters) covered += q.size();
  EXPECT_EQ(covered, telescope.size());
  // n = 1 is the identity.
  const auto whole = telescope::partition_aperture(telescope, 1);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], telescope);
}

// ----------------------------------------------------- FederationStage ----

/// A source streaming one crafted batch.
FederationStage::BatchSource one_batch(const net::PacketBatch& batch) {
  return [&batch](const FederationStage::BatchFn& fn) {
    fn(batch);
    return batch.size();
  };
}

TEST(FederationStageTest, RejectsSiteCountsTheMaskCannotHold) {
  FederationConfig config;
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 8);
  // Not a power of two, or wider than the 64-bit site mask.
  for (int sites : {0, 3, 128}) {
    config.num_sites = sites;
    EXPECT_THROW(FederationStage{config}, std::invalid_argument)
        << "sites=" << sites;
  }
  config.num_sites = FederationStage::kMaxSites;
  EXPECT_NO_THROW(FederationStage{config});
  // Eight sites of a /30 would be /33s.
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 30);
  config.num_sites = 8;
  EXPECT_THROW(FederationStage{config}, std::invalid_argument);
  config.num_sites = 4;  // Four /32s is as fine as a split goes.
  EXPECT_NO_THROW(FederationStage{config});
}

TEST(FederationStageTest, DemuxesRecordsAndDropsDarkApertures) {
  FederationConfig config;
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 8);
  config.num_sites = 2;
  config.active_sites = 1;  // Site 1 is dark.
  obs::MetricsRegistry metrics;
  FederationStage stage(config, &metrics);

  net::PacketBatch batch;
  const Ipv4 scanner(203, 0, 113, 9);
  // Row 0 lands in site 0's half, row 1 in dark site 1's half.
  batch.push_back(net::make_syn(seconds(1), scanner, Ipv4(44, 10, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(2), scanner, Ipv4(44, 200, 0, 1),
                                40001, 23));

  std::size_t forwarded_rows = 0;
  const std::size_t forwarded =
      stage.run_window(one_batch(batch), [&](const net::PacketBatch& out) {
        forwarded_rows += out.size();
        EXPECT_EQ(out[0].dst, Ipv4(44, 10, 0, 1));
      });
  EXPECT_EQ(forwarded, 1u);
  EXPECT_EQ(forwarded_rows, 1u);
  EXPECT_EQ(metrics.counter_value("exiot_federation_dropped_total"), 1u);

  // Only the live site captured the scanner, so it is no multi-sensor
  // source.
  EXPECT_EQ(stage.sites_of(scanner), 0b01u);
  EXPECT_EQ(stage.site(0).aperture, Cidr(Ipv4(44, 0, 0, 0), 9));
  EXPECT_EQ(stage.sites_of(Ipv4(192, 0, 2, 1)), 0u);  // Never captured.
  EXPECT_EQ(metrics.gauge_value("exiot_federation_multi_sensor_sources"),
            0.0);
}

// The single telescope's passthrough still counts what its one site
// captured.
TEST(FederationStageTest, SingleSiteCountsCapturedPackets) {
  FederationConfig config;
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 8);
  obs::MetricsRegistry metrics;
  FederationStage stage(config, &metrics);

  net::PacketBatch batch;
  const Ipv4 scanner(203, 0, 113, 9);
  batch.push_back(net::make_syn(seconds(1), scanner, Ipv4(44, 10, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(2), scanner, Ipv4(44, 200, 0, 1),
                                40001, 23));
  EXPECT_EQ(stage.run_window(one_batch(batch), [](const net::PacketBatch&) {}),
            2u);
  EXPECT_EQ(metrics.counter_value("exiot_federation_packets_total",
                                  {{"site", "site0"}}),
            2u);
  EXPECT_EQ(stage.sites_of(scanner), 0u);  // The passthrough keeps no ledger.
}

// Quarter of the /8 (site at 4 sites) each row of regressing_batch()
// lands in.
constexpr int kQuarterOf[8] = {0, 3, 1, 2, 0, 1, 3, 2};

/// A batch whose timestamps step back, as a replayed capture's may,
/// spread over all four quarters of the telescope.
net::PacketBatch regressing_batch() {
  const TimeMicros ts[8] = {seconds(5), seconds(3), seconds(3), seconds(9),
                            seconds(1), seconds(9), seconds(2), seconds(4)};
  net::PacketBatch batch;
  for (int i = 0; i < 8; ++i) {
    const auto octet = static_cast<std::uint8_t>(kQuarterOf[i] * 64 + 10);
    batch.push_back(net::make_syn(
        ts[i], Ipv4(203, 0, 113, static_cast<std::uint8_t>(1 + i)),
        Ipv4(44, octet, 0, 1), static_cast<std::uint16_t>(40000 + i), 23));
  }
  return batch;
}

/// The wire bytes of every row a federation at (sites, active) forwards.
std::vector<std::vector<std::uint8_t>> forwarded_rows(
    int sites, int active, const net::PacketBatch& batch) {
  FederationConfig config;
  config.telescope = Cidr(Ipv4(44, 0, 0, 0), 8);
  config.num_sites = sites;
  config.active_sites = active;
  FederationStage stage(config);
  std::vector<std::vector<std::uint8_t>> rows;
  const std::size_t forwarded =
      stage.run_window(one_batch(batch), [&](const net::PacketBatch& out) {
        for (const net::Packet& p : out.packets()) {
          rows.push_back(wire_image(p));
        }
      });
  EXPECT_EQ(forwarded, rows.size());
  return rows;
}

TEST(FederationStageTest, RegressingTimestampsKeepInputOrder) {
  const net::PacketBatch batch = regressing_batch();
  const auto single = forwarded_rows(1, 0, batch);
  ASSERT_EQ(single.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(single[i], wire_image(batch[i])) << "row " << i;
  }
  EXPECT_EQ(forwarded_rows(4, 0, batch), single);
}

TEST(FederationStageTest, DarkSiteFilterKeepsInputOrder) {
  const net::PacketBatch batch = regressing_batch();
  // Sites 0-2 active, site 3 dark: the other quarters' rows, in input
  // order.
  std::vector<std::vector<std::uint8_t>> lit;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (kQuarterOf[i] != 3) lit.push_back(wire_image(batch[i]));
  }
  ASSERT_EQ(lit.size(), 6u);
  EXPECT_EQ(forwarded_rows(4, 3, batch), lit);
}

TEST(FederationStageTest, SiteMaskCountsEachMultiSensorSourceOnce) {
  FederationConfig config;
  config.num_sites = 4;
  obs::MetricsRegistry metrics;
  FederationStage stage(config, &metrics);

  const Ipv4 scanner(203, 0, 113, 9);
  const Ipv4 single(198, 51, 100, 1);
  net::PacketBatch batch;
  // The scanner lands in quarters 2, 2, 0 and 3; `single` only in 1.
  for (const std::uint8_t octet : {130, 140, 10, 200}) {
    batch.push_back(net::make_syn(seconds(octet), scanner,
                                  Ipv4(44, octet, 0, 1), 40000, 23));
  }
  batch.push_back(net::make_syn(seconds(1), single, Ipv4(44, 70, 0, 1),
                                40001, 23));
  for (int window = 0; window < 2; ++window) {
    stage.run_window(one_batch(batch), [](const net::PacketBatch&) {});
    EXPECT_EQ(stage.sites_of(scanner), 0b1101u);
    EXPECT_EQ(stage.sites_of(single), 0b0010u);
    // One source seen by three sensors, over two windows, counts once.
    EXPECT_EQ(metrics.gauge_value("exiot_federation_multi_sensor_sources"),
              1.0)
        << "window " << window;
  }
}

TEST(FederationStageTest, EventDeliveryWaitsForSlowestSightedTunnel) {
  FederationConfig config;
  config.num_sites = 2;
  config.sites.resize(2);
  config.sites[1].outages.emplace_back(seconds(100), seconds(200));
  config.sites[1].reconnect_delay = seconds(5);
  FederationStage stage(config);

  const Ipv4 both_sites(203, 0, 113, 5);
  const Ipv4 site0_only(203, 0, 113, 6);
  net::PacketBatch batch;
  batch.push_back(net::make_syn(seconds(1), both_sites, Ipv4(44, 1, 0, 1),
                                40000, 23));
  batch.push_back(net::make_syn(seconds(2), both_sites, Ipv4(44, 200, 0, 1),
                                40001, 23));
  batch.push_back(net::make_syn(seconds(3), site0_only, Ipv4(44, 2, 0, 1),
                                40002, 23));
  stage.run_window(one_batch(batch), [](const net::PacketBatch&) {});

  // An event about a source sighted by both sites waits for site 1's
  // outage + reconnect; a site-0-only source sails through.
  EXPECT_EQ(stage.deliver_event(both_sites, seconds(150)), seconds(205));
  EXPECT_EQ(stage.deliver_event(site0_only, seconds(150)), seconds(150));
}

// ------------------------------------------------ Determinism matrix ----

struct RunOutput {
  std::string feed;
  std::string outbox;
  std::string records_api;
  std::string snapshot_api;
  std::uint64_t packets_processed = 0;
  std::uint64_t scanners_detected = 0;
  std::uint64_t records_published = 0;
};

struct SiteProfile {
  int sites = 1;
  int active = 0;
  /// One outage applied to EVERY site's tunnel (a global transport event
  /// — the only outage shape that can be feed-invariant across site
  /// counts, since per-site outages change which events are delayed).
  std::pair<double, double> global_outage{0, 0};
};

/// Full pipeline run over the small deterministic population; returns
/// every externally visible artifact for byte comparison (the same
/// harness as the annotate determinism matrix, plus federation knobs).
RunOutput run_pipeline(
    const SiteProfile& profile, int producers, int shards,
    const std::function<void(ExIotPipeline&)>& inspect = nullptr) {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_detector_shards = shards;
  pipe_config.num_producer_threads = producers;
  pipe_config.buffer_capacity = 8;
  pipe_config.ingest_batch_size = 64;
  pipe_config.num_sites = profile.sites;
  pipe_config.active_sites = profile.active;
  pipe_config.site_specs.resize(static_cast<std::size_t>(profile.sites));
  if (profile.global_outage.second > profile.global_outage.first) {
    for (SiteSpec& spec : pipe_config.site_specs) {
      spec.outages.emplace_back(seconds(profile.global_outage.first),
                                seconds(profile.global_outage.second));
    }
  }
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();

  RunOutput out;
  const obs::MetricsRegistry& m = pipe.metrics();
  out.packets_processed =
      m.counter_value("exiot_detector_packets_processed_total");
  out.scanners_detected =
      m.counter_value("exiot_detector_scanners_detected_total");
  out.records_published =
      m.counter_value("exiot_feed_records_published_total");
  std::ostringstream feed;
  feed::export_jsonl(pipe.feed(), feed);
  out.feed = feed.str();
  std::ostringstream outbox;
  for (const auto& mail : pipe.outbox()) {
    outbox << mail.sent_at << "|" << mail.to << "|" << mail.subject << "|"
           << mail.body << "\n";
  }
  out.outbox = outbox.str();
  api::ApiServer server(pipe.feed());
  server.add_token("t");
  auto request = [&](const std::string& target) {
    auto parsed = api::HttpRequest::parse(
        "GET " + target + " HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    return server.handle(*parsed).body;
  };
  out.records_api = request("/v1/records?limit=100000");
  out.snapshot_api = request("/v1/snapshot");
  if (inspect) inspect(pipe);
  return out;
}

TEST(FederationDeterminismTest, FeedInvariantAcrossSiteMatrix) {
  const RunOutput baseline = run_pipeline(SiteProfile{}, 1, 1);
  EXPECT_GT(baseline.records_published, 0u);
  EXPECT_FALSE(baseline.outbox.empty());
  // Site count x producers x shards: demuxing the canonical stream across
  // N sensors and re-merging the union must reconstruct it exactly.
  for (const auto& [sites, producers, shards] :
       {std::tuple{2, 1, 1}, std::tuple{2, 2, 2}, std::tuple{4, 2, 2}}) {
    SiteProfile profile;
    profile.sites = sites;
    const RunOutput run = run_pipeline(profile, producers, shards);
    EXPECT_EQ(baseline.feed, run.feed)
        << "sites=" << sites << " producers=" << producers
        << " shards=" << shards;
    EXPECT_EQ(baseline.outbox, run.outbox) << "sites=" << sites;
    EXPECT_EQ(baseline.records_api, run.records_api) << "sites=" << sites;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api) << "sites=" << sites;
    EXPECT_EQ(baseline.records_published, run.records_published);
    EXPECT_EQ(baseline.scanners_detected, run.scanners_detected);
  }
}

TEST(FederationDeterminismTest, GlobalOutageProfileInvariantAcrossSites) {
  // Under a transport outage that hits every site's tunnel identically,
  // the feed changes (deliveries are delayed) but stays byte-identical
  // across site counts: every sighted site delivers at the same instant.
  SiteProfile outage1;
  outage1.global_outage = {3600.0 * 4, 3600.0 * 7};
  const RunOutput baseline = run_pipeline(outage1, 1, 1);
  EXPECT_GT(baseline.records_published, 0u);
  for (int sites : {2, 4}) {
    SiteProfile profile = outage1;
    profile.sites = sites;
    const RunOutput run = run_pipeline(profile, 2, 2);
    EXPECT_EQ(baseline.feed, run.feed) << "sites=" << sites;
    EXPECT_EQ(baseline.records_api, run.records_api) << "sites=" << sites;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api) << "sites=" << sites;
  }
  // And the outage did change the feed relative to the clean baseline.
  const RunOutput clean = run_pipeline(SiteProfile{}, 1, 1);
  EXPECT_NE(clean.feed, baseline.feed);
}

TEST(FederationAttributionTest, RecordsCarryPerSensorFirstSeen) {
  SiteProfile profile;
  profile.sites = 4;
  const RunOutput run =
      run_pipeline(profile, 1, 1, [&](ExIotPipeline& pipe) {
        // Random /8-wide scanners land in several sites' apertures: the
        // ledger dedups each into one source whose mask names every site
        // that captured it.
        const double multi_sensor_sources = pipe.metrics().gauge_value(
            "exiot_federation_multi_sensor_sources");
        std::size_t multi_sensor_records = 0;
        for (const auto& record :
             pipe.feed().published_between(0, hours(24 * 365))) {
          const std::uint64_t sites = pipe.federation().sites_of(record.src);
          ASSERT_NE(sites, 0u) << "published record no site captured: "
                               << record.src.to_string();
          EXPECT_LT(sites, 1u << profile.sites) << record.src.to_string();
          if (std::popcount(sites) > 1) ++multi_sensor_records;
        }
        EXPECT_GT(multi_sensor_records, 0u);
        EXPECT_GE(multi_sensor_sources,
                  static_cast<double>(multi_sensor_records));
      });
  EXPECT_GT(run.records_published, 0u);
}

TEST(FederationApertureTest, FewerActiveSitesShrinkDetection) {
  SiteProfile full;
  full.sites = 8;
  const RunOutput all = run_pipeline(full, 1, 1);
  SiteProfile quarter = full;
  quarter.active = 2;  // A quarter of the aperture.
  const RunOutput partial = run_pipeline(quarter, 1, 1);
  // A smaller aperture sees strictly less traffic and no more scanners.
  EXPECT_LT(partial.packets_processed, all.packets_processed);
  EXPECT_LE(partial.scanners_detected, all.scanners_detected);
  EXPECT_LE(partial.records_published, all.records_published);
  EXPECT_GT(partial.packets_processed, 0u);
}

}  // namespace
}  // namespace exiot::pipeline
