// Property and oracle tests: the flow detector is checked against a naive
// reference implementation over randomized traffic, and cross-module
// invariants are exercised under parameter sweeps.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "flow/detector.h"
#include "pipeline/exiot.h"
#include "pipeline/report_store.h"
#include "telescope/synthesizer.h"

namespace exiot {
namespace {

Cidr scope() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

/// A deliberately simple O(n^2)-ish reference for "which sources should be
/// flagged as scanners": replays the exact threshold semantics on a fully
/// materialized per-source packet list.
std::set<std::uint32_t> reference_scanners(
    const std::vector<net::Packet>& packets,
    const flow::DetectorConfig& config) {
  std::map<std::uint32_t, std::vector<TimeMicros>> arrivals;
  for (const auto& pkt : packets) {
    if (net::is_backscatter(pkt)) continue;
    arrivals[pkt.src.value()].push_back(pkt.ts);
  }
  std::set<std::uint32_t> flagged;
  for (const auto& [src, times] : arrivals) {
    // Walk the arrivals, restarting on >max_gap holes; flag when a run
    // reaches the packet threshold with at least min_duration spanned.
    std::size_t run_start = 0;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (i > 0 && times[i] - times[i - 1] > config.max_gap) run_start = i;
      const std::size_t run_len = i - run_start + 1;
      if (run_len >= static_cast<std::size_t>(
                         config.scanner_packet_threshold) &&
          times[i] - times[run_start] >= config.min_duration) {
        flagged.insert(src);
        break;
      }
    }
  }
  return flagged;
}

/// Generates randomized traffic directly (not via the population), mixing
/// bursty, steady, and gappy sources.
std::vector<net::Packet> random_traffic(std::uint64_t seed, int sources) {
  Rng rng(seed);
  std::vector<net::Packet> out;
  for (int s = 0; s < sources; ++s) {
    const Ipv4 src(static_cast<std::uint32_t>(0x0A000000u +
                                              rng.next_below(1u << 24)));
    TimeMicros ts = static_cast<TimeMicros>(rng.next_double() * hours(2));
    const int bursts = static_cast<int>(rng.uniform_int(1, 4));
    for (int b = 0; b < bursts; ++b) {
      const int n = static_cast<int>(rng.uniform_int(5, 260));
      const double rate = rng.uniform(0.05, 50.0);
      for (int i = 0; i < n; ++i) {
        ts += static_cast<TimeMicros>(rng.exponential(rate) *
                                      kMicrosPerSecond);
        net::Packet p = net::make_syn(
            ts, src, scope().address_at(rng.next_below(scope().size())),
            40000, static_cast<std::uint16_t>(rng.uniform_int(1, 65535)));
        if (rng.bernoulli(0.1)) {
          p.flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;  // Bscatter.
        }
        out.push_back(p);
      }
      ts += static_cast<TimeMicros>(rng.uniform(1.0, 900.0) *
                                    kMicrosPerSecond);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const net::Packet& a, const net::Packet& b) {
              return a.ts < b.ts;
            });
  return out;
}

class DetectorOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorOracle, MatchesReferenceImplementation) {
  const auto traffic = random_traffic(GetParam(), 40);
  flow::DetectorConfig config;
  std::set<std::uint32_t> flagged;
  flow::DetectorEvents events;
  events.on_scanner = [&](const flow::FlowSummary& s) {
    flagged.insert(s.src.value());
  };
  flow::FlowDetector detector(config, std::move(events));
  for (const auto& pkt : traffic) detector.process(pkt);
  detector.finish();

  EXPECT_EQ(flagged, reference_scanners(traffic, config))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorOracle,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

class DetectorEventOrdering : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DetectorEventOrdering, EventsFollowProtocol) {
  // Invariants: every sample and END_FLOW is preceded by a scanner event
  // for that source; a source's sample never exceeds the configured size;
  // per-second report totals equal the packet count.
  const auto traffic = random_traffic(GetParam() * 7919, 30);
  flow::DetectorConfig config;
  config.sample_count = 50;

  std::set<std::uint32_t> announced;
  std::map<std::uint32_t, std::size_t> sampled;
  std::uint64_t reported_total = 0;
  flow::DetectorEvents events;
  events.on_scanner = [&](const flow::FlowSummary& s) {
    announced.insert(s.src.value());
  };
  events.on_sample = [&](Ipv4 src, const std::vector<net::Packet>& pkts) {
    EXPECT_TRUE(announced.contains(src.value())) << src.to_string();
    EXPECT_LE(pkts.size(), 50u);
    EXPECT_FALSE(pkts.empty());
    sampled[src.value()] += pkts.size();
    for (std::size_t i = 1; i < pkts.size(); ++i) {
      EXPECT_LE(pkts[i - 1].ts, pkts[i].ts);
    }
  };
  events.on_flow_end = [&](const flow::FlowSummary& s) {
    EXPECT_TRUE(announced.contains(s.src.value())) << s.src.to_string();
    EXPECT_LE(s.first_seen, s.last_seen);
  };
  events.on_report = [&](const flow::SecondReport& r) {
    reported_total += r.total;
  };

  flow::FlowDetector detector(config, std::move(events));
  for (const auto& pkt : traffic) detector.process(pkt);
  detector.finish();

  EXPECT_EQ(reported_total, traffic.size());
  for (const auto& [src, count] : sampled) {
    EXPECT_LE(count, 50u) << Ipv4(src).to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorEventOrdering,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------- Reports ----

TEST(ReportStoreTest, AggregatesAcrossSecondsIntoHours) {
  pipeline::ReportStore store;
  for (int s = 0; s < 10; ++s) {
    flow::SecondReport r;
    r.second_start = hours(3) + s * kMicrosPerSecond;
    r.total = 100;
    r.tcp = 80;
    r.udp = 15;
    r.icmp = 5;
    r.new_scanners = s == 0 ? 2 : 0;
    r.per_port[23] = 40;
    store.ingest(r);
  }
  auto hour = store.hour(3);
  ASSERT_TRUE(hour.has_value());
  EXPECT_EQ(hour->packets, 1000u);
  EXPECT_EQ(hour->tcp, 800u);
  EXPECT_EQ(hour->new_scanners, 2u);
  EXPECT_EQ(hour->active_seconds, 10u);
  EXPECT_EQ(hour->peak_pps, 100u);
  EXPECT_EQ(hour->per_port.at(23), 400u);
  EXPECT_FALSE(store.hour(4).has_value());
}

TEST(ReportStoreTest, TotalsSpanHours) {
  pipeline::ReportStore store;
  for (int h = 0; h < 3; ++h) {
    flow::SecondReport r;
    r.second_start = h * kMicrosPerHour;
    r.total = 50 * (h + 1);
    store.ingest(r);
  }
  auto totals = store.totals();
  EXPECT_EQ(totals.packets, 50u + 100u + 150u);
  EXPECT_EQ(totals.peak_pps, 150u);
  EXPECT_EQ(store.all_hours().size(), 3u);
  EXPECT_EQ(store.hours_recorded(), 3u);
}

TEST(ReportStoreTest, JsonExportCarriesFields) {
  pipeline::ReportStore store;
  flow::SecondReport r;
  r.second_start = hours(7);
  r.total = 42;
  r.per_port[2323] = 7;
  store.ingest(r);
  auto doc = store.hour(7)->to_json();
  EXPECT_EQ(doc.get_int("hour"), 7);
  EXPECT_EQ(doc.get_int("packets"), 42);
  EXPECT_EQ(doc.find("per_port")->get_int("2323"), 7);
  EXPECT_GT(doc.get_double("mean_pps"), 0.0);
}

TEST(ReportStoreTest, PipelineEndToEndFillsStore) {
  auto world = inet::WorldModel::standard(scope());
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 80;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  auto pop = inet::Population::generate(config, world);
  pipeline::ExIotPipeline pipe(pop, world, {});
  pipe.run_days(0, 1);
  pipe.finish();
  EXPECT_GT(pipe.reports().hours_recorded(), 10u);
  EXPECT_EQ(pipe.reports().totals().packets,
            pipe.metrics().counter_value(
                "exiot_detector_packets_processed_total"));
}

}  // namespace
}  // namespace exiot
