// Tests for the telescope synthesizer and capture: ordering, session
// windows, traffic composition, and the collection-latency model.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unistd.h>

#include "telescope/capture.h"
#include "telescope/synthesizer.h"

namespace exiot::telescope {
namespace {

namespace fs = std::filesystem;

Cidr scope() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

inet::PopulationConfig tiny_config() {
  inet::PopulationConfig c;
  c.days = 1;
  c.iot_per_day = 40;
  c.generic_per_day = 120;
  c.benign_per_day = 3;
  c.misconfig_per_day = 25;
  c.victims_per_day = 6;
  return c;
}

class SynthesizerTest : public ::testing::Test {
 protected:
  inet::WorldModel world_ = inet::WorldModel::standard(scope());
  inet::Population pop_ = inet::Population::generate(tiny_config(), world_);
};

TEST_F(SynthesizerTest, PacketsAreTimeOrderedAndInWindow) {
  TrafficSynthesizer synth(pop_, scope());
  TimeMicros last = -1;
  std::size_t n = synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    EXPECT_GE(p.ts, last);
    EXPECT_GE(p.ts, 0);
    EXPECT_LT(p.ts, kMicrosPerDay);
    last = p.ts;
  });
  EXPECT_GT(n, 1000u);

  // Hour by hour over three days: reappearance sessions can start while
  // a host's earlier session is still running, and its stream must not
  // step back in time — a stepped-back packet lands in a later hour's
  // window.
  inet::PopulationConfig config = tiny_config();
  config.days = 3;
  config.seed = 42;
  const inet::Population pop = inet::Population::generate(config, world_);
  TrafficSynthesizer hourly(pop, scope());
  std::size_t total = 0;
  std::size_t step_backs = 0;
  std::size_t out_of_window = 0;
  last = -1;
  for (int h = 0; h < 4 * 24; ++h) {
    total += hourly.run(hours(h), hours(h + 1), [&](const net::Packet& p) {
      if (p.ts < last) ++step_backs;
      if (p.ts < hours(h) || p.ts >= hours(h + 1)) ++out_of_window;
      last = p.ts;
    });
  }
  EXPECT_GT(total, n);
  EXPECT_EQ(step_backs, 0u);
  EXPECT_EQ(out_of_window, 0u);
}

TEST_F(SynthesizerTest, AllDestinationsInsideAperture) {
  TrafficSynthesizer synth(pop_, scope());
  synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    EXPECT_TRUE(scope().contains(p.dst)) << p.summary();
    EXPECT_FALSE(scope().contains(p.src)) << p.summary();
  });
}

TEST_F(SynthesizerTest, SourcesRespectTheirSessions) {
  TrafficSynthesizer synth(pop_, scope());
  synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    const inet::Host* h = pop_.find(p.src);
    ASSERT_NE(h, nullptr) << p.summary();
    bool inside = false;
    for (const auto& s : h->sessions) {
      if (p.ts >= s.start && p.ts <= s.end) inside = true;
    }
    EXPECT_TRUE(inside) << p.summary();
  });
}

TEST_F(SynthesizerTest, VictimsEmitOnlyBackscatter) {
  TrafficSynthesizer synth(pop_, scope());
  synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    const inet::Host* h = pop_.find(p.src);
    ASSERT_NE(h, nullptr);
    if (h->cls == inet::HostClass::kBackscatterVictim) {
      EXPECT_TRUE(net::is_backscatter(p)) << p.summary();
    } else if (h->cls == inet::HostClass::kInfectedIot ||
               h->cls == inet::HostClass::kInfectedGeneric ||
               h->cls == inet::HostClass::kBenignScanner) {
      EXPECT_FALSE(net::is_backscatter(p)) << p.summary();
    }
  });
}

TEST_F(SynthesizerTest, ScannersDeliverDetectableFlows) {
  // A healthy share of infected hosts must cross the TRW operational
  // thresholds (>=100 packets, inter-arrival <= 300s) or nothing downstream
  // can work.
  TrafficSynthesizer synth(pop_, scope());
  std::map<std::uint32_t, int> per_source;
  synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    per_source[p.src.value()]++;
  });
  int detectable_iot = 0, iot_total = 0;
  for (const auto& h : pop_.hosts()) {
    if (h.cls != inet::HostClass::kInfectedIot) continue;
    ++iot_total;
    auto it = per_source.find(h.addr.value());
    if (it != per_source.end() && it->second >= 100) ++detectable_iot;
  }
  EXPECT_GT(detectable_iot, iot_total / 3);
}

TEST_F(SynthesizerTest, MisconfiguredSourcesFailTrwMargins) {
  // Misconfiguration bursts must never satisfy BOTH operational margins:
  // either under 100 packets (trickles) or under 1 minute (fast bursts).
  TrafficSynthesizer synth(pop_, scope());
  std::map<std::uint32_t, std::pair<int, std::pair<TimeMicros, TimeMicros>>>
      per_source;
  synth.run(0, kMicrosPerDay, [&](const net::Packet& p) {
    auto& entry = per_source[p.src.value()];
    if (entry.first == 0) entry.second.first = p.ts;
    entry.second.second = p.ts;
    entry.first++;
  });
  for (const auto& h : pop_.hosts()) {
    if (h.cls != inet::HostClass::kMisconfigured) continue;
    auto it = per_source.find(h.addr.value());
    if (it == per_source.end()) continue;
    const auto& [count, span] = it->second;
    const bool passes_count = count >= 100;
    const bool passes_duration = span.second - span.first >= minutes(1);
    EXPECT_FALSE(passes_count && passes_duration) << h.addr.to_string();
  }
}

TEST_F(SynthesizerTest, WindowedRunsPartitionTheDay) {
  TrafficSynthesizer all(pop_, scope());
  std::size_t total = all.run(0, kMicrosPerDay, [](const net::Packet&) {});

  TrafficSynthesizer halves(pop_, scope());
  std::size_t first =
      halves.run(0, kMicrosPerDay / 2, [](const net::Packet&) {});
  std::size_t second = halves.run(kMicrosPerDay / 2, kMicrosPerDay,
                                  [](const net::Packet&) {});
  EXPECT_EQ(total, first + second);
}

TEST_F(SynthesizerTest, DeterministicAcrossRuns) {
  TrafficSynthesizer a(pop_, scope());
  TrafficSynthesizer b(pop_, scope());
  std::vector<net::Packet> pa, pb;
  a.run(0, hours(2), [&](const net::Packet& p) { pa.push_back(p); });
  b.run(0, hours(2), [&](const net::Packet& p) { pb.push_back(p); });
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]) << i;
}

TEST_F(SynthesizerTest, LiveListPrunesExhaustedStreams) {
  // Windowed emission compacts exhausted streams out of the live list so
  // later windows stop rescanning them — without changing the output.
  TrafficSynthesizer whole(pop_, scope());
  std::vector<net::Packet> reference;
  whole.run(0, kMicrosPerDay,
            [&](const net::Packet& p) { reference.push_back(p); });

  TrafficSynthesizer windowed(pop_, scope());
  const std::size_t streams_start = windowed.live_streams();
  ASSERT_GT(streams_start, 0u);
  std::vector<net::Packet> out;
  for (int h = 0; h < 24; ++h) {
    windowed.run(hours(h), hours(h + 1),
                 [&](const net::Packet& p) { out.push_back(p); });
  }
  // Sessions end through the day: by the last window many streams are
  // pruned and their window-entry scans skipped.
  EXPECT_GT(windowed.streams_pruned(), 0u);
  EXPECT_LT(windowed.live_streams(), streams_start);
  EXPECT_GT(windowed.dead_stream_scans_avoided(), 0u);
  EXPECT_EQ(windowed.live_streams() + windowed.streams_pruned(),
            streams_start);
  // Pruning is an optimization only: the stream is unchanged.
  ASSERT_EQ(out.size(), reference.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], reference[i]) << "diverges at packet " << i;
  }
}

TEST(CollectionModelTest, FileReadyAfterHourPlusDelay) {
  CollectionModel model;
  EXPECT_EQ(model.file_ready_time(0), kMicrosPerHour + hours(3.5));
  EXPECT_EQ(model.file_ready_time(5), 6 * kMicrosPerHour + hours(3.5));
}

TEST(CaptureTest, WritesManifestAndFiles) {
  auto world = inet::WorldModel::standard(scope());
  auto pop = inet::Population::generate(tiny_config(), world);
  TrafficSynthesizer synth(pop, scope());
  auto dir = fs::temp_directory_path() /
             ("exiot_capture_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  CollectionModel model;
  auto manifest = capture_to_files(synth, 0, hours(3), dir, model);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest.value().empty());

  std::size_t manifest_total = 0;
  std::size_t disk_total = 0;
  for (const auto& hour : manifest.value()) {
    EXPECT_TRUE(fs::exists(hour.file)) << hour.file;
    EXPECT_EQ(hour.ready_time, model.file_ready_time(hour.hour_index));
    manifest_total += hour.packet_count;
    auto n = trace::read_trace_file(hour.file, [&](const net::Packet& p) {
      EXPECT_EQ(p.ts / kMicrosPerHour, hour.hour_index);
    });
    ASSERT_TRUE(n.ok());
    disk_total += n.value();
  }
  EXPECT_EQ(manifest_total, disk_total);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace exiot::telescope
