// Tests for the telescope synthesizer and capture: ordering, session
// windows, traffic composition, the slice merge's edge cases against the
// brute-force reference merge, and the collection-latency model.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <unistd.h>

#include "pipeline/producer.h"
#include "reference_merge.h"
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

// ------------------------------------------------------- Slice merge ----

constexpr TimeMicros kSlice = TimeMicros{1} << SliceMerge::kSliceBits;

std::vector<net::Packet> synth_window(TrafficSynthesizer& synth,
                                      TimeMicros t0, TimeMicros t1) {
  std::vector<net::Packet> out;
  const std::size_t n =
      synth.run(t0, t1, [&out](const net::Packet& p) { out.push_back(p); });
  EXPECT_EQ(n, out.size());
  return out;
}

std::vector<net::Packet> producer_window(const inet::Population& pop,
                                         int producers, TimeMicros t0,
                                         TimeMicros t1) {
  pipeline::ProducerConfig config;
  config.num_producers = producers;
  config.batch_size = 64;
  pipeline::ParallelProducer producer(pop, scope(), config);
  std::vector<net::Packet> out;
  producer.emit_batches(t0, t1, 100, [&out](const net::PacketBatch& batch) {
    out.insert(out.end(), batch.packets().begin(), batch.packets().end());
  });
  return out;
}

void expect_same_stream(const std::vector<net::Packet>& got,
                        const std::vector<net::Packet>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << ": diverges at packet " << i;
  }
}

TEST_F(SynthesizerTest, WindowsOffTheSliceGridMatchReference) {
  struct Window {
    const char* name;
    TimeMicros t0, t1;
  };
  const Window windows[] = {
      {"[1us, 3 slices + 17us)", 1, 3 * kSlice + 17},
      {"shorter than a slice", 5 * kSlice - 1000, 5 * kSlice + kSlice / 3},
      {"inside one slice", 7 * kSlice + 10, 7 * kSlice + 20'000},
      {"empty", 9 * kSlice + 3, 9 * kSlice + 3},
      {"26 hours", 0, hours(26)},
  };
  for (const Window& w : windows) {
    TrafficSynthesizer synth(pop_, scope());
    const auto got = synth_window(synth, w.t0, w.t1);
    expect_same_stream(got, oracle::reference_merge(pop_, scope(), w.t0, w.t1),
                       w.name);
    if (w.t0 == w.t1) {
      EXPECT_TRUE(got.empty());
    }
  }

  // The same windows back to back on one synthesizer (streams carried
  // across windows, empty ones included).
  TrafficSynthesizer chained(pop_, scope());
  const TimeMicros cuts[] = {0, 1, 3 * kSlice + 17, 3 * kSlice + 17,
                             4 * kSlice + 1, hours(26)};
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    expect_same_stream(
        synth_window(chained, cuts[i], cuts[i + 1]),
        oracle::reference_merge(pop_, scope(), cuts[i], cuts[i + 1]),
        "chained window " + std::to_string(i));
  }
}

/// A population of `tied` misconfigured hosts sharing one session at 1e9
/// pps — every inter-arrival floors at 1 µs, so all of them emit on the
/// same microseconds — plus a host that goes quiet for five hours
/// between two sessions.
inet::Population tied_population(const inet::WorldModel& world, int tied,
                                 TimeMicros start) {
  inet::PopulationConfig config = tiny_config();
  inet::Population pop = inet::Population::generate(config, world);
  for (int i = 0; i < tied; ++i) {
    inet::Host host;
    host.addr = Ipv4(198, 51, 100, static_cast<std::uint8_t>(10 + i));
    EXPECT_EQ(pop.find(host.addr), nullptr);
    host.cls = inet::HostClass::kMisconfigured;
    host.sessions.push_back({start, start + 5000, 1e9});
    host.seed = 1000 + static_cast<std::uint64_t>(i);
    pop.inject_host(host);
  }
  inet::Host sparse;
  sparse.addr = Ipv4(198, 51, 100, 200);
  sparse.cls = inet::HostClass::kMisconfigured;
  sparse.sessions.push_back({hours(30), hours(30) + minutes(10), 1.0});
  sparse.sessions.push_back({hours(35), hours(35) + minutes(10), 1.0});
  sparse.seed = 7;
  pop.inject_host(sparse);
  return pop;
}

TEST_F(SynthesizerTest, TiedTimestampsComeOutInHostOrder) {
  constexpr int kTied = 4;
  const TimeMicros start = 6 * kSlice - 300;  // The window crosses a slice.
  const inet::Population pop = tied_population(world_, kTied, start);
  const TimeMicros t0 = start;
  const TimeMicros t1 = start + 1000;
  const auto reference = oracle::reference_merge(pop, scope(), t0, t1);

  TrafficSynthesizer synth(pop, scope());
  expect_same_stream(synth_window(synth, t0, t1), reference, "serial");
  for (const int producers : {1, 4}) {
    const auto got = producer_window(pop, producers, t0, t1);
    expect_same_stream(got, reference,
                       std::to_string(producers) + " producers");
    std::size_t ties = 0;
    for (std::size_t i = 1; i < got.size(); ++i) {
      if (got[i].ts != got[i - 1].ts) continue;
      ++ties;
      EXPECT_LT(pop.find(got[i - 1].src)->id, pop.find(got[i].src)->id)
          << "tie at ts " << got[i].ts << ", row " << i;
    }
    EXPECT_GE(ties, static_cast<std::size_t>(kTied - 1) * 999);
  }

  // The quiet host: its second session starts hours past the first (and
  // past the calendar's ring of slice heads).
  TrafficSynthesizer quiet(pop, scope());
  expect_same_stream(synth_window(quiet, hours(29), hours(40)),
                     oracle::reference_merge(pop, scope(), hours(29),
                                             hours(40)),
                     "idle gap");
}

TEST_F(SynthesizerTest, EarlyStopReturnsTheRowsEmitted) {
  std::vector<HostStream> streams;
  std::vector<std::uint32_t> live;
  for (const inet::Host& host : pop_.hosts()) {
    live.push_back(static_cast<std::uint32_t>(streams.size()));
    streams.emplace_back(pop_, host, scope());
  }
  const auto reference =
      oracle::reference_merge(pop_, scope(), 0, kMicrosPerDay);
  constexpr std::size_t kStopAfter = 1234;
  ASSERT_GT(reference.size(), 10 * kStopAfter);

  SliceMerge merge;
  net::PacketBatch batch;
  std::size_t pruned = 0;
  std::vector<std::uint32_t> row_hosts;
  const std::size_t n = emit_window_rows(
      streams, nullptr, live, 0, kMicrosPerDay, pruned, merge, batch,
      [&row_hosts](std::uint32_t host) {
        row_hosts.push_back(host);
        return row_hosts.size() < kStopAfter;
      });
  EXPECT_EQ(n, kStopAfter);
  ASSERT_EQ(batch.size(), kStopAfter);
  ASSERT_EQ(row_hosts.size(), kStopAfter);
  for (std::size_t i = 0; i < kStopAfter; ++i) {
    ASSERT_EQ(batch[i], reference[i]) << "row " << i;
    EXPECT_EQ(row_hosts[i], static_cast<std::uint32_t>(
                                pop_.find(batch[i].src)->id))
        << "row " << i;
  }
}

TEST(SliceKeyTest, SortsDuplicatesAndTheLargestFields) {
  constexpr std::uint64_t kMaxOffset = kSlice - 1;
  constexpr std::uint32_t kMaxHost = std::numeric_limits<std::uint32_t>::max();
  const SliceKeyLayout layout = SliceKeyLayout::make(kMaxHost, 8);
  EXPECT_EQ(layout.host_bits, 32u);
  EXPECT_EQ(layout.row_bits, 3u);

  // Staged (row) order is deliberately not host order; rows 3/4 and 0/6
  // share their (offset, host) and must keep their staged order.
  const std::pair<std::uint64_t, std::uint32_t> staged[] = {
      {kMaxOffset, kMaxHost}, {0, kMaxHost}, {kMaxOffset, 0}, {5, 7},
      {5, 7},                 {0, 0},        {kMaxOffset, kMaxHost}, {5, 6}};
  std::vector<std::uint64_t> keys;
  for (std::size_t row = 0; row < std::size(staged); ++row) {
    keys.push_back(layout.pack(staged[row].first, staged[row].second, row));
  }
  std::vector<std::uint64_t> tmp;
  sort_slice_keys(keys, tmp, layout);
  const std::size_t want_rows[] = {5, 1, 7, 3, 4, 2, 0, 6};
  ASSERT_EQ(keys.size(), std::size(want_rows));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t row = layout.row(keys[i]);
    EXPECT_EQ(row, want_rows[i]) << "position " << i;
    EXPECT_EQ(layout.host(keys[i]), staged[row].second) << "position " << i;
    EXPECT_EQ(keys[i] >> (layout.row_bits + layout.host_bits),
              staged[row].first)
        << "position " << i;
  }

  // Too wide for 64 bits: refused loudly, never truncated.
  EXPECT_THROW(SliceKeyLayout::make(kMaxHost, 2048), std::length_error);
  EXPECT_NO_THROW(SliceKeyLayout::make(kMaxHost, 1024));
  const SliceKeyLayout narrow = SliceKeyLayout::make(0, 1);
  EXPECT_EQ(narrow.host_bits, 0u);
  EXPECT_EQ(narrow.row_bits, 0u);
}

TEST(SliceKeyTest, MatchesAComparisonSort) {
  // Random keys, staged in random order and host by host (the order the
  // merge stages a slice in), with many offsets tied.
  std::mt19937_64 gen(42);
  constexpr std::size_t kRows = 5000;
  constexpr std::uint32_t kHosts = 7680;
  const SliceKeyLayout layout = SliceKeyLayout::make(kHosts - 1, kRows);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> rows(kRows);
  for (auto& [host, offset] : rows) {
    host = static_cast<std::uint32_t>(gen() % kHosts);
    offset = gen() % 64 == 0 ? 17 : gen() % static_cast<std::uint64_t>(kSlice);
  }
  for (const bool host_major : {false, true}) {
    if (host_major) std::stable_sort(rows.begin(), rows.end());
    std::vector<std::uint64_t> keys;
    for (std::size_t row = 0; row < kRows; ++row) {
      keys.push_back(layout.pack(rows[row].second, rows[row].first, row));
    }
    std::vector<std::uint64_t> want = keys;
    std::sort(want.begin(), want.end());  // (offset, host, row).
    std::vector<std::uint64_t> tmp;
    sort_slice_keys(keys, tmp, layout);
    EXPECT_EQ(keys, want) << (host_major ? "host-major" : "shuffled");
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
    auto n =
        trace::read_trace_file(hour.file, [&](const net::PacketBatch& batch) {
          for (const net::Packet& p : batch.packets()) {
            EXPECT_EQ(p.ts / kMicrosPerHour, hour.hour_index);
          }
        });
    ASSERT_TRUE(n.ok());
    disk_total += n.value();
  }
  EXPECT_EQ(manifest_total, disk_total);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace exiot::telescope
