// Tests for the flow module: the TRW sequential test, the source table,
// and the operational flow detector (thresholds, sampling, expiry,
// reports), including its whole event stream against a plain reference
// model (tests/reference_detector.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "flow/detector.h"
#include "flow/source_table.h"
#include "flow/trw.h"
#include "reference_detector.h"

namespace exiot::flow {
namespace {

// ---------------------------------------------------------------- TRW ----

TEST(TrwTest, AllFailuresConvergeToScanner) {
  TrwState state;
  TrwVerdict v = TrwVerdict::kPending;
  int steps = 0;
  while (v == TrwVerdict::kPending && steps < 100) {
    v = state.observe(false);
    ++steps;
  }
  EXPECT_EQ(v, TrwVerdict::kScanner);
  EXPECT_EQ(steps, TrwState::failures_to_detect(TrwParams{}));
}

TEST(TrwTest, AllSuccessesConvergeToBenign) {
  TrwState state;
  TrwVerdict v = TrwVerdict::kPending;
  for (int i = 0; i < 100 && v == TrwVerdict::kPending; ++i) {
    v = state.observe(true);
  }
  EXPECT_EQ(v, TrwVerdict::kBenign);
}

TEST(TrwTest, VerdictIsSticky) {
  TrwState state;
  while (state.observe(false) == TrwVerdict::kPending) {
  }
  EXPECT_EQ(state.verdict(), TrwVerdict::kScanner);
  // Later successes cannot undo an accepted hypothesis.
  EXPECT_EQ(state.observe(true), TrwVerdict::kScanner);
}

TEST(TrwTest, MixedOutcomesMoveRatioBothWays) {
  TrwState state;
  (void)state.observe(false);
  const double after_fail = state.log_likelihood_ratio();
  EXPECT_GT(after_fail, 0.0);
  (void)state.observe(true);
  EXPECT_LT(state.log_likelihood_ratio(), after_fail);
}

TEST(TrwTest, StricterAlphaNeedsMoreEvidence) {
  TrwParams loose;
  loose.alpha = 1e-3;
  TrwParams strict;
  strict.alpha = 1e-9;
  EXPECT_LT(TrwState::failures_to_detect(loose),
            TrwState::failures_to_detect(strict));
}

// ----------------------------------------------------------- Detector ----

/// Test fixture capturing all detector events.
class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest() { reset(DetectorConfig{}); }

  void reset(DetectorConfig config) {
    scanners_.clear();
    samples_.clear();
    ends_.clear();
    reports_.clear();
    DetectorEvents events;
    events.on_scanner = [this](const FlowSummary& s) {
      scanners_.push_back(s);
    };
    events.on_sample = [this](Ipv4 src,
                              const std::vector<net::Packet>& pkts) {
      samples_.emplace_back(src, pkts);
    };
    events.on_flow_end = [this](const FlowSummary& s) {
      ends_.push_back(s);
    };
    events.on_report = [this](const SecondReport& r) {
      reports_.push_back(r);
    };
    detector_.emplace(config, std::move(events),
                      std::vector<std::uint16_t>{23, 80});
  }

  /// Feeds `n` SYNs from `src` starting at `start`, spaced by `gap`.
  TimeMicros feed(Ipv4 src, int n, TimeMicros start, TimeMicros gap) {
    TimeMicros ts = start;
    for (int i = 0; i < n; ++i) {
      detector_->process(net::make_syn(ts, src, Ipv4(44, 0, 0, 1), 40000,
                                       23, static_cast<std::uint32_t>(i)));
      ts += gap;
    }
    return ts - gap;
  }

  std::optional<FlowDetector> detector_;
  std::vector<FlowSummary> scanners_;
  std::vector<std::pair<Ipv4, std::vector<net::Packet>>> samples_;
  std::vector<FlowSummary> ends_;
  std::vector<SecondReport> reports_;
};

TEST_F(DetectorTest, DetectsSustainedScanner) {
  feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  ASSERT_EQ(scanners_.size(), 1u);
  EXPECT_EQ(scanners_[0].src, Ipv4(1, 2, 3, 4));
  // Detection at the 100th packet (1-min duration already satisfied at
  // packet 100 given 1s spacing).
  EXPECT_EQ(scanners_[0].total_packets, 100u);
}

TEST_F(DetectorTest, BelowPacketThresholdNotDetected) {
  feed(Ipv4(1, 2, 3, 4), 99, 0, seconds(1));
  EXPECT_TRUE(scanners_.empty());
}

TEST_F(DetectorTest, ShortBurstNotDetected) {
  // 150 packets in 15 ms: crosses the packet threshold but not the 1-minute
  // duration floor — the misconfiguration filter.
  feed(Ipv4(1, 2, 3, 4), 150, 0, 100);
  EXPECT_TRUE(scanners_.empty());
}

TEST_F(DetectorTest, BurstThenSustainedIsDetectedOnceDurationMet) {
  // The duration check is evaluated as packets keep arriving.
  feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(2));
  ASSERT_EQ(scanners_.size(), 1u);
  EXPECT_GE(scanners_[0].detect_time - scanners_[0].first_seen, minutes(1));
}

TEST_F(DetectorTest, LargeGapResetsPendingFlow) {
  feed(Ipv4(1, 2, 3, 4), 60, 0, seconds(1));
  // 10-minute silence, then 60 more packets: the paper's 300 s inter-
  // arrival cap means the flow restarts and never reaches 100.
  feed(Ipv4(1, 2, 3, 4), 60, minutes(10), seconds(1));
  EXPECT_TRUE(scanners_.empty());
  EXPECT_GE(detector_->stats().pending_resets, 1u);
}

TEST_F(DetectorTest, GapDoesNotResetDetectedScanner) {
  feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  ASSERT_EQ(scanners_.size(), 1u);
  // Detected scanners only have last_seen refreshed, even after a gap.
  feed(Ipv4(1, 2, 3, 4), 10, minutes(20), seconds(1));
  EXPECT_EQ(scanners_.size(), 1u);
}

TEST_F(DetectorTest, SamplesExactlyConfiguredCount) {
  DetectorConfig config;
  config.sample_count = 50;
  reset(config);
  feed(Ipv4(1, 2, 3, 4), 100 + 50 + 30, 0, seconds(1));
  ASSERT_EQ(samples_.size(), 1u);
  EXPECT_EQ(samples_[0].second.size(), 50u);
  // The sample starts right after the detection packet.
  EXPECT_EQ(samples_[0].second.front().seq, 100u);
}

TEST_F(DetectorTest, BackscatterIsFilteredBeforeFlowTracking) {
  for (int i = 0; i < 200; ++i) {
    net::Packet p = net::make_syn(seconds(i), Ipv4(9, 9, 9, 9),
                                  Ipv4(44, 0, 0, 1), 80, 40000);
    p.flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
    detector_->process(p);
  }
  EXPECT_TRUE(scanners_.empty());
  EXPECT_EQ(detector_->stats().backscatter_filtered, 200u);
  EXPECT_EQ(detector_->tracked_sources(), 0u);
}

TEST_F(DetectorTest, EndOfHourExpiresIdleScanner) {
  const TimeMicros last = feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  detector_->end_of_hour(last + minutes(30));
  EXPECT_TRUE(ends_.empty());  // Only 30 minutes idle.
  detector_->end_of_hour(last + kMicrosPerHour + seconds(1));
  ASSERT_EQ(ends_.size(), 1u);
  EXPECT_EQ(ends_[0].src, Ipv4(1, 2, 3, 4));
  EXPECT_EQ(ends_[0].last_seen, last);
}

TEST_F(DetectorTest, IncompleteSampleShipsOnExpiry) {
  DetectorConfig config;
  config.sample_count = 200;
  reset(config);
  const TimeMicros last = feed(Ipv4(1, 2, 3, 4), 130, 0, seconds(1));
  detector_->end_of_hour(last + 2 * kMicrosPerHour);
  ASSERT_EQ(samples_.size(), 1u);
  EXPECT_EQ(samples_[0].second.size(), 30u);  // 130 - 100 detection packets.
}

TEST_F(DetectorTest, FinishFlushesEverything) {
  feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  feed(Ipv4(5, 6, 7, 8), 150, 0, seconds(1));
  detector_->finish();
  EXPECT_EQ(ends_.size(), 2u);
  EXPECT_EQ(detector_->tracked_sources(), 0u);
}

TEST_F(DetectorTest, PerSecondReportsCountProtocolsAndPorts) {
  // 3 TCP to port 23 in second 0, 2 UDP in second 1.
  for (int i = 0; i < 3; ++i) {
    detector_->process(net::make_syn(seconds(0.1) * (i + 1),
                                     Ipv4(1, 1, 1, 1), Ipv4(44, 0, 0, 1),
                                     40000, 23));
  }
  for (int i = 0; i < 2; ++i) {
    net::Packet p;
    p.ts = seconds(1) + i * 1000;
    p.proto = net::IpProto::kUdp;
    p.src = Ipv4(2, 2, 2, 2);
    p.dst = Ipv4(44, 0, 0, 2);
    p.src_port = 999;
    p.dst_port = 53;
    detector_->process(p);
  }
  detector_->finish();
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[0].total, 3u);
  EXPECT_EQ(reports_[0].tcp, 3u);
  EXPECT_EQ(reports_[0].per_port.at(23), 3u);
  EXPECT_EQ(reports_[1].udp, 2u);
  EXPECT_EQ(reports_[1].per_port.count(53), 0u);  // 53 not a report port.
}

TEST_F(DetectorTest, DistinctSourcesTrackedIndependently) {
  feed(Ipv4(1, 1, 1, 1), 150, 0, seconds(1));
  feed(Ipv4(2, 2, 2, 2), 99, 0, seconds(1));
  EXPECT_EQ(scanners_.size(), 1u);
  EXPECT_EQ(detector_->stats().scanners_detected, 1u);
  EXPECT_EQ(detector_->tracked_sources(), 2u);
}

TEST_F(DetectorTest, ExpiredScannerIsRedetectedOnReturn) {
  const TimeMicros last = feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  detector_->end_of_hour(last + kMicrosPerHour + seconds(1));
  ASSERT_EQ(ends_.size(), 1u);
  EXPECT_EQ(detector_->tracked_sources(), 0u);
  // The source comes back after expiry: a fresh flow, a second detection.
  feed(Ipv4(1, 2, 3, 4), 150, last + 3 * kMicrosPerHour, seconds(1));
  EXPECT_EQ(scanners_.size(), 2u);
  EXPECT_EQ(detector_->stats().scanners_detected, 2u);
  detector_->finish();
  EXPECT_EQ(ends_.size(), 2u);
}

TEST_F(DetectorTest, PerPortReportsExcludeBackscatter) {
  // A SYN/ACK reply landing on report port 23 is backscatter: it must be
  // counted as filtered, not as port-23 scan traffic.
  net::Packet reply = net::make_syn(seconds(0.2), Ipv4(9, 9, 9, 9),
                                    Ipv4(44, 0, 0, 1), 80, 23);
  reply.flags = net::tcp_flags::kSyn | net::tcp_flags::kAck;
  detector_->process(reply);
  detector_->process(net::make_syn(seconds(0.4), Ipv4(1, 2, 3, 4),
                                   Ipv4(44, 0, 0, 1), 40000, 23));
  detector_->finish();
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].total, 2u);
  EXPECT_EQ(reports_[0].backscatter_filtered, 1u);
  EXPECT_EQ(reports_[0].per_port.at(23), 1u);  // Only the real SYN.
}

TEST_F(DetectorTest, EndOfHourFlushesOpenReport) {
  // Three packets inside one second, then the hour ends: the report for
  // that second must ship at the barrier, not lag until the next packet.
  for (int i = 0; i < 3; ++i) {
    detector_->process(net::make_syn(seconds(10) + i * 1000,
                                     Ipv4(1, 1, 1, 1), Ipv4(44, 0, 0, 1),
                                     40000, 23));
  }
  EXPECT_TRUE(reports_.empty());
  detector_->end_of_hour(kMicrosPerHour);
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].second_start, seconds(10));
  EXPECT_EQ(reports_[0].total, 3u);
  detector_->finish();  // Nothing left open: no duplicate report.
  EXPECT_EQ(reports_.size(), 1u);
}

TEST_F(DetectorTest, ExpiryOrderIsDeterministic) {
  // Fed out of address order; expiry events must come back sorted by
  // source so the stream is identical across hash layouts/shard counts.
  feed(Ipv4(9, 0, 0, 1), 150, 0, seconds(1));
  feed(Ipv4(1, 0, 0, 1), 150, 0, seconds(1));
  feed(Ipv4(5, 0, 0, 1), 150, 0, seconds(1));
  detector_->finish();
  ASSERT_EQ(ends_.size(), 3u);
  EXPECT_EQ(ends_[0].src, Ipv4(1, 0, 0, 1));
  EXPECT_EQ(ends_[1].src, Ipv4(5, 0, 0, 1));
  EXPECT_EQ(ends_[2].src, Ipv4(9, 0, 0, 1));
}

TEST_F(DetectorTest, FinishedSampleBufferIsReused) {
  // Two scanners one after the other: the second detection reuses the
  // first's finished sample buffer, and its sample holds only its own
  // packets.
  DetectorConfig config;
  config.sample_count = 50;
  reset(config);
  const TimeMicros last = feed(Ipv4(1, 2, 3, 4), 150, 0, seconds(1));
  feed(Ipv4(5, 6, 7, 8), 150, last + seconds(1), seconds(1));
  ASSERT_EQ(samples_.size(), 2u);
  EXPECT_EQ(samples_[1].first, Ipv4(5, 6, 7, 8));
  ASSERT_EQ(samples_[1].second.size(), 50u);
  for (const net::Packet& p : samples_[1].second) {
    EXPECT_EQ(p.src, Ipv4(5, 6, 7, 8));
  }
  EXPECT_EQ(detector_->sample_buffers(), 1u);
}

TEST_F(DetectorTest, DuplicateReportPortCountedOnce) {
  std::vector<SecondReport> reports;
  DetectorEvents events;
  events.on_report = [&reports](const SecondReport& r) {
    reports.push_back(r);
  };
  FlowDetector det(DetectorConfig{}, std::move(events), {80, 23, 80, 2323});
  for (std::uint16_t port : {2323, 80, 23, 80}) {
    det.process(net::make_syn(seconds(0.5), Ipv4(1, 1, 1, 1),
                              Ipv4(44, 0, 0, 1), 40000, port));
  }
  det.finish();
  ASSERT_EQ(reports.size(), 1u);
  const std::vector<std::pair<std::uint16_t, std::uint64_t>> ports(
      reports[0].per_port.begin(), reports[0].per_port.end());
  const std::vector<std::pair<std::uint16_t, std::uint64_t>> expected{
      {23, 1}, {80, 2}, {2323, 1}};
  EXPECT_EQ(ports, expected);  // Ascending, each port once.
}

// ---------------------------------------------------------- PortCounts ----

TEST(PortCountsTest, ReadsLikeASortedMap) {
  PortCounts counts;
  EXPECT_TRUE(counts.empty());
  counts[443] = 5;
  counts[22] += 2;
  counts[8080] = 1;
  counts[22] += 1;
  EXPECT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts.at(22), 3u);
  EXPECT_EQ(counts.count(443), 1u);
  EXPECT_EQ(counts.count(23), 0u);
  EXPECT_THROW((void)counts.at(23), std::out_of_range);
  std::vector<std::uint16_t> order;
  for (const auto& [port, n] : counts) order.push_back(port);
  EXPECT_EQ(order, (std::vector<std::uint16_t>{22, 443, 8080}));
  counts.clear();
  EXPECT_TRUE(counts.empty());
  EXPECT_EQ(counts.count(22), 0u);
}

// --------------------------------------------------------- SourceTable ----

struct Cell {
  std::uint64_t a = 0;
  std::uint32_t b = 0;
};

std::map<std::uint32_t, std::uint64_t> live_entries(SourceTable<Cell>& t) {
  std::map<std::uint32_t, std::uint64_t> out;
  t.for_each([&out](std::uint32_t key, Cell& cell) {
    EXPECT_TRUE(out.emplace(key, cell.a).second) << "key seen twice";
  });
  return out;
}

TEST(SourceTableTest, FindOrInsertNewAndExistingKeys) {
  SourceTable<Cell> t;
  EXPECT_TRUE(t.empty());
  Cell& fresh = t.find_or_insert(7);
  EXPECT_EQ(fresh.a, 0u);  // A new key reads as a default value.
  fresh.a = 70;
  EXPECT_EQ(t.find_or_insert(9).a, 0u);
  EXPECT_EQ(t.find_or_insert(7).a, 70u);  // An existing key keeps its value.
  EXPECT_EQ(&t.find_or_insert(7), &fresh);
  EXPECT_EQ(t.size(), 2u);
  // Growth rehashes every entry into a larger table.
  for (std::uint32_t k = 100; k < 3100; ++k) t.find_or_insert(k).a = k;
  EXPECT_EQ(t.size(), 3002u);
  EXPECT_GT(t.capacity(), 3002u * 4 / 3);
  EXPECT_EQ(t.find_or_insert(7).a, 70u);
  EXPECT_EQ(t.find_or_insert(2999).a, 2999u);
}

TEST(SourceTableTest, FindReadsWithoutInserting) {
  SourceTable<Cell> t;
  const SourceTable<Cell>& view = t;
  EXPECT_EQ(view.find(7), nullptr);  // Empty table: no slots yet.
  for (std::uint32_t k = 1; k <= 500; ++k) t.find_or_insert(k).a = k;
  ASSERT_NE(view.find(7), nullptr);
  EXPECT_EQ(view.find(7)->a, 7u);
  EXPECT_EQ(view.find(7), &t.find_or_insert(7));
  EXPECT_EQ(view.find(501), nullptr);  // Absent.
  EXPECT_EQ(t.size(), 500u);           // find never inserts.
  // Tombstoned keys read as absent; the probe runs past their slots to
  // the live keys behind them.
  t.erase_if([](std::uint32_t key, const Cell&) { return key % 2 == 0; });
  for (std::uint32_t k = 1; k <= 500; ++k) {
    const Cell* cell = view.find(k);
    if (k % 2 == 0) {
      EXPECT_EQ(cell, nullptr) << k;
    } else {
      ASSERT_NE(cell, nullptr) << k;
      EXPECT_EQ(cell->a, k);
    }
  }
  t.clear();
  EXPECT_EQ(view.find(9), nullptr);  // Emptied, with slots allocated.
}

TEST(SourceTableTest, EraseIfTombstonesAndCountsSize) {
  SourceTable<Cell> t;
  for (std::uint32_t k = 1; k <= 500; ++k) t.find_or_insert(k).a = k;
  std::size_t visited = 0;
  t.erase_if([&visited](std::uint32_t key, const Cell& cell) {
    ++visited;
    EXPECT_EQ(cell.a, key);
    return key % 3 == 0;
  });
  EXPECT_EQ(visited, 500u);
  EXPECT_EQ(t.size(), 500u - 166u);
  const auto live = live_entries(t);
  EXPECT_EQ(live.size(), t.size());
  for (std::uint32_t k = 1; k <= 500; ++k) {
    EXPECT_EQ(live.count(k), k % 3 == 0 ? 0u : 1u) << k;
  }
  // An erased key reinserted reads as a fresh default value.
  EXPECT_EQ(t.find_or_insert(3).a, 0u);
  EXPECT_EQ(t.find_or_insert(4).a, 4u);
  t.erase_if([](std::uint32_t, const Cell&) { return true; });
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(live_entries(t).empty());
}

TEST(SourceTableTest, ReinsertReusesTheTombstonedSlot) {
  SourceTable<Cell> t;
  for (std::uint32_t k = 1; k <= 200; ++k) t.find_or_insert(k).a = k;
  const std::size_t capacity = t.capacity();
  const Cell* slot = &t.find_or_insert(42);
  t.erase_if([](std::uint32_t key, const Cell&) { return key == 42; });
  EXPECT_EQ(t.size(), 199u);
  Cell& again = t.find_or_insert(42);
  EXPECT_EQ(&again, slot);  // The probe chain's first tombstone.
  EXPECT_EQ(again.a, 0u);   // Reset on reuse, not left as before.
  EXPECT_EQ(t.size(), 200u);
  EXPECT_EQ(t.capacity(), capacity);
}

TEST(SourceTableTest, MassEraseRehashesAtTheSameCapacity) {
  // The flood pattern: each hour ~600 one-shot keys arrive, and the hour
  // sweep erases them all. Tombstones then fill the table until a rehash
  // clears them; the live count never warrants growth, so the capacity
  // stays put.
  SourceTable<Cell> t;
  std::uint32_t next_key = 1;
  std::size_t capacity = 0;
  for (int hour = 0; hour < 12; ++hour) {
    std::set<std::uint32_t> keys;
    for (int i = 0; i < 600; ++i) {
      const std::uint32_t key = next_key++ * 2654435761u;
      t.find_or_insert(key).a = key;
      keys.insert(key);
    }
    if (hour == 0) capacity = t.capacity();
    EXPECT_EQ(t.capacity(), capacity) << "hour " << hour;
    EXPECT_EQ(t.size(), 600u);
    const auto live = live_entries(t);
    ASSERT_EQ(live.size(), keys.size());
    for (const auto& [key, a] : live) {
      EXPECT_EQ(keys.count(key), 1u);
      EXPECT_EQ(a, key);
    }
    t.erase_if([](std::uint32_t, const Cell&) { return true; });
    EXPECT_TRUE(t.empty());
  }
  EXPECT_EQ(capacity, 1024u);
}

TEST(SourceTableTest, ClearDropsEveryEntry) {
  SourceTable<Cell> t;
  for (std::uint32_t k = 1; k <= 50; ++k) t.find_or_insert(k).a = k;
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(live_entries(t).empty());
  EXPECT_EQ(t.find_or_insert(5).a, 0u);
}

// ------------------------------------------- Detector vs. reference model ----

/// One seeded telescope stream covering every path of the detector's
/// contract (see DetectorMatchesReferenceModel).
std::vector<net::Packet> reference_stream(std::uint64_t seed) {
  Rng rng(seed);
  const Ipv4 dst_base(44, 0, 0, 0);
  auto dst = [&rng, dst_base] {
    return Ipv4(dst_base.value() |
                static_cast<std::uint32_t>(rng.next_below(1u << 24)));
  };
  static constexpr std::uint16_t kPorts[] = {23, 80, 2323, 8080, 445,
                                             22, 53, 7547, 5555};
  auto port = [&rng] {
    return kPorts[rng.next_below(std::size(kPorts))];
  };
  std::vector<net::Packet> out;
  const TimeMicros horizon = hours(5);

  // Scan sessions: 40 sources, 1-3 sessions each, 60-420 packets per
  // session at 0.5-4 pps. Sessions of a source start more than an hour
  // after the previous one ends (expiry, then re-detection), so samples
  // complete (>= 300 packets), stop mid-way at an expiry or at finish()
  // (100-299), or never start (< 100).
  for (std::uint32_t s = 0; s < 40; ++s) {
    const Ipv4 src(0x0A000000u | (s * 977u + 13u));
    TimeMicros t = rng.uniform_int(0, minutes(90));
    const int sessions = static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < sessions && t < horizon; ++k) {
      const int packets = static_cast<int>(rng.uniform_int(60, 420));
      const TimeMicros gap = rng.uniform_int(250'000, 2'000'000);
      for (int i = 0; i < packets && t < horizon; ++i) {
        net::Packet p = net::make_syn(t, src, dst(), 40000, port(),
                                      static_cast<std::uint32_t>(i));
        if (rng.next_double() < 0.1) p.proto = net::IpProto::kUdp;
        out.push_back(p);
        t += gap;
      }
      t += rng.uniform_int(hours(1) + minutes(5), hours(2));
    }
  }
  // The last scanner is still sampling when the stream ends: finish()
  // ships its incomplete sample.
  {
    const Ipv4 src(10, 200, 0, 1);
    for (int i = 0; i < 160; ++i) {
      out.push_back(net::make_syn(horizon - seconds(160) + seconds(i), src,
                                  dst(), 40000, 23,
                                  static_cast<std::uint32_t>(i)));
    }
  }
  // Pending resets: 60 packets, a 6-15 minute silence, 60 more.
  for (std::uint32_t s = 0; s < 15; ++s) {
    const Ipv4 src(0x0B000000u | (s * 131u + 7u));
    TimeMicros t = rng.uniform_int(0, horizon - hours(1));
    for (int burst = 0; burst < 2; ++burst) {
      for (int i = 0; i < 60; ++i) {
        out.push_back(net::make_syn(t, src, dst(), 40000, port()));
        t += seconds(1);
      }
      t += rng.uniform_int(minutes(6), minutes(15));
    }
  }
  // Backscatter (SYN/ACKs and RSTs) on report and non-report ports, and
  // ICMP clutter.
  const std::size_t base = out.size();
  for (std::size_t i = 0; i < base / 10; ++i) {
    const TimeMicros ts = rng.uniform_int(0, horizon);
    net::Packet p = net::make_syn(
        ts, Ipv4(0x0C000000u | static_cast<std::uint32_t>(rng.next_below(64))),
        dst(), port(), 40000);
    p.flags = rng.next_double() < 0.5
                  ? net::tcp_flags::kSyn | net::tcp_flags::kAck
                  : net::tcp_flags::kRst;
    out.push_back(p);
    if (i % 4 == 0) {
      net::Packet echo;
      echo.ts = rng.uniform_int(0, horizon);
      echo.proto = net::IpProto::kIcmp;
      echo.src = Ipv4(0x0D000000u | static_cast<std::uint32_t>(i));
      echo.dst = dst();
      echo.icmp_type_v = 8;
      out.push_back(echo);
    }
  }
  // A 5% flood of one-packet spoofed SYNs.
  const std::size_t flood = out.size() / 19;
  for (std::size_t i = 0; i < flood; ++i) {
    out.push_back(net::make_syn(
        rng.uniform_int(0, horizon),
        Ipv4(0x20000000u | static_cast<std::uint32_t>(rng.next_below(1u << 28))),
        dst(), 1024, port()));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.ts < b.ts;
                   });
  // One timestamp steps back across a second boundary: a packet of the
  // previous second arrives right after the first packet of a later one.
  for (std::size_t i = out.size() / 2; i + 1 < out.size(); ++i) {
    const TimeMicros second = out[i].ts - out[i].ts % kMicrosPerSecond;
    if (out[i - 1].ts < second) {
      net::Packet late = out[i - 1];
      late.ts = second - 1;
      late.dst_port = 23;
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(i) + 1, late);
      break;
    }
  }
  return out;
}

/// Logs every event, with every field and sampled packet, one line each.
DetectorEvents logging_events(std::vector<std::string>& log) {
  auto summary = [](const char* kind, const FlowSummary& s) {
    return std::string(kind) + " " + s.src.to_string() + " " +
           std::to_string(s.first_seen) + " " +
           std::to_string(s.detect_time) + " " + std::to_string(s.last_seen) +
           " " + std::to_string(s.total_packets);
  };
  DetectorEvents events;
  events.on_scanner = [&log, summary](const FlowSummary& s) {
    log.push_back(summary("scanner", s));
  };
  events.on_flow_end = [&log, summary](const FlowSummary& s) {
    log.push_back(summary("end", s));
  };
  events.on_sample = [&log](Ipv4 src, const std::vector<net::Packet>& pkts) {
    std::string line = "sample " + src.to_string() + " n=" +
                       std::to_string(pkts.size());
    for (const net::Packet& p : pkts) {
      line += " " + std::to_string(p.ts) + "/" + p.dst.to_string() + ":" +
              std::to_string(p.dst_port) + "/" + std::to_string(p.seq);
    }
    log.push_back(std::move(line));
  };
  events.on_report = [&log](const SecondReport& r) {
    std::string line = "report " + std::to_string(r.second_start) + " " +
                       std::to_string(r.total) + " " + std::to_string(r.tcp) +
                       " " + std::to_string(r.udp) + " " +
                       std::to_string(r.icmp) + " " +
                       std::to_string(r.backscatter_filtered) + " " +
                       std::to_string(r.new_scanners);
    std::vector<std::pair<std::uint16_t, std::uint64_t>> ports(
        r.per_port.begin(), r.per_port.end());
    std::sort(ports.begin(), ports.end());
    for (const auto& [port, n] : ports) {
      line += " p" + std::to_string(port) + "=" + std::to_string(n);
    }
    log.push_back(std::move(line));
  };
  return events;
}

/// Index of the first differing line, or the shorter length.
std::size_t first_difference(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

TEST(DetectorReferenceTest, DetectorMatchesReferenceModel) {
  const std::vector<std::uint16_t> report_ports{80, 23, 2323, 23, 8080, 445};
  std::uint64_t completed = 0, resets = 0, backscatter = 0, partial = 0;
  std::uint64_t redetected = 0, ended = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<net::Packet> stream = reference_stream(seed);
    std::vector<std::string> got, want;
    FlowDetector detector(DetectorConfig{}, logging_events(got),
                          report_ports);
    oracle::ReferenceDetector reference(DetectorConfig{},
                                        logging_events(want), report_ports);
    // Hour sweeps at irregular ends, 40-80 minutes apart.
    Rng rng(seed * 7919);
    TimeMicros sweep = rng.uniform_int(minutes(40), minutes(80));
    for (const net::Packet& p : stream) {
      while (p.ts >= sweep) {
        detector.end_of_hour(sweep);
        reference.end_of_hour(sweep);
        ASSERT_EQ(detector.tracked_sources(), reference.tracked_sources());
        sweep += rng.uniform_int(minutes(40), minutes(80));
      }
      detector.process(p);
      reference.process(p);
    }
    EXPECT_EQ(detector.tracked_sources(), reference.tracked_sources());
    detector.finish();
    reference.finish();
    const std::size_t diff = first_difference(got, want);
    ASSERT_EQ(got.size(), want.size())
        << "first difference at line " << diff << ":\n  detector:  "
        << (diff < got.size() ? got[diff] : "<end>") << "\n  reference: "
        << (diff < want.size() ? want[diff] : "<end>");
    ASSERT_EQ(diff, got.size()) << "first difference at line " << diff
                                << ":\n  detector:  " << got[diff]
                                << "\n  reference: " << want[diff];
    const DetectorStats& a = detector.stats();
    const DetectorStats& b = reference.stats();
    EXPECT_EQ(a.packets_processed, b.packets_processed);
    EXPECT_EQ(a.backscatter_filtered, b.backscatter_filtered);
    EXPECT_EQ(a.scanners_detected, b.scanners_detected);
    EXPECT_EQ(a.samples_completed, b.samples_completed);
    EXPECT_EQ(a.flows_ended, b.flows_ended);
    EXPECT_EQ(a.pending_resets, b.pending_resets);
    EXPECT_EQ(detector.tracked_sources(), 0u);

    completed += a.samples_completed;
    resets += a.pending_resets;
    backscatter += a.backscatter_filtered;
    ended += a.flows_ended;
    std::map<std::string, int> detections;
    for (const std::string& line : got) {
      if (line.rfind("scanner ", 0) == 0) {
        ++detections[line.substr(8, line.find(' ', 8) - 8)];
      }
    }
    for (const auto& [src, n] : detections) redetected += n > 1;
    partial += static_cast<std::uint64_t>(
        std::count_if(got.begin(), got.end(), [](const std::string& line) {
          return line.rfind("sample ", 0) == 0 &&
                 line.find(" n=200 ") == std::string::npos;
        }));
  }
  // The streams reached every path the comparison is meant to cover.
  EXPECT_GT(completed, 100u);
  EXPECT_GT(partial, 100u);
  EXPECT_GT(redetected, 50u);
  EXPECT_GT(ended, 200u);
  EXPECT_GT(resets, 60u);
  EXPECT_GT(backscatter, 5000u);
}

class ThresholdSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(ThresholdSweep, DetectionMatchesThreshold) {
  auto [threshold, packets, expect_detect] = GetParam();
  DetectorConfig config;
  config.scanner_packet_threshold = threshold;
  std::vector<FlowSummary> scanners;
  DetectorEvents events;
  events.on_scanner = [&](const FlowSummary& s) { scanners.push_back(s); };
  FlowDetector det(config, std::move(events));
  for (int i = 0; i < packets; ++i) {
    det.process(net::make_syn(seconds(2) * i, Ipv4(1, 2, 3, 4),
                              Ipv4(44, 0, 0, 1), 40000, 23));
  }
  EXPECT_EQ(!scanners.empty(), expect_detect);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ThresholdSweep,
    ::testing::Values(std::tuple{50, 49, false}, std::tuple{50, 50, true},
                      std::tuple{100, 99, false}, std::tuple{100, 100, true},
                      std::tuple{200, 150, false},
                      std::tuple{200, 250, true}));

}  // namespace
}  // namespace exiot::flow
