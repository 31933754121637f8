// Equivalence fuzz suite for the batched paths: every routine that moves
// packets or rows in batches must reproduce its per-item counterpart
// exactly — same packets, same error strings, same events, bit-identical
// scores — across batch sizes {1, 7, 64, 1024} ({1, 7, 512} rows for the
// trace decoder). Batching is an optimization, never a semantic fork;
// these tests pin that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flow/detector.h"
#include "ml/forest.h"
#include "net/batch.h"
#include "net/wire.h"
#include "pipeline/ingest.h"
#include "reference_merge.h"
#include "reference_trace.h"
#include "telescope/synthesizer.h"
#include "trace/trace.h"

namespace exiot {
namespace {

/// The packet's wire image, in a buffer of its own.
std::vector<std::uint8_t> wire_image(const net::Packet& p) {
  std::vector<std::uint8_t> bytes;
  net::serialize_to(p, bytes);
  return bytes;
}

constexpr std::size_t kBatchSizes[] = {1, 7, 64, 1024};

// Random packet covering every field the detector's filters read: all
// three protocols, backscatter and probe flag combinations, Mirai seq==dst
// hits, reply-port UDP sources, the ICMP reply types.
net::Packet random_packet(Rng& rng, TimeMicros ts) {
  net::Packet p;
  p.ts = ts;
  p.src = Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.dst = Ipv4(static_cast<std::uint32_t>(rng.next_u64()));
  p.ttl = static_cast<std::uint8_t>(1 + rng.next_below(255));
  p.tos = static_cast<std::uint8_t>(rng.next_below(256));
  p.ip_id = static_cast<std::uint16_t>(rng.next_u64());
  p.total_length = static_cast<std::uint16_t>(64 + rng.next_below(1000));
  switch (rng.next_below(3)) {
    case 0: {
      p.proto = net::IpProto::kTcp;
      p.src_port = static_cast<std::uint16_t>(rng.next_u64());
      p.dst_port = static_cast<std::uint16_t>(rng.next_u64());
      // Half the TCP packets carry the Mirai telltale.
      p.seq = rng.bernoulli(0.5) ? p.dst.value()
                                 : static_cast<std::uint32_t>(rng.next_u64());
      p.ack = static_cast<std::uint32_t>(rng.next_u64());
      static constexpr std::uint8_t kFlagMenu[] = {
          net::tcp_flags::kSyn,
          net::tcp_flags::kSyn | net::tcp_flags::kAck,
          net::tcp_flags::kRst,
          net::tcp_flags::kRst | net::tcp_flags::kAck,
          net::tcp_flags::kAck,
          net::tcp_flags::kFin | net::tcp_flags::kPsh,
          0,
      };
      p.flags = kFlagMenu[rng.next_below(std::size(kFlagMenu))];
      p.window = static_cast<std::uint16_t>(rng.next_u64());
      if (rng.bernoulli(0.4)) p.opts.mss = 1460;
      if (rng.bernoulli(0.3)) p.opts.wscale = 7;
      if (rng.bernoulli(0.3)) {
        p.opts.timestamp = true;
        p.opts.ts_val = static_cast<std::uint32_t>(rng.next_u64());
      }
      if (rng.bernoulli(0.3)) p.opts.nop = true;
      // Keep the header self-consistent so the wire image round-trips
      // exactly: data_offset covers the padded option bytes.
      std::size_t opt_len = 0;
      if (p.opts.mss) opt_len += 4;
      if (p.opts.sack_permitted) opt_len += 2;
      if (p.opts.timestamp) opt_len += 10;
      if (p.opts.wscale) opt_len += 3;
      if (p.opts.nop) opt_len += 1;
      if (p.opts.sack) opt_len += 2;
      opt_len = (opt_len + 3) / 4 * 4;
      p.data_offset = static_cast<std::uint8_t>(5 + opt_len / 4);
      break;
    }
    case 1: {
      p.proto = net::IpProto::kUdp;
      static constexpr std::uint16_t kSrcMenu[] = {53, 123, 161, 40000, 5};
      p.src_port = kSrcMenu[rng.next_below(std::size(kSrcMenu))];
      p.dst_port = static_cast<std::uint16_t>(rng.next_u64());
      break;
    }
    default: {
      p.proto = net::IpProto::kIcmp;
      static constexpr std::uint8_t kTypeMenu[] = {0, 3, 8, 11, 13};
      p.icmp_type_v = kTypeMenu[rng.next_below(std::size(kTypeMenu))];
      p.icmp_code = static_cast<std::uint8_t>(rng.next_below(16));
      break;
    }
  }
  return p;
}

std::vector<net::Packet> random_packets(Rng& rng, std::size_t n) {
  std::vector<net::Packet> pkts;
  pkts.reserve(n);
  TimeMicros ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ts += rng.next_below(2000);
    pkts.push_back(random_packet(rng, ts));
  }
  return pkts;
}

TEST(WireBatch, CanonicalParseAcceptsEveryEncoderImage) {
  // Everything our encoder emits is canonical (IHL 5, known protocol,
  // valid checksum): the fast path must take all of it, with fields
  // identical to the scalar parse.
  Rng rng(2107);
  for (const auto& p : random_packets(rng, 2000)) {
    const auto bytes = wire_image(p);
    net::Packet fast;
    ASSERT_TRUE(net::parse_canonical(bytes, p.ts, fast)) << p.summary();
    auto slow = net::parse(bytes, p.ts);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast, slow.value());
    EXPECT_EQ(fast, p);
  }
}

TEST(WireBatch, CanonicalParseAgreesWithParseOnMutatedImages) {
  // Bit-flip fuzz: whenever the fast path accepts an image, the scalar
  // parse must accept it too and decode the same fields (the converse is
  // allowed — non-canonical accepts fall back to `parse` in the decoder).
  Rng rng(2109);
  net::Packet seed_pkt = net::make_syn(5, Ipv4(1, 2, 3, 4), Ipv4(44, 5, 6, 7),
                                       40000, 23, 0xDEADBEEF);
  seed_pkt.opts.mss = 1460;
  seed_pkt.opts.timestamp = true;
  const auto clean = wire_image(seed_pkt);
  std::size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    auto bytes = clean;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    net::Packet fast;
    if (!net::parse_canonical(bytes, 5, fast)) continue;
    ++accepted;
    auto slow = net::parse(bytes, 5);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(fast, slow.value());
  }
  EXPECT_GT(accepted, 0u);  // Flips outside the checksummed IP header.
}

// The decode cases compare TraceDecoder::next_batch with the scalar
// reference decoder (reference_trace.h) at oracle::kDecodeBatchRows.

TEST(TraceBatch, NextBatchMatchesScalarOnCleanStreams) {
  Rng rng(2111);
  const auto pkts = random_packets(rng, 3000);
  for (const auto& bytes : {oracle::encode_packets(pkts),
                            oracle::encode_with_ip_options(pkts, 5)}) {
    const oracle::DecodedTrace scalar = oracle::reference_decode(bytes);
    ASSERT_EQ(scalar.packets, pkts);
    ASSERT_TRUE(scalar.error.empty()) << scalar.error;
    for (const std::size_t rows : oracle::kDecodeBatchRows) {
      const oracle::DecodedTrace batched =
          oracle::batched_decode(bytes, rows);
      EXPECT_EQ(batched.packets, scalar.packets) << "rows " << rows;
      EXPECT_EQ(batched.error, scalar.error) << "rows " << rows;
    }
  }
}

TEST(TraceBatch, NextBatchMatchesScalarOnCorruptStreams) {
  Rng rng(2113);
  const auto pkts = random_packets(rng, 80);
  const auto clean = oracle::encode_with_ip_options(pkts, 4);
  for (int round = 0; round < 400; ++round) {
    auto bytes = clean;
    const std::size_t edits = 1 + rng.next_below(6);
    for (std::size_t e = 0; e < edits; ++e) {
      bytes[rng.next_below(bytes.size())] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    const oracle::DecodedTrace scalar = oracle::reference_decode(bytes);
    for (const std::size_t rows : oracle::kDecodeBatchRows) {
      const oracle::DecodedTrace batched =
          oracle::batched_decode(bytes, rows);
      EXPECT_EQ(batched.packets, scalar.packets)
          << "round " << round << ", rows " << rows;
      EXPECT_EQ(batched.error, scalar.error)
          << "round " << round << ", rows " << rows;
    }
  }
}

TEST(TraceBatch, NextBatchMatchesScalarOnTruncatedStreams) {
  Rng rng(2115);
  const auto pkts = random_packets(rng, 40);
  const auto clean = oracle::encode_with_ip_options(pkts, 3);
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    std::vector<std::uint8_t> bytes(clean.begin(),
                                    clean.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    const oracle::DecodedTrace scalar = oracle::reference_decode(bytes);
    for (const std::size_t rows : oracle::kDecodeBatchRows) {
      const oracle::DecodedTrace batched =
          oracle::batched_decode(bytes, rows);
      EXPECT_EQ(batched.packets, scalar.packets)
          << "cut at " << cut << ", rows " << rows;
      EXPECT_EQ(batched.error, scalar.error)
          << "cut at " << cut << ", rows " << rows;
    }
    // A truncated stream is never a clean end: the marker is missing.
    EXPECT_FALSE(scalar.error.empty()) << "cut at " << cut;
  }
}

TEST(TraceTornTail, StreamEndingOnRecordBoundaryIsHardError) {
  // Mirrors the WAL's torn-tail semantics: a stream cut exactly between
  // records — every byte of every record intact, only the end-of-stream
  // marker gone — must be a decode error, not a silent short read.
  Rng rng(2117);
  const auto pkts = random_packets(rng, 10);
  auto bytes = oracle::encode_packets(pkts);
  bytes.resize(bytes.size() - 2);  // Strip the {0x00, 0x00} marker.
  const oracle::DecodedTrace scalar = oracle::reference_decode(bytes);
  EXPECT_EQ(scalar.packets, pkts);  // All records still decode...
  EXPECT_NE(scalar.error.find("end-of-stream marker"), std::string::npos)
      << scalar.error;  // ...but the stream as a whole is torn.
  EXPECT_FALSE(oracle::decode_packets(bytes).ok());
  for (const std::size_t rows : oracle::kDecodeBatchRows) {
    const oracle::DecodedTrace batched = oracle::batched_decode(bytes, rows);
    EXPECT_EQ(batched.packets, scalar.packets);
    EXPECT_EQ(batched.error, scalar.error);
  }
}

TEST(TraceTornTail, TrailingBytesAfterMarkerAreAnError) {
  Rng rng(2119);
  const auto pkts = random_packets(rng, 5);
  auto bytes = oracle::encode_packets(pkts);
  bytes.push_back(0x17);
  const oracle::DecodedTrace scalar = oracle::reference_decode(bytes);
  EXPECT_EQ(scalar.packets, pkts);
  EXPECT_NE(scalar.error.find("trailing bytes"), std::string::npos)
      << scalar.error;
  const oracle::DecodedTrace batched = oracle::batched_decode(bytes, 64);
  EXPECT_EQ(batched.packets, scalar.packets);
  EXPECT_EQ(batched.error, scalar.error);
}

TEST(TraceTornTail, MagicOnlyStreamIsTorn) {
  // Four magic bytes and nothing else: before the marker rework this was
  // indistinguishable from an empty stream; now only magic + marker is.
  auto complete = oracle::encode_packets({});
  ASSERT_EQ(complete.size(), 6u);  // 4 magic + 2 marker.
  std::vector<std::uint8_t> torn(complete.begin(), complete.begin() + 4);
  const oracle::DecodedTrace batched = oracle::batched_decode(torn, 64);
  EXPECT_TRUE(batched.packets.empty());
  EXPECT_FALSE(batched.error.empty());
  EXPECT_EQ(batched.error, oracle::reference_decode(torn).error);
  const oracle::DecodedTrace ok = oracle::batched_decode(complete, 64);
  EXPECT_TRUE(ok.packets.empty());
  EXPECT_TRUE(ok.error.empty()) << ok.error;
}

// --- Flow detection: the ingest stage must replay the per-packet
// detector's decisions, events included. ---

// Detector events serialized into log lines, so two runs compare as plain
// string vectors. At the hour barrier the ingest stage replays an hour's
// per-second reports before its control events, so the two kinds are
// kept as separate ordered sequences.
struct EventLog {
  std::vector<std::string> reports;
  std::vector<std::string> events;  // Scanner, sample and end lines.
};

flow::DetectorEvents recording_events(EventLog& log) {
  flow::DetectorEvents ev;
  ev.on_scanner = [&log](const flow::FlowSummary& s) {
    log.events.push_back("scanner src=" + std::to_string(s.src.value()) +
                         " first=" + std::to_string(s.first_seen) +
                         " detect=" + std::to_string(s.detect_time) +
                         " pkts=" + std::to_string(s.total_packets));
  };
  ev.on_sample = [&log](Ipv4 src, const std::vector<net::Packet>& sample) {
    std::string line = "sample src=" + std::to_string(src.value()) +
                       " n=" + std::to_string(sample.size());
    for (const auto& p : sample) line += " " + std::to_string(p.ts);
    log.events.push_back(std::move(line));
  };
  ev.on_flow_end = [&log](const flow::FlowSummary& s) {
    log.events.push_back("end src=" + std::to_string(s.src.value()) +
                         " last=" + std::to_string(s.last_seen) +
                         " pkts=" + std::to_string(s.total_packets));
  };
  ev.on_report = [&log](const flow::SecondReport& r) {
    std::string line = "report t=" + std::to_string(r.second_start) +
                       " total=" + std::to_string(r.total) +
                       " tcp=" + std::to_string(r.tcp) +
                       " udp=" + std::to_string(r.udp) +
                       " icmp=" + std::to_string(r.icmp) +
                       " bs=" + std::to_string(r.backscatter_filtered) +
                       " new=" + std::to_string(r.new_scanners);
    std::vector<std::pair<std::uint16_t, std::uint64_t>> ports(
        r.per_port.begin(), r.per_port.end());
    std::sort(ports.begin(), ports.end());
    for (const auto& [port, count] : ports) {
      line += " p" + std::to_string(port) + "=" + std::to_string(count);
    }
    log.reports.push_back(std::move(line));
  };
  return ev;
}

// A stream that drives sources across the scan thresholds: scanners
// probing once a second for minutes, noise sources, and backscatter.
std::vector<net::Packet> detector_stream(Rng& rng) {
  std::vector<net::Packet> pkts;
  for (int s = 0; s < 240; ++s) {
    const TimeMicros ts = static_cast<TimeMicros>(s) * kMicrosPerSecond;
    // Three persistent scanners (cross the 100-packet / 1-minute bar).
    for (int h = 0; h < 3; ++h) {
      net::Packet p = net::make_syn(
          ts + static_cast<TimeMicros>(h), Ipv4(10, 0, 0, 10 + h),
          Ipv4(44, 0, static_cast<std::uint8_t>(s), 1), 4000,
          h == 0 ? 23 : 2323, 7 + static_cast<std::uint32_t>(h));
      pkts.push_back(p);
    }
    // Random clutter: other sources, protocols, backscatter.
    const std::size_t clutter = rng.next_below(4);
    for (std::size_t c = 0; c < clutter; ++c) {
      pkts.push_back(
          random_packet(rng, ts + 1000 + static_cast<TimeMicros>(c)));
    }
  }
  return pkts;
}

// ThreadedIngest, the route every packet takes into detection, fed source
// batches of every size at 1 and 4 shards, against one bare
// FlowDetector::process call per packet.
TEST(FlowBatch, IngestMatchesPerPacketDetector) {
  Rng rng(2121);
  const auto pkts = detector_stream(rng);
  const std::vector<std::uint16_t> report_ports = {23, 2323, 80};
  const TimeMicros hour_end = pkts.back().ts + kMicrosPerHour + 1;

  flow::DetectorConfig config;
  config.sample_count = 20;  // Complete samples inside the stream.

  EventLog want;
  flow::FlowDetector reference(config, recording_events(want), report_ports);
  for (const net::Packet& p : pkts) reference.process(p);
  reference.end_of_hour(hour_end);
  reference.finish();
  const flow::DetectorStats& ref = reference.stats();
  ASSERT_GT(ref.scanners_detected, 0u);
  ASSERT_GT(ref.backscatter_filtered, 0u);
  ASSERT_GT(ref.samples_completed, 0u);

  for (const int shards : {1, 4}) {
    for (const std::size_t bs : kBatchSizes) {
      SCOPED_TRACE("shards " + std::to_string(shards) + ", batch size " +
                   std::to_string(bs));
      EventLog got;
      pipeline::IngestConfig ingest_config;
      ingest_config.num_shards = shards;
      pipeline::ThreadedIngest ingest(ingest_config, config,
                                      recording_events(got), report_ports);
      const std::size_t n = ingest.run_hour_batched(
          [&](const pipeline::ThreadedIngest::BatchFn& fn) {
            net::PacketBatch batch;
            for (std::size_t i = 0; i < pkts.size(); i += bs) {
              batch.clear();
              const std::size_t end = std::min(pkts.size(), i + bs);
              for (std::size_t j = i; j < end; ++j) batch.push_back(pkts[j]);
              fn(batch);
            }
            return pkts.size();
          },
          hour_end);
      ingest.finish();

      EXPECT_EQ(n, pkts.size());
      EXPECT_EQ(got.reports, want.reports);
      EXPECT_EQ(got.events, want.events);
      const flow::DetectorStats stats = ingest.stats();
      EXPECT_EQ(stats.packets_processed, ref.packets_processed);
      EXPECT_EQ(stats.backscatter_filtered, ref.backscatter_filtered);
      EXPECT_EQ(stats.scanners_detected, ref.scanners_detected);
      EXPECT_EQ(stats.samples_completed, ref.samples_completed);
      EXPECT_EQ(stats.flows_ended, ref.flows_ended);
      EXPECT_EQ(stats.pending_resets, ref.pending_resets);
    }
  }
}

// --- Forest inference: batched scores must be bit-identical. ---

ml::Dataset synthetic_dataset(Rng& rng, std::size_t n, std::size_t width) {
  ml::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    ml::FeatureVector row(width);
    for (auto& v : row) v = rng.next_double();
    const int label = row[0] + row[width / 2] > 1.0 ? 1 : 0;
    data.add(std::move(row), label);
  }
  return data;
}

TEST(ForestBatch, BatchedForestScoresBitIdentical) {
  Rng rng(2123);
  const ml::Dataset data = synthetic_dataset(rng, 400, 8);
  ml::ForestParams params;
  params.num_trees = 20;
  params.tree.max_depth = 8;
  params.train_threads = 1;
  const ml::RandomForest forest = ml::RandomForest::train(data, params, 99);

  for (const std::size_t bs : kBatchSizes) {
    std::vector<ml::FeatureVector> rows;
    for (std::size_t i = 0; i < bs; ++i) {
      ml::FeatureVector row(8);
      for (auto& v : row) v = rng.next_double() * 2.0;
      rows.push_back(std::move(row));
    }
    const std::vector<double> batched = forest.predict_scores(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      // EXPECT_EQ, not NEAR: the tree-outer accumulation keeps the exact
      // floating-point operation order of the scalar walk.
      EXPECT_EQ(batched[i], forest.predict_score(rows[i]))
          << "batch size " << bs << " row " << i;
    }
  }
}

TEST(ForestBatch, BatchedTreeScoresBitIdentical) {
  Rng rng(2125);
  const ml::Dataset data = synthetic_dataset(rng, 300, 6);
  ml::TreeParams params;
  params.max_depth = 10;
  Rng tree_rng(7);
  const ml::DecisionTree tree = ml::DecisionTree::train(data, params,
                                                        tree_rng);
  ASSERT_GT(tree.node_count(), 1);

  std::vector<ml::FeatureVector> rows;
  for (std::size_t i = 0; i < 1027; ++i) {  // Odd size: exercises the tail.
    ml::FeatureVector row(6);
    for (auto& v : row) v = rng.next_double() * 2.0;
    rows.push_back(std::move(row));
  }
  const std::vector<double> batched = tree.predict_scores(rows);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batched[i], tree.predict_score(rows[i])) << "row " << i;
  }
}

// The synthesizer's merge emits host-major slices, radix-sorted into
// arrival order; this pins its output against the brute-force reference
// (every host stream drained on its own, sorted by (ts, host index)) at
// every batch size, across window boundaries.
TEST(SynthBatch, EmitBatchesMatchesScalarEmit) {
  const Cidr scope(Ipv4(44, 0, 0, 0), 8);
  inet::PopulationConfig config;
  config.days = 1;
  config.iot_per_day = 30;
  config.generic_per_day = 80;
  config.benign_per_day = 3;
  config.misconfig_per_day = 15;
  config.victims_per_day = 5;
  const inet::WorldModel world = inet::WorldModel::standard(scope);
  const inet::Population pop = inet::Population::generate(config, world);

  std::vector<std::vector<std::uint8_t>> want;
  for (const net::Packet& p :
       oracle::reference_merge(pop, scope, 0, 2 * kMicrosPerHour)) {
    want.push_back(wire_image(p));
  }
  ASSERT_GT(want.size(), 1000u);

  for (const std::size_t batch_size : kBatchSizes) {
    telescope::TrafficSynthesizer batched(pop, scope);
    std::vector<std::vector<std::uint8_t>> got;
    for (TimeMicros hour = 0; hour < 2; ++hour) {
      batched.emit_batches(hour * kMicrosPerHour,
                           (hour + 1) * kMicrosPerHour, batch_size,
                           [&](const net::PacketBatch& batch) {
                             for (std::size_t i = 0; i < batch.size(); ++i) {
                               got.push_back(wire_image(batch[i]));
                             }
                           });
    }
    ASSERT_EQ(got.size(), want.size()) << "batch_size=" << batch_size;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "batch_size=" << batch_size << " packet " << i;
    }
  }
}

TEST(ForestBatch, DegenerateModelsScoreBatches) {
  std::vector<ml::FeatureVector> rows(17, ml::FeatureVector(4, 0.5));
  // Empty forest: 0.5 everywhere, same as predict_score.
  const ml::RandomForest empty = ml::RandomForest::from_trees({});
  for (const double s : empty.predict_scores(rows)) EXPECT_EQ(s, 0.5);
  // Single-leaf tree (pure training set): constant score, no walk.
  ml::Dataset pure;
  for (int i = 0; i < 10; ++i) pure.add(ml::FeatureVector(4, 0.1), 1);
  Rng rng(3);
  const ml::DecisionTree leaf = ml::DecisionTree::train(pure, {}, rng);
  EXPECT_EQ(leaf.node_count(), 1);
  for (const double s : leaf.predict_scores(rows)) {
    EXPECT_EQ(s, leaf.predict_score(rows[0]));
  }
}

}  // namespace
}  // namespace exiot
