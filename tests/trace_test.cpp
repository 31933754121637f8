// Unit tests for the trace module: encode/decode round trips, hourly file
// rotation, and corruption handling.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "net/wire.h"
#include "reference_trace.h"
#include "trace/trace.h"

namespace exiot::trace {
namespace {

namespace fs = std::filesystem;
using oracle::decode_packets;
using oracle::encode_packets;

net::Packet probe(TimeMicros ts, std::uint32_t src, std::uint16_t port) {
  return net::make_syn(ts, Ipv4(src), Ipv4(44, 0, 0, 1), 40000, port, src);
}

std::vector<net::Packet> random_packets(int n, Rng& rng,
                                        TimeMicros start = 0) {
  std::vector<net::Packet> pkts;
  TimeMicros ts = start;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<TimeMicros>(rng.exponential(1e-3));
    auto p = probe(ts, static_cast<std::uint32_t>(rng.next_u64()),
                   static_cast<std::uint16_t>(rng.uniform_int(1, 65535)));
    p.ttl = static_cast<std::uint8_t>(rng.uniform_int(30, 255));
    p.ip_id = static_cast<std::uint16_t>(rng.next_u64());
    if (rng.bernoulli(0.3)) p.opts.mss = 1460;
    if (rng.bernoulli(0.2)) p.opts.timestamp = true;
    pkts.push_back(p);
  }
  return pkts;
}

TEST(TraceCodec, EmptyStreamRoundTrips) {
  auto decoded = decode_packets(encode_packets({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(TraceCodec, SinglePacketRoundTrips) {
  auto p = probe(seconds(5), 0x01020304, 23);
  auto decoded = decode_packets(encode_packets({p}));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].ts, p.ts);
  EXPECT_EQ(decoded.value()[0].src, p.src);
  EXPECT_EQ(decoded.value()[0].dst_port, p.dst_port);
}

TEST(TraceCodec, ManyPacketsRoundTripExactly) {
  Rng rng(99);
  auto pkts = random_packets(500, rng);
  auto decoded = decode_packets(encode_packets(pkts));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].ts, pkts[i].ts) << i;
    EXPECT_EQ(decoded.value()[i].src, pkts[i].src) << i;
    EXPECT_EQ(decoded.value()[i].opts, pkts[i].opts) << i;
  }
}

TEST(TraceCodec, HandlesTimestampRegressions) {
  // Merge boundaries can produce slightly out-of-order timestamps; the
  // zigzag delta must encode them.
  std::vector<net::Packet> pkts{probe(seconds(10), 1, 23),
                                probe(seconds(9), 2, 23),
                                probe(seconds(11), 3, 23)};
  auto decoded = decode_packets(encode_packets(pkts));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value()[1].ts, seconds(9));
}

TEST(TraceCodec, CompressionBeatsRawWire) {
  Rng rng(5);
  auto pkts = random_packets(1000, rng, seconds(100));
  std::size_t raw = 0;
  std::vector<std::uint8_t> wire;
  for (const auto& p : pkts) raw += net::serialize_to(p, wire) + 12;
  auto encoded = encode_packets(pkts);
  // Delta timestamps should beat 8-byte-per-packet timestamp framing.
  EXPECT_LT(encoded.size(), raw);
}

TEST(TraceCodec, RejectsBadMagic) {
  std::vector<std::uint8_t> bogus{'N', 'O', 'P', 'E', 0, 0};
  EXPECT_FALSE(decode_packets(bogus).ok());
}

TEST(TraceCodec, RejectsTruncatedBody) {
  auto bytes = encode_packets({probe(0, 1, 80)});
  bytes.resize(bytes.size() - 5);
  EXPECT_FALSE(decode_packets(bytes).ok());
}

TEST(TraceCodec, DecoderReportsCorruptPacket) {
  auto bytes = encode_packets({probe(0, 1, 80)});
  bytes[bytes.size() - 25] ^= 0xFF;  // Corrupt inside the IP header.
  TraceDecoder dec(bytes);
  net::PacketBatch batch;
  EXPECT_EQ(dec.next_batch(batch, 8), 0u);
  EXPECT_FALSE(dec.last_error().empty());
}

class HourlyWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("exiot_trace_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(HourlyWriterTest, SplitsFilesOnHourBoundaries) {
  {
    HourlyTraceWriter writer(dir_);
    ASSERT_TRUE(writer.add(probe(minutes(10), 1, 23)).ok());
    ASSERT_TRUE(writer.add(probe(minutes(50), 2, 23)).ok());
    ASSERT_TRUE(writer.add(probe(hours(1) + minutes(5), 3, 23)).ok());
    ASSERT_TRUE(writer.add(probe(hours(2) + minutes(1), 4, 23)).ok());
    ASSERT_TRUE(writer.close().ok());
  }
  EXPECT_TRUE(fs::exists(dir_ / HourlyTraceWriter::file_name(0)));
  EXPECT_TRUE(fs::exists(dir_ / HourlyTraceWriter::file_name(1)));
  EXPECT_TRUE(fs::exists(dir_ / HourlyTraceWriter::file_name(2)));

  std::size_t total = 0;
  for (int h = 0; h < 3; ++h) {
    auto n = read_trace_file(dir_ / HourlyTraceWriter::file_name(h),
                             [](const net::PacketBatch&) {});
    ASSERT_TRUE(n.ok());
    total += n.value();
  }
  EXPECT_EQ(total, 4u);
}

TEST_F(HourlyWriterTest, PacketsLandInTheirHourFile) {
  {
    HourlyTraceWriter writer(dir_);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          writer.add(probe(hours(1) + seconds(i), 100 + i, 23)).ok());
    }
    ASSERT_TRUE(writer.close().ok());
  }
  std::vector<net::Packet> seen;
  auto n = read_trace_file(dir_ / HourlyTraceWriter::file_name(1),
                           [&](const net::PacketBatch& batch) {
                             seen.insert(seen.end(), batch.packets().begin(),
                                         batch.packets().end());
                           });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 10u);
  for (const auto& p : seen) {
    EXPECT_EQ(p.ts / kMicrosPerHour, 1);
  }
}

TEST_F(HourlyWriterTest, ReadDeliversFullBatchesThenTheTornTail) {
  std::vector<net::Packet> pkts;
  for (std::uint32_t i = 0; i < 2500; ++i) {
    pkts.push_back(probe(seconds(i), 0x01000000 + i, 23));
  }
  auto bytes = encode_packets(pkts);
  bytes.resize(bytes.size() - 2);  // Strip the end-of-stream marker.
  fs::create_directories(dir_);
  const fs::path file = dir_ / "torn.ext";
  std::ofstream(file, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  std::vector<std::size_t> sizes;
  std::vector<net::Packet> seen;
  auto n = read_trace_file(file, [&](const net::PacketBatch& batch) {
    sizes.push_back(batch.size());
    seen.insert(seen.end(), batch.packets().begin(), batch.packets().end());
  });
  // Every record arrives, in order and in full batches, before the
  // missing marker turns the read into an error.
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(seen, pkts);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{kReadBatchRows, kReadBatchRows,
                                             2500 - 2 * kReadBatchRows}));
}

TEST_F(HourlyWriterTest, MissingFileIsAnError) {
  auto r = read_trace_file(dir_ / "nonexistent.ext",
                           [](const net::PacketBatch&) {});
  EXPECT_FALSE(r.ok());
}

TEST_F(HourlyWriterTest, CorruptFileIsAnError) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "bad.ext") << "this is not a trace";
  auto r =
      read_trace_file(dir_ / "bad.ext", [](const net::PacketBatch&) {});
  EXPECT_FALSE(r.ok());
}

TEST_F(HourlyWriterTest, DestructorFlushesOpenHour) {
  {
    HourlyTraceWriter writer(dir_);
    ASSERT_TRUE(writer.add(probe(minutes(1), 7, 23)).ok());
    // No explicit close: destructor must flush.
  }
  auto n = read_trace_file(dir_ / HourlyTraceWriter::file_name(0),
                           [](const net::PacketBatch&) {});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
}

TEST_F(HourlyWriterTest, SteppingBackIntoAWrittenHourIsAnError) {
  const std::vector<net::Packet> hour0 = {probe(minutes(10), 1, 23),
                                          probe(minutes(20), 2, 23)};
  {
    HourlyTraceWriter writer(dir_);
    for (const auto& p : hour0) ASSERT_TRUE(writer.add(p).ok());
    ASSERT_TRUE(writer.add(probe(hours(1) + minutes(5), 3, 23)).ok());
    // Hour 0's file is already written: a stray packet must not reopen
    // (and truncate) it.
    EXPECT_FALSE(writer.add(probe(minutes(30), 4, 23)).ok());
    ASSERT_TRUE(writer.close().ok());
    // Nor may the closed hour 1 be reopened.
    EXPECT_FALSE(writer.add(probe(hours(1) + minutes(6), 5, 23)).ok());
  }
  std::vector<net::Packet> seen;
  auto n = read_trace_file(dir_ / HourlyTraceWriter::file_name(0),
                           [&](const net::PacketBatch& batch) {
                             seen.insert(seen.end(), batch.packets().begin(),
                                         batch.packets().end());
                           });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(seen, hour0);
  n = read_trace_file(dir_ / HourlyTraceWriter::file_name(1),
                      [](const net::PacketBatch&) {});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
}

}  // namespace
}  // namespace exiot::trace
