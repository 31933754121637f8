// Unit tests for the net module: packet model, backscatter classification,
// wire serialization/parsing, checksums, and TCP options.
#include <gtest/gtest.h>

#include "net/packet.h"
#include <functional>

#include "net/wire.h"

namespace exiot::net {
namespace {

/// The packet's wire image, in a buffer of its own.
std::vector<std::uint8_t> wire_image(const Packet& p) {
  std::vector<std::uint8_t> bytes;
  serialize_to(p, bytes);
  return bytes;
}

Packet sample_tcp() {
  Packet p = make_syn(seconds(1.5), Ipv4(1, 2, 3, 4), Ipv4(44, 5, 6, 7),
                      51321, 23, 0x2C05060708u & 0xFFFFFFFFu);
  p.tos = 0x10;
  p.ip_id = 0xBEEF;
  p.ttl = 47;
  p.window = 14600;
  p.opts.mss = 1460;
  p.opts.wscale = 7;
  p.opts.timestamp = true;
  p.opts.ts_val = 123456;
  p.opts.nop = true;
  p.opts.sack_permitted = true;
  return p;
}

TEST(PacketTest, TcpDataLength) {
  Packet p = make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  p.total_length = 60;
  p.data_offset = 5;
  EXPECT_EQ(p.tcp_data_length(), 20);
  p.proto = IpProto::kUdp;
  EXPECT_EQ(p.tcp_data_length(), 0);
}

TEST(PacketTest, SummaryMentionsEndpoints) {
  auto s = sample_tcp().summary();
  EXPECT_NE(s.find("1.2.3.4"), std::string::npos);
  EXPECT_NE(s.find("44.5.6.7"), std::string::npos);
  EXPECT_NE(s.find("TCP"), std::string::npos);
}

TEST(BackscatterTest, SynIsNotBackscatter) {
  EXPECT_FALSE(is_backscatter(
      make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 23)));
}

TEST(BackscatterTest, SynAckRstAndPureAckAre) {
  Packet p = make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 23);
  p.flags = tcp_flags::kSyn | tcp_flags::kAck;
  EXPECT_TRUE(is_backscatter(p));
  p.flags = tcp_flags::kRst;
  EXPECT_TRUE(is_backscatter(p));
  p.flags = tcp_flags::kRst | tcp_flags::kAck;
  EXPECT_TRUE(is_backscatter(p));
  p.flags = tcp_flags::kAck;
  EXPECT_TRUE(is_backscatter(p));
  p.flags = tcp_flags::kAck | tcp_flags::kPsh;
  EXPECT_TRUE(is_backscatter(p));
}

TEST(BackscatterTest, FinAndXmasProbesAreNot) {
  Packet p = make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 23);
  p.flags = tcp_flags::kFin;
  EXPECT_FALSE(is_backscatter(p));
  p.flags = tcp_flags::kFin | tcp_flags::kPsh | tcp_flags::kUrg;
  EXPECT_FALSE(is_backscatter(p));
}

TEST(BackscatterTest, IcmpReplies) {
  Packet p;
  p.proto = IpProto::kIcmp;
  p.icmp_type_v = icmp_type::kEchoReply;
  EXPECT_TRUE(is_backscatter(p));
  p.icmp_type_v = icmp_type::kUnreachable;
  EXPECT_TRUE(is_backscatter(p));
  p.icmp_type_v = icmp_type::kTimeExceeded;
  EXPECT_TRUE(is_backscatter(p));
  p.icmp_type_v = icmp_type::kEchoRequest;
  EXPECT_FALSE(is_backscatter(p));
}

TEST(BackscatterTest, UdpServiceReplies) {
  Packet p;
  p.proto = IpProto::kUdp;
  p.src_port = 53;
  p.dst_port = 40000;
  EXPECT_TRUE(is_backscatter(p));
  p.src_port = 40000;
  p.dst_port = 53;
  EXPECT_FALSE(is_backscatter(p));
}

TEST(ChecksumTest, KnownVector) {
  // RFC 1071 example-style check: checksum of a buffer plus its checksum
  // must verify to zero.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46,
                                 0x40, 0x00, 0x40, 0x06, 0x00, 0x00,
                                 0xac, 0x10, 0x0a, 0x63, 0xac, 0x10,
                                 0x0a, 0x0c};
  std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(WireTest, TcpRoundTrip) {
  Packet p = sample_tcp();
  auto bytes = wire_image(p);
  auto parsed = parse(bytes, p.ts);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const Packet& q = parsed.value();
  EXPECT_EQ(q.src, p.src);
  EXPECT_EQ(q.dst, p.dst);
  EXPECT_EQ(q.src_port, p.src_port);
  EXPECT_EQ(q.dst_port, p.dst_port);
  EXPECT_EQ(q.seq, p.seq);
  EXPECT_EQ(q.flags, p.flags);
  EXPECT_EQ(q.ttl, p.ttl);
  EXPECT_EQ(q.tos, p.tos);
  EXPECT_EQ(q.ip_id, p.ip_id);
  EXPECT_EQ(q.window, p.window);
  EXPECT_EQ(q.opts.mss, p.opts.mss);
  EXPECT_EQ(q.opts.wscale, p.opts.wscale);
  EXPECT_EQ(q.opts.timestamp, p.opts.timestamp);
  EXPECT_EQ(q.opts.ts_val, p.opts.ts_val);
  EXPECT_EQ(q.opts.sack_permitted, p.opts.sack_permitted);
}

TEST(WireTest, UdpRoundTrip) {
  Packet p;
  p.proto = IpProto::kUdp;
  p.src = Ipv4(9, 8, 7, 6);
  p.dst = Ipv4(44, 3, 2, 1);
  p.src_port = 5353;
  p.dst_port = 1900;
  p.ttl = 128;
  p.total_length = 36;
  auto parsed = parse(wire_image(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().proto, IpProto::kUdp);
  EXPECT_EQ(parsed.value().src_port, 5353);
  EXPECT_EQ(parsed.value().dst_port, 1900);
}

TEST(WireTest, IcmpRoundTrip) {
  Packet p;
  p.proto = IpProto::kIcmp;
  p.src = Ipv4(9, 8, 7, 6);
  p.dst = Ipv4(44, 3, 2, 1);
  p.icmp_type_v = icmp_type::kEchoRequest;
  p.icmp_code = 0;
  auto parsed = parse(wire_image(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().icmp_type_v, icmp_type::kEchoRequest);
}

TEST(WireTest, AdvertisedLengthSurvivesPayloadElision) {
  Packet p = make_syn(0, Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 80);
  p.total_length = 500;  // Payload not materialized on the wire image.
  auto parsed = parse(wire_image(p));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().total_length, 500);
  EXPECT_EQ(parsed.value().tcp_data_length(), 500 - 20 - 20);
}

TEST(WireTest, CorruptChecksumRejected) {
  auto bytes = wire_image(sample_tcp());
  bytes[8] ^= 0xFF;  // Flip the TTL without fixing the header checksum.
  EXPECT_FALSE(parse(bytes).ok());
}

TEST(WireTest, TruncatedInputsRejected) {
  auto bytes = wire_image(sample_tcp());
  for (std::size_t len : {std::size_t{0}, std::size_t{10}, std::size_t{19},
                          std::size_t{25}}) {
    auto sub = std::span<const std::uint8_t>(bytes.data(), len);
    EXPECT_FALSE(parse(sub).ok()) << len;
  }
}

TEST(WireTest, NonIpv4Rejected) {
  auto bytes = wire_image(sample_tcp());
  bytes[0] = 0x65;  // Version 6.
  EXPECT_FALSE(parse(bytes).ok());
}

TEST(WireTest, SerializeToAppends) {
  std::vector<std::uint8_t> buf{0xAA};
  auto n = serialize_to(sample_tcp(), buf);
  EXPECT_EQ(buf.size(), 1 + n);
  EXPECT_EQ(buf[0], 0xAA);
}

struct OptionCase {
  const char* name;
  TcpOptions opts;
};

// Prints the case name, which CTest then uses as the test's name. Without it
// gtest dumps the struct's bytes, including the address of `name`, so the
// discovered test names would change with every run of the binary.
void PrintTo(const OptionCase& c, std::ostream* os) { *os << c.name; }

class TcpOptionRoundTrip : public ::testing::TestWithParam<OptionCase> {};

TEST_P(TcpOptionRoundTrip, RoundTrips) {
  Packet p = make_syn(0, Ipv4(1, 2, 3, 4), Ipv4(44, 0, 0, 1), 1000, 23);
  p.opts = GetParam().opts;
  auto parsed = parse(wire_image(p));
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().opts, p.opts);
}

TcpOptions with(const std::function<void(TcpOptions&)>& fn) {
  TcpOptions o;
  fn(o);
  return o;
}

INSTANTIATE_TEST_SUITE_P(
    Combos, TcpOptionRoundTrip,
    ::testing::Values(
        OptionCase{"none", TcpOptions{}},
        OptionCase{"mss", with([](TcpOptions& o) { o.mss = 1460; })},
        OptionCase{"wscale", with([](TcpOptions& o) { o.wscale = 4; })},
        OptionCase{"timestamp", with([](TcpOptions& o) {
                     o.timestamp = true;
                     o.ts_val = 99;
                   })},
        OptionCase{"nop", with([](TcpOptions& o) { o.nop = true; })},
        OptionCase{"sackp",
                   with([](TcpOptions& o) { o.sack_permitted = true; })},
        OptionCase{"sack", with([](TcpOptions& o) { o.sack = true; })},
        OptionCase{"mirai_like", with([](TcpOptions& o) {
                     o.mss = 1400;
                     o.nop = true;
                   })},
        OptionCase{"linux_like", with([](TcpOptions& o) {
                     o.mss = 1460;
                     o.wscale = 7;
                     o.timestamp = true;
                     o.ts_val = 0xDEADBEEF;
                     o.nop = true;
                     o.sack_permitted = true;
                   })}));

}  // namespace
}  // namespace exiot::net
