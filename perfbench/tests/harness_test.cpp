// Self-tests of the benchmark harness: the ten-beyond percentile rule, the
// HTTP response reader's chunked framing, flood-generator determinism and
// span self-time arithmetic. Run: python3 perfbench/run.py --test
#include <gtest/gtest.h>

#include <numeric>

#include "harness.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankWithSamplesBeyond) {
  const Percentile p50 = percentile(one_to(100), 0.5);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.beyond, 50u);
  const Percentile p99 = percentile(one_to(100), 0.99);
  EXPECT_EQ(p99.value, 99.0);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 1.0).value, 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Percentile, TenBeyondRule) {
  // p85 of 72 capture hours has exactly ten hours beyond it; 66 do not.
  EXPECT_EQ(percentile(one_to(72), 0.85).beyond, 10u);
  EXPECT_EQ(percentile(one_to(67), 0.85).beyond, 10u);
  EXPECT_EQ(percentile(one_to(66), 0.85).beyond, 9u);
  EXPECT_EQ(min_samples_for_tail(0.85), 67u);
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
  EXPECT_EQ(percentile(one_to(999), 0.99).beyond, 9u);
}

TEST(Chunked, DecodesCompleteBody) {
  const std::string framed = "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n";
  std::string body;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_chunked(framed, &body, &consumed), 1);
  EXPECT_EQ(body, "hello world");
  EXPECT_EQ(consumed, framed.size());
}

TEST(Chunked, EveryPrefixNeedsMore) {
  const std::string framed = "a\r\n0123456789\r\n0\r\nX-Trailer: 1\r\n\r\n";
  for (std::size_t n = 0; n < framed.size(); ++n) {
    std::string body;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_chunked(framed.substr(0, n), &body, &consumed), 0)
        << "prefix " << n;
  }
  std::string body;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_chunked(framed + "next", &body, &consumed), 1);
  EXPECT_EQ(consumed, framed.size());
  EXPECT_EQ(body, "0123456789");
}

TEST(Chunked, RejectsMalformedFraming) {
  std::string body;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_chunked("zz\r\nab\r\n", &body, &consumed), -1);
  EXPECT_EQ(decode_chunked("2\r\nabX\r\n0\r\n\r\n", &body, &consumed), -1);
  EXPECT_EQ(decode_chunked(std::string(40, '1'), &body, &consumed), -1);
}

TEST(ResponseReader, PipelinedResponsesByteByByte) {
  const std::string plain =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Date: Sun, 06 Nov 1994 08:49:37 GMT\r\nContent-Length: 11\r\n"
      "Connection: keep-alive\r\n\r\nhello world";
  const std::string chunked =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Date: Mon, 07 Nov 1994 08:49:37 GMT\r\n"
      "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
  const std::string wire = plain + chunked;
  ResponseReader reader;
  std::vector<WireResponse> got;
  for (char c : wire) {
    auto state = reader.feed(std::string_view(&c, 1));
    ASSERT_NE(state, ResponseReader::State::kError);
    while (state == ResponseReader::State::kDone) {
      got.push_back(reader.take());
      state = reader.feed("");
    }
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(reader.idle());
  EXPECT_EQ(got[0].wire_bytes, plain.size());
  EXPECT_EQ(got[1].wire_bytes, chunked.size());
  EXPECT_FALSE(got[0].close);
  EXPECT_TRUE(got[1].close);
  EXPECT_TRUE(got[1].chunked);
  // Same status, handler headers and body: equal once Date and framing
  // are stripped.
  EXPECT_EQ(normalized(got[0]), normalized(got[1]));
  EXPECT_EQ(got[1].body, "hello world");
}

TEST(ResponseReader, RejectsGarbage) {
  ResponseReader reader;
  EXPECT_EQ(reader.feed("SMTP nonsense\r\n\r\n"),
            ResponseReader::State::kError);
  WireResponse r;
  EXPECT_FALSE(parse_response("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab",
                              &r));
}

std::vector<std::uint8_t> flooded_trace(std::uint64_t seed,
                                        std::size_t* floods = nullptr) {
  const exiot::Cidr aperture(exiot::Ipv4(44, 0, 0, 0), 8);
  SpoofedSynFlood flood(seed, 0.05, aperture);
  exiot::trace::TraceEncoder encoder;
  exiot::TimeMicros last = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    const auto pkt = exiot::net::make_syn(
        1000 + i * 7, exiot::Ipv4(10, 0, 0, 1),
        exiot::Ipv4(aperture.network().value() + i), 40000, 23, i);
    flood.pass(pkt, [&](const exiot::net::Packet& p) {
      EXPECT_GE(p.ts, last);
      last = p.ts;
      if (p.src != exiot::Ipv4(10, 0, 0, 1)) {
        EXPECT_FALSE(aperture.contains(p.src));
        EXPECT_TRUE(aperture.contains(p.dst));
      }
      encoder.add(p);
    });
  }
  if (floods != nullptr) *floods = flood.emitted();
  return encoder.finish();
}

TEST(SpoofedSynFlood, SameSeedSameTraceBytes) {
  std::size_t floods = 0;
  const auto a = flooded_trace(42, &floods);
  EXPECT_EQ(a, flooded_trace(42));
  EXPECT_NE(a, flooded_trace(43));
  // About 5% of the output: 20000 inputs -> ~1053 floods.
  EXPECT_GT(floods, 900u);
  EXPECT_LT(floods, 1200u);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec(true);
  const auto root = rec.add("hour", 0, 100, -1);
  rec.add("decode", 10, 40, root);
  const auto detect = rec.add("detect", 50, 90, root);
  rec.add("sink", 60, 70, detect);
  const std::vector<std::int64_t> self = rec.self_ns();
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 30, 30, 10}));
  const auto by_name = rec.self_seconds_by_name();
  EXPECT_DOUBLE_EQ(by_name.at("detect"), 30e-9);
  EXPECT_DOUBLE_EQ(rec.total_seconds_by_name().at("detect"), 40e-9);
}

TEST(Spans, ScopesNestAndSumPerName) {
  SpanRecorder rec(true);
  {
    SpanRecorder::Scope outer(rec, "outer", 7);
    for (int i = 0; i < 3; ++i) SpanRecorder::Scope inner(rec, "inner", 7);
  }
  ASSERT_EQ(rec.spans().size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(rec.spans()[i].parent, 0);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[2].tag, 7);
  const auto self = rec.self_seconds_by_name();
  const auto total = rec.total_seconds_by_name();
  EXPECT_NEAR(self.at("outer") + self.at("inner"), total.at("outer"), 1e-12);

  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
