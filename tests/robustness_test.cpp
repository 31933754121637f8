// Robustness tests: the parsers and decoders that face untrusted bytes
// (wire packets, trace files, JSON documents, query expressions) must
// reject garbage gracefully — errors, never crashes or hangs. The API
// serving layer gets the same treatment: many concurrent clients, and
// stop() racing in-flight requests.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "api/tcp.h"
#include "common/rng.h"
#include "feed/manager.h"
#include "json/json.h"
#include "net/wire.h"
#include "reference_trace.h"
#include "trace/trace.h"

namespace exiot {
namespace {

TEST(WireRobustness, RandomBytesNeverCrash) {
  Rng rng(101);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(rng.next_below(120));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    auto parsed = net::parse(bytes);
    // Random bytes essentially never carry a valid IPv4 checksum; both
    // outcomes are acceptable, crashing is not.
    (void)parsed;
  }
}

TEST(WireRobustness, BitFlippedPacketsNeverCrash) {
  Rng rng(103);
  net::Packet p = net::make_syn(0, Ipv4(1, 2, 3, 4), Ipv4(44, 5, 6, 7),
                                40000, 23);
  p.opts.mss = 1460;
  p.opts.timestamp = true;
  std::vector<std::uint8_t> clean;
  net::serialize_to(p, clean);
  for (int round = 0; round < 2000; ++round) {
    auto bytes = clean;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    (void)net::parse(bytes);
  }
}

// next_batch against the reference decoder at every batch size: the same
// packets, the same stopping point, the same error text.
void expect_decoders_agree(const std::vector<std::uint8_t>& bytes,
                           const std::string& what) {
  const oracle::DecodedTrace want = oracle::reference_decode(bytes);
  for (const std::size_t rows : oracle::kDecodeBatchRows) {
    const oracle::DecodedTrace got = oracle::batched_decode(bytes, rows);
    EXPECT_EQ(got.packets, want.packets) << what << ", rows " << rows;
    EXPECT_EQ(got.error, want.error) << what << ", rows " << rows;
  }
}

TEST(TraceRobustness, CorruptedStreamsErrorOut) {
  Rng rng(107);
  std::vector<net::Packet> pkts;
  for (int i = 0; i < 50; ++i) {
    pkts.push_back(net::make_syn(i * 1000, Ipv4(1, 1, 1, 1),
                                 Ipv4(44, 0, 0, 1), 4000, 23));
  }
  // Every third record is off the canonical fast path.
  const auto clean = oracle::encode_with_ip_options(pkts, 3);
  for (int round = 0; round < 500; ++round) {
    auto bytes = clean;
    // Corrupt a random span.
    const std::size_t at = rng.next_below(bytes.size());
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(16), bytes.size() - at);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[at + i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    // Never invents extra packets.
    EXPECT_LE(oracle::reference_decode(bytes).packets.size(), pkts.size());
    expect_decoders_agree(bytes, "round " + std::to_string(round));
  }
}

TEST(TraceRobustness, TruncationAtEveryOffset) {
  std::vector<net::Packet> pkts;
  for (int i = 0; i < 5; ++i) {
    pkts.push_back(net::make_syn(i * 1000, Ipv4(1, 1, 1, 1),
                                 Ipv4(44, 0, 0, 1), 4000, 23));
  }
  const auto clean = oracle::encode_with_ip_options(pkts, 2);
  ASSERT_EQ(oracle::reference_decode(clean).packets, pkts);
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    std::vector<std::uint8_t> bytes(clean.begin(),
                                    clean.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
    // A cut stream always lacks its marker: never a clean end.
    EXPECT_FALSE(oracle::reference_decode(bytes).error.empty());
    expect_decoders_agree(bytes, "cut at " + std::to_string(cut));
  }
}

TEST(TraceRobustness, HugeRecordLengthIsATruncatedBody) {
  // A corrupt ten-byte length varint close to 2^64: the bounds check must
  // not wrap around and hand the parser a body past the buffer's end.
  std::vector<std::uint8_t> bytes = {'E', 'X', 'T', '1', 0x00};
  for (int i = 0; i < 9; ++i) bytes.push_back(0xFF);
  bytes.push_back(0x01);  // Length 2^64 - 1.
  bytes.resize(bytes.size() + 40, 0x45);
  trace::TraceDecoder decoder(bytes);
  net::PacketBatch batch;
  EXPECT_EQ(decoder.next_batch(batch, 8), 0u);
  EXPECT_EQ(decoder.last_error(), "truncated packet body");
  expect_decoders_agree(bytes, "huge length");
}

TEST(JsonRobustness, RandomAsciiNeverCrashes) {
  Rng rng(109);
  const char alphabet[] = "{}[]\",:0123456789.eE+-truefalsnu \\/x";
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const std::size_t len = rng.next_below(60);
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.next_below(sizeof(alphabet) - 1)];
    }
    (void)json::parse(text);
  }
}

TEST(JsonRobustness, MutatedValidDocumentsNeverCrash) {
  Rng rng(113);
  const std::string valid =
      R"({"src_ip":"1.2.3.4","label":"IoT","score":0.93,)"
      R"("open_ports":[22,80],"nested":{"deep":[1,2,3]}})";
  for (int round = 0; round < 3000; ++round) {
    std::string text = valid;
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      text[rng.next_below(text.size())] =
          static_cast<char>(32 + rng.next_below(95));
    }
    auto parsed = json::parse(text);
    if (parsed.ok()) {
      // Whatever survived mutation must serialize cleanly too.
      (void)parsed.value().dump();
    }
  }
}

TEST(QueryRobustness, RandomExpressionsNeverCrash) {
  Rng rng(127);
  const char* fragments[] = {"label",   "==",      "\"IoT\"", "&&",
                             "||",      "!",       "(",       ")",
                             "score",   ">=",      "0.9",     "has",
                             "contains", "asn",    "4134",    "true",
                             "startswith", "\"x\"", "<",      "not"};
  json::Value doc;
  doc["label"] = "IoT";
  doc["score"] = 0.9;
  for (int round = 0; round < 3000; ++round) {
    std::string expr;
    const std::size_t len = 1 + rng.next_below(10);
    for (std::size_t i = 0; i < len; ++i) {
      expr += fragments[rng.next_below(std::size(fragments))];
      expr += ' ';
    }
    auto compiled = api::Query::compile(expr);
    if (compiled.ok()) {
      (void)compiled.value().matches(doc);  // Evaluation must not crash.
    }
  }
}

// ------------------------------------------------------- API serving ----

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One framed response off `fd` (appending into `buf`), "" on EOF.
std::string read_framed(int fd, std::string& buf) {
  while (true) {
    const auto header_end = buf.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      std::size_t length = 0;
      const auto at = buf.find("Content-Length: ");
      if (at != std::string::npos && at < header_end) {
        length = static_cast<std::size_t>(std::atoll(buf.c_str() + at + 16));
      }
      const std::size_t total = header_end + 4 + length;
      if (buf.size() >= total) {
        std::string out = buf.substr(0, total);
        buf.erase(0, total);
        return out;
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Drops the Date header line: it is stamped at serialization time, so
/// two otherwise-identical responses may differ in that one line when a
/// second boundary falls between them.
std::string strip_date(std::string response) {
  const auto pos = response.find("\r\nDate: ");
  if (pos == std::string::npos) return response;
  const auto end = response.find("\r\n", pos + 2);
  if (end == std::string::npos) return response;
  response.erase(pos, end - pos);
  return response;
}

feed::FeedManager& shared_feed() {
  static feed::FeedManager* feed = [] {
    auto* f = new feed::FeedManager();
    feed::CtiRecord r;
    for (int i = 0; i < 20; ++i) {
      r.src = Ipv4(50, 0, static_cast<std::uint8_t>(i >> 8),
                   static_cast<std::uint8_t>(i));
      r.label = i % 2 == 0 ? feed::kLabelIot : feed::kLabelNonIot;
      r.published_at = hours(1);
      (void)f->publish(r, hours(1));
    }
    return f;
  }();
  return *feed;
}

TEST(ApiRobustness, ConcurrentKeepAliveClientsAllServed) {
  api::ApiServer server(shared_feed());
  server.add_token("secret");
  api::TcpListenerOptions options;
  options.num_workers = 4;
  api::TcpListener listener(server, options);
  auto port = listener.start(0);
  if (!port.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << port.error().message;
  }

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 25;
  std::atomic<int> ok{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      const int fd = connect_loopback(port.value());
      if (fd < 0) return;
      std::string buf;
      std::string expected;
      for (int i = 0; i < kRequestsEach; ++i) {
        const std::string request =
            "GET /v1/stats HTTP/1.1\r\nAuthorization: Bearer secret\r\n"
            "Connection: keep-alive\r\n\r\n";
        if (::write(fd, request.data(), request.size()) !=
            static_cast<ssize_t>(request.size())) {
          break;
        }
        const std::string response = read_framed(fd, buf);
        if (response.find("HTTP/1.1 200 OK") == std::string::npos) break;
        // Every client must see the identical bytes for the identical
        // request, regardless of worker interleaving (modulo the Date
        // header, which tracks wall time).
        if (expected.empty()) expected = strip_date(response);
        if (strip_date(response) != expected) ++mismatched;
        ++ok;
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  listener.stop();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(mismatched.load(), 0);
}

TEST(ApiRobustness, StopWhileServingDrainsCleanly) {
  api::ApiServer server(shared_feed());
  server.add_token("secret");
  api::TcpListenerOptions options;
  options.num_workers = 2;
  options.read_timeout = std::chrono::milliseconds(200);
  api::TcpListener listener(server, options);
  auto port = listener.start(0);
  if (!port.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << port.error().message;
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        const int fd = connect_loopback(port.value());
        if (fd < 0) return;  // Listener gone: done.
        const std::string request =
            "GET /v1/snapshot HTTP/1.1\r\nAuthorization: Bearer secret"
            "\r\n\r\n";
        (void)::write(fd, request.data(), request.size());
        std::string buf;
        // Any outcome is fine mid-shutdown (full response, 503, reset);
        // the assertion is that nothing crashes or hangs.
        (void)read_framed(fd, buf);
        ::close(fd);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  listener.stop();  // Must return despite clients mid-flight.
  stop.store(true);
  for (auto& t : clients) t.join();

  // The listener restarts cleanly after a drain.
  auto again = listener.start(0);
  ASSERT_TRUE(again.ok());
  const int fd = connect_loopback(again.value());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /v1/health HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string buf;
  EXPECT_NE(read_framed(fd, buf).find("HTTP/1.1 200 OK"), std::string::npos);
  ::close(fd);
  listener.stop();
}

TEST(Ipv4Robustness, RandomStringsNeverCrash) {
  Rng rng(131);
  for (int round = 0; round < 3000; ++round) {
    std::string text;
    const std::size_t len = rng.next_below(24);
    for (std::size_t i = 0; i < len; ++i) {
      text += static_cast<char>(rng.next_below(256));
    }
    (void)Ipv4::parse(text);
    (void)Cidr::parse(text);
  }
}

}  // namespace
}  // namespace exiot
