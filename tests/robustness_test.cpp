// Robustness tests: the parsers and decoders that face untrusted bytes
// (wire packets, trace files, JSON documents, query expressions, HTTP
// requests) or bytes a crash or a failing disk may have damaged (WAL
// segments, snapshots) must reject garbage gracefully — errors, never
// crashes or hangs. The API serving layer gets the same treatment: many
// concurrent clients, and stop() racing in-flight requests.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/http.h"
#include "api/query.h"
#include "api/server.h"
#include "api/tcp.h"
#include "common/log.h"
#include "common/rng.h"
#include "feed/manager.h"
#include "json/json.h"
#include "net/wire.h"
#include "reference_trace.h"
#include "store/snapshot.h"
#include "store/wal.h"
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

// HttpRequest::parse either rejects `raw` or returns a request whose body
// is exactly the Content-Length bytes after the header block (none
// without the header): never a body bounded by whatever else arrived.
void expect_parse_or_reject(std::string_view raw, const std::string& what) {
  const auto req = api::HttpRequest::parse(raw);
  if (!req.has_value()) return;
  std::size_t length = 0;
  const auto cl = req->headers.find("content-length");
  if (cl != req->headers.end()) {
    const std::string& value = cl->second;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), length);
    ASSERT_TRUE(ec == std::errc{} && ptr == value.data() + value.size())
        << what << ": accepted Content-Length \"" << value << "\"";
  }
  const std::size_t body_at = raw.find("\r\n\r\n") + 4;
  EXPECT_EQ(req->body, raw.substr(body_at, length)) << what;
  EXPECT_EQ(req->body.size(), length) << what;
}

TEST(HttpRobustness, MutatedRequestsParseOrReject) {
  const std::string clean =
      "POST /v1/query?limit=5 HTTP/1.1\r\nHost: localhost\r\n"
      "Authorization: Bearer t\r\nContent-Length: 11\r\n\r\n"
      "label==\"x\" GET /v1/health HTTP/1.1\r\n\r\n";
  ASSERT_EQ(api::HttpRequest::parse(clean)->body, "label==\"x\" ");
  Rng rng(137);
  for (int round = 0; round < 3000; ++round) {
    std::string raw = clean;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      raw[rng.next_below(raw.size())] ^=
          static_cast<char>(1 + rng.next_below(255));
    }
    expect_parse_or_reject(raw, "round " + std::to_string(round));
  }
  for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
    expect_parse_or_reject(std::string_view(clean).substr(0, cut),
                           "cut at " + std::to_string(cut));
  }
}

TEST(HttpRobustness, MalformedContentLengthIsRejected) {
  const auto with_length = [](const std::string& value) {
    return "POST /x HTTP/1.1\r\nContent-Length:" + value +
           "\r\n\r\nhello world";
  };
  for (const char* value : {"-1", "18446744073709551616", "5x", "0x5", ""}) {
    EXPECT_FALSE(api::HttpRequest::parse(with_length(value)).has_value())
        << "Content-Length \"" << value << "\"";
  }
  // Header values are trimmed: " 5" is the length 5, bounding the body.
  const auto padded = api::HttpRequest::parse(with_length(" 5"));
  ASSERT_TRUE(padded.has_value());
  EXPECT_EQ(padded->body, "hello");
}

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("exiot_robustness_" + tag + "_" +
                        std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct WalSegment {
  fs::path path;
  std::uint64_t start_index = 0;
  std::string bytes;
};

/// read_wal on a damaged log either fails or returns a prefix of the
/// records written; it never returns a record that was not written.
void expect_error_or_prefix(const Result<store::WalScan>& scan,
                            const std::vector<store::WalRecord>& written,
                            const std::string& what) {
  if (!scan.ok()) return;
  const auto& records = scan.value().records;
  ASSERT_LE(records.size(), written.size()) << what;
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].index, written[i].index) << what;
    EXPECT_EQ(records[i].type, written[i].type) << what;
    EXPECT_EQ(records[i].payload, written[i].payload) << what;
  }
}

TEST(WalRobustness, DamagedLogsYieldAPrefixOrAnError) {
  const fs::path dir = fresh_dir("wal");
  Rng rng(139);
  std::vector<store::WalRecord> written;
  {
    store::WalOptions options;
    options.segment_bytes = 512;  // Several segments from a small log.
    options.fsync = store::WalFsync::kNone;
    auto writer = store::WalWriter::open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (std::uint64_t i = 0; i < 60; ++i) {
      store::WalRecord record;
      record.index = i;
      record.type = static_cast<std::uint8_t>(1 + i % 3);
      record.payload.resize(rng.next_below(80));
      for (char& c : record.payload) c = static_cast<char>(rng.next_u64());
      ASSERT_TRUE(writer.value()->append(record.type, record.payload).ok());
      written.push_back(std::move(record));
    }
  }
  std::vector<WalSegment> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    segments.push_back({entry.path(),
                        std::stoull(name.substr(4, 20)),
                        read_file(entry.path())});
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegment& a, const WalSegment& b) {
              return a.start_index < b.start_index;
            });
  ASSERT_GE(segments.size(), 3u);
  const auto clean = store::read_wal(dir);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.value().records.size(), written.size());

  // Byte flips: every flip lands in a CRC-covered frame or a checked
  // header, so an early stop in the final segment is a flagged tail.
  for (int round = 0; round < 1500; ++round) {
    const WalSegment& seg = segments[rng.next_below(segments.size())];
    std::string bytes = seg.bytes;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<char>(1 + rng.next_below(255));
    }
    write_file(seg.path, bytes);
    const auto scan = store::read_wal(dir);
    const std::string what = "round " + std::to_string(round);
    expect_error_or_prefix(scan, written, what);
    if (scan.ok() && scan.value().records.size() < written.size()) {
      EXPECT_TRUE(scan.value().truncated_tail) << what;
    }
    write_file(seg.path, seg.bytes);
  }

  // Truncation at every offset of every segment. In the final segment a
  // cut inside a frame is a flagged torn tail; a cut on a frame boundary
  // is a clean, shorter log.
  const WalSegment& last = segments.back();
  std::vector<std::size_t> frame_ends = {16};  // The segment header.
  for (std::uint64_t i = last.start_index; i < written.size(); ++i) {
    frame_ends.push_back(frame_ends.back() + 9 + written[i].payload.size());
  }
  ASSERT_EQ(frame_ends.back(), last.bytes.size());
  for (const WalSegment& seg : segments) {
    for (std::size_t cut = 0; cut < seg.bytes.size(); ++cut) {
      write_file(seg.path, std::string_view(seg.bytes).substr(0, cut));
      const auto scan = store::read_wal(dir);
      const std::string what = seg.path.filename().string() + " cut at " +
                               std::to_string(cut);
      expect_error_or_prefix(scan, written, what);
      if (&seg == &last && cut >= frame_ends.front()) {
        ASSERT_TRUE(scan.ok()) << what;
        const bool mid_frame = std::find(frame_ends.begin(), frame_ends.end(),
                                         cut) == frame_ends.end();
        EXPECT_EQ(scan.value().truncated_tail, mid_frame) << what;
      }
    }
    write_file(seg.path, seg.bytes);
  }
  fs::remove_all(dir);
}

json::Value snapshot_state(int marker) {
  json::Array records;
  for (int i = 0; i < 8; ++i) {
    json::Object record{{"src", "50.0.0." + std::to_string(i)},
                        {"label", i % 3 != 0 ? "IoT" : "non-IoT"},
                        {"score", 0.5 + i / 20.0},
                        {"ports", json::Array{23, 2323, 80 + i}}};
    records.emplace_back(std::move(record));
  }
  return json::Object{{"marker", marker}, {"records", std::move(records)}};
}

TEST(SnapshotRobustness, DamagedNewestFallsBackOrLoadsWhatItHolds) {
  const fs::path dir = fresh_dir("snapshot");
  store::SnapshotDirectory snaps(dir);
  ASSERT_TRUE(snaps.save(10, snapshot_state(1)).ok());
  ASSERT_TRUE(snaps.save(25, snapshot_state(2)).ok());
  const auto older = snaps.load_latest(10);
  const auto newest = snaps.load_latest();
  ASSERT_TRUE(older.ok() && older.value().has_value());
  ASSERT_TRUE(newest.ok() && newest.value().has_value());
  const fs::path path = dir / store::snapshot_file_name(25);
  const std::string clean = read_file(path);
  const LogLevel previous_level = log_level();
  set_log_level(LogLevel::kError);  // One fallback warning per round.

  // A damaged newest snapshot costs replay time, never availability: the
  // older one loads intact. Any state that does load from the damaged
  // file is exactly what the file holds, never a partial read.
  auto check = [&](std::string_view bytes, const std::string& what) {
    write_file(path, bytes);
    const auto loaded = snaps.load_latest();
    ASSERT_TRUE(loaded.ok()) << what;
    ASSERT_TRUE(loaded.value().has_value()) << what;
    if (loaded.value()->wal_index == 10) {
      EXPECT_EQ(loaded.value()->state, older.value()->state) << what;
      return;
    }
    ASSERT_EQ(loaded.value()->wal_index, 25u) << what;
    const auto held = json::parse(bytes);
    ASSERT_TRUE(held.ok()) << what;
    EXPECT_EQ(loaded.value()->state, held.value()) << what;
  };

  // Every cut leaves an unterminated document: always the older one.
  for (std::size_t cut = 0; cut < clean.size(); ++cut) {
    write_file(path, std::string_view(clean).substr(0, cut));
    const auto loaded = snaps.load_latest();
    ASSERT_TRUE(loaded.ok() && loaded.value().has_value());
    EXPECT_EQ(loaded.value()->wal_index, 10u) << "cut at " << cut;
    EXPECT_EQ(loaded.value()->state, older.value()->state);
  }
  // A flip inside a string or a number can leave a valid document with
  // different contents. Snapshots carry no checksum, so load_latest
  // cannot tell such a file from the one saved; `check` holds it only to
  // loading what the file says.
  Rng rng(149);
  for (int round = 0; round < 1000; ++round) {
    std::string bytes = clean;
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<char>(1 + rng.next_below(255));
    }
    check(bytes, "round " + std::to_string(round));
  }
  set_log_level(previous_level);
  fs::remove_all(dir);
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
