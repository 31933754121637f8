// The API serving layers, measured in feed's traced run on the finished
// pipeline's feed: ApiServer plus the commit-sequence-keyed ResponseCache
// over a loopback TcpListener (1 event loop, 2 workers), the cache warmed
// with every cacheable target, then 4 keep-alive closed-loop clients on one
// thread, each sending its next request only after the previous reply, as
// polling CTI connectors do. The seeded mix (no access logs exist, so it is
// assumed):
//   60% /v1/records/<ip>, half feed IPs (hits) and half other IPs (404s)
//   15% filtered /v1/records       (cached)
//   10% /v1/query                  (scans the latest store)
//   10% /v1/snapshot?since=        (cached)
//    5% /v1/export of the newest 64 records (chunked stream)
//
// Gate: every wire response equals the in-process ApiServer::handle bytes
// for the same request, with Date and the framing headers stripped and the
// chunked export reassembled; 5xx/408 answers and connection errors fail.
//
// The first requests of the same sequence are then replayed in-process
// through HttpRequest::parse -> ApiServer::handle (export stream drained)
// -> HttpResponse::serialize, once bare and once with spans; the wire
// median minus the handle median per class is the transport's share. On a
// shared host the wire figures follow the hypervisor's wakeup latency, so
// they are per-layer metrics, to be read beside the run's steal record.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "api/cache.h"
#include "api/http.h"
#include "api/server.h"
#include "api/tcp.h"
#include "pipeline/exiot.h"
#include "workloads.h"

namespace perfbench {
namespace {

using exiot::api::HttpRequest;
using exiot::api::HttpResponse;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kEventLoops = 1;
constexpr std::size_t kCacheBytes = 16u << 20;  // The serve default.
constexpr const char* kToken = "perfbench";
/// Records the export requests ask for (the newest ones).
constexpr std::size_t kExportRecords = 64;
/// Requests the closed-loop clients send, and how many of them are
/// replayed in-process afterwards: fixed work, so runs compare.
constexpr std::size_t kWireRequests = 10000;
constexpr std::size_t kInProcessRequests = 2000;
/// A request unanswered this long counts as failed (server deadlines are
/// 5 s, so a healthy server never gets near it).
constexpr std::int64_t kRequestTimeoutNs = 10'000'000'000;

enum Class : std::uint8_t { kLookup, kRecords, kQuery, kSnapshot, kExport };
constexpr std::array<const char*, 5> kClassNames = {
    "lookup", "records", "query", "snapshot", "export"};

/// One request of the sequence: its class and the IP (lookups) or index
/// into the class's targets; RequestMix::target() spells it out.
struct Request {
  Class cls = kLookup;
  std::uint32_t arg = 0;
};

std::string url_encode(std::string_view text) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

/// The seeded request sequence, drawn over targets derived from the feed.
class RequestMix {
 public:
  RequestMix(const exiot::feed::FeedManager& feed, std::uint64_t seed)
      : rng_(seed ^ 0xA91F0C0FFEEull) {
    std::map<std::string, int> countries;
    std::map<std::int64_t, int> asns;
    std::vector<std::int64_t> published;
    feed.latest_store().for_each(
        [&](const exiot::store::ObjectId&, const exiot::json::Value& doc) {
          if (auto addr = exiot::Ipv4::parse(doc.get_string("src_ip"));
              addr && feed_ips_.insert(addr->value()).second) {
            hit_ips_.push_back(addr->value());
          }
          ++countries[doc.get_string("country_code")];
          ++asns[doc.get_int("asn")];
          published.push_back(doc.get_int("published_at"));
        });
    if (hit_ips_.empty()) throw std::runtime_error("api: empty feed");
    std::sort(hit_ips_.begin(), hit_ips_.end());
    std::sort(published.begin(), published.end());
    const auto top = [](const auto& counts, std::size_t n) {
      std::vector<std::pair<int, typename std::decay_t<
                                     decltype(counts)>::key_type>>
          order;
      for (const auto& [key, count] : counts) order.emplace_back(-count, key);
      std::sort(order.begin(), order.end());
      std::vector<typename std::decay_t<decltype(counts)>::key_type> out;
      for (std::size_t i = 0; i < order.size() && i < n; ++i) {
        out.push_back(order[i].second);
      }
      return out;
    };
    const auto at = [&published](double q) {
      return published[static_cast<std::size_t>(
          q * static_cast<double>(published.size() - 1))];
    };
    for (const char* label : {"IoT", "non-IoT", "Benign", "unlabeled"}) {
      records_.push_back(std::string("/v1/records?label=") + label +
                         "&limit=50");
    }
    for (const std::string& cc : top(countries, 4)) {
      records_.push_back("/v1/records?country=" + cc + "&limit=50");
    }
    for (std::int64_t asn : top(asns, 4)) {
      records_.push_back("/v1/records?asn=" + std::to_string(asn) +
                         "&limit=50");
    }
    records_.push_back("/v1/records?active=true&limit=50");
    records_.push_back("/v1/records?active=false&limit=50");
    records_.push_back("/v1/records?since=" + std::to_string(at(0.5)) +
                       "&limit=100");
    records_.push_back("/v1/records?limit=100");
    const auto top_asn = top(asns, 2);
    const std::vector<std::string> queries = {
        "label == \"IoT\" && score >= 0.9",
        "country_code == \"" + top(countries, 1).front() + "\"",
        "has(vendor)",
        "asn == " + std::to_string(top_asn.front()) + " || asn == " +
            std::to_string(top_asn.back()),
        "tool contains \"Mirai\"",
        "scan_rate > 1 && !(label == \"Benign\")",
    };
    for (const std::string& q : queries) {
      queries_.push_back("/v1/query?q=" + url_encode(q) + "&limit=10");
    }
    for (double q : {0.0, 0.25, 0.5, 0.75}) {
      snapshots_.push_back("/v1/snapshot?since=" +
                           std::to_string(q == 0.0 ? 0 : at(q)));
    }
    // The newest records, a fixed count of them: publication comes in
    // scan-batch bursts, so a fixed time window would hold a seed-dependent
    // number of records.
    export_ = "/v1/export?since=" +
              std::to_string(published[published.size() -
                                       std::min<std::size_t>(
                                           kExportRecords, published.size())]);
  }

  /// The next request. Classes come in shuffled blocks of 20 with the
  /// mix's exact proportions, so every prefix of the sequence has the
  /// same class shares whatever the seed; targets within a class are drawn
  /// at random.
  Request next() {
    if (block_pos_ == block_.size()) {
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.below(i + 1)]);
      }
      block_pos_ = 0;
    }
    const Slot slot = block_[block_pos_++];
    auto pick = [this](const std::vector<std::string>& from) {
      return static_cast<std::uint32_t>(rng_.below(from.size()));
    };
    switch (slot) {
      case Slot::kHit:
        return {kLookup, hit_ips_[rng_.below(hit_ips_.size())]};
      case Slot::kMiss: {
        std::uint32_t ip = 0;
        do {
          ip = static_cast<std::uint32_t>(rng_.next());
        } while ((ip >> 24) == 0 || (ip >> 24) >= 224 ||
                 feed_ips_.contains(ip));
        return {kLookup, ip};
      }
      case Slot::kRecords:
        return {kRecords, pick(records_)};
      case Slot::kQuery:
        return {kQuery, pick(queries_)};
      case Slot::kSnapshot:
        return {kSnapshot, pick(snapshots_)};
      case Slot::kExport:
        break;
    }
    return {kExport, 0};
  }

  std::string target(const Request& r) const {
    switch (r.cls) {
      case kLookup:
        return "/v1/records/" + exiot::Ipv4(r.arg).to_string();
      case kRecords:
        return records_[r.arg];
      case kQuery:
        return queries_[r.arg];
      case kSnapshot:
        return snapshots_[r.arg];
      case kExport:
        break;
    }
    return export_;
  }

  /// Every target the response cache serves.
  std::vector<std::string> cacheable() const {
    std::vector<std::string> out = records_;
    out.insert(out.end(), snapshots_.begin(), snapshots_.end());
    return out;
  }

 private:
  /// One block of the mix: 60% lookups (half feed IPs, half not), 15%
  /// records, 10% query, 10% snapshot, 5% export.
  enum class Slot : std::uint8_t {
    kHit, kMiss, kRecords, kQuery, kSnapshot, kExport
  };
  std::array<Slot, 20> block_ = {
      Slot::kHit,     Slot::kHit,     Slot::kHit,     Slot::kHit,
      Slot::kHit,     Slot::kHit,     Slot::kMiss,    Slot::kMiss,
      Slot::kMiss,    Slot::kMiss,    Slot::kMiss,    Slot::kMiss,
      Slot::kRecords, Slot::kRecords, Slot::kRecords, Slot::kQuery,
      Slot::kQuery,   Slot::kSnapshot, Slot::kSnapshot, Slot::kExport};
  std::size_t block_pos_ = block_.size();
  SeededRng rng_;
  std::vector<std::uint32_t> hit_ips_;
  std::unordered_set<std::uint32_t> feed_ips_;
  std::vector<std::string> records_, queries_, snapshots_;
  std::string export_;
};

std::string request_bytes(const std::string& target) {
  return "GET " + target +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nAuthorization: Bearer " + kToken +
         "\r\nConnection: keep-alive\r\n\r\n";
}

struct Outcome {
  std::uint32_t request = 0;  // Index into the sequence.
  Class cls = kLookup;
  bool failed = false;
  std::uint16_t status = 0;
  float latency_us = 0.0f;
  std::uint32_t bytes = 0;
  std::uint64_t hash = 0;  // Of the normalized response.
};

/// What a client sends next: sequence index, class and target.
struct Issue {
  std::uint32_t index = 0;
  Class cls = kLookup;
  std::string target;
};

/// Closed-loop keep-alive clients multiplexed on the calling thread.
class ClientPool {
 public:
  ClientPool(std::uint16_t port, int clients) : port_(port), clients_(clients) {}
  ~ClientPool() {
    for (Client& c : clients_) close_fd(c);
  }
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Runs until `more()` returns false (asked only when a client is idle)
  /// and every request in flight has completed. `next()` yields the next
  /// Issue; `done(outcome)` receives each result.
  template <typename More, typename Next, typename Done>
  void run(More&& more, Next&& next, Done&& done) {
    std::vector<pollfd> fds;
    std::vector<Client*> owners;
    char buf[64 * 1024];
    while (true) {
      for (Client& c : clients_) {
        if (c.busy || !more()) continue;
        const Issue issue = next();
        c.outcome = Outcome{};
        c.outcome.request = issue.index;
        c.outcome.cls = issue.cls;
        if (c.fd < 0 && !connect_fd(c)) {
          c.outcome.failed = true;
          done(c.outcome);
          continue;
        }
        c.out = request_bytes(issue.target);
        c.out_pos = 0;
        c.busy = true;
        c.sent_ns = now_ns();
        flush(c);
      }
      fds.clear();
      owners.clear();
      for (Client& c : clients_) {
        if (!c.busy) continue;
        short events = POLLIN;
        if (c.out_pos < c.out.size()) events |= POLLOUT;
        fds.push_back(pollfd{c.fd, events, 0});
        owners.push_back(&c);
      }
      if (fds.empty()) return;
      if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        Client& c = *owners[i];
        if (fds[i].revents & POLLOUT) flush(c);
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
          receive(c, buf, sizeof(buf), done);
        }
        if (c.busy && now_ns() - c.sent_ns > kRequestTimeoutNs) {
          fail(c, done);
        }
      }
    }
  }

 private:
  struct Client {
    int fd = -1;
    ResponseReader reader;
    std::string out;
    std::size_t out_pos = 0;
    std::int64_t sent_ns = 0;
    bool busy = false;
    Outcome outcome;
  };

  bool connect_fd(Client& c) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      close_fd(c);
      return false;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    c.reader = ResponseReader{};
    return true;
  }

  static void close_fd(Client& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }

  void flush(Client& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return;  // EAGAIN: POLLOUT resumes; errors surface on read.
      }
    }
  }

  template <typename Done>
  void receive(Client& c, char* buf, std::size_t cap, Done& done) {
    while (c.busy) {
      const ssize_t n = ::recv(c.fd, buf, cap, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        fail(c, done);  // Reset or EOF before the response completed.
        return;
      }
      const auto state =
          c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      if (state == ResponseReader::State::kError) {
        fail(c, done);
        return;
      }
      if (state == ResponseReader::State::kDone) {
        const WireResponse r = c.reader.take();
        c.outcome.latency_us =
            static_cast<float>(static_cast<double>(now_ns() - c.sent_ns) * 1e-3);
        c.outcome.status = static_cast<std::uint16_t>(r.status);
        c.outcome.bytes = static_cast<std::uint32_t>(r.wire_bytes);
        c.outcome.hash = fnv1a(normalized(r));
        c.outcome.failed =
            r.status >= 500 || r.status == 408 || !c.reader.idle();
        c.busy = false;
        if (r.close || c.outcome.failed) close_fd(c);
        done(c.outcome);
      }
    }
  }

  template <typename Done>
  void fail(Client& c, Done& done) {
    c.outcome.failed = true;
    c.outcome.latency_us =
        static_cast<float>(static_cast<double>(now_ns() - c.sent_ns) * 1e-3);
    c.busy = false;
    close_fd(c);
    done(c.outcome);
  }

  std::uint16_t port_;
  std::vector<Client> clients_;
};

/// Sends each target once over the wire (one client); true when all
/// answered 200.
bool warm_up(std::uint16_t port, const std::vector<std::string>& targets) {
  ClientPool pool(port, 1);
  std::size_t next = 0;
  bool ok = true;
  pool.run([&] { return next < targets.size(); },
           [&] {
             const auto i = static_cast<std::uint32_t>(next);
             return Issue{i, kRecords, targets[next++]};
           },
           [&](const Outcome& o) { ok = ok && !o.failed && o.status == 200; });
  return ok;
}

/// The in-process side: parse -> handle (stream drained) -> serialize.
struct InProcess {
  WireResponse response;
  std::int64_t parse_ns = 0, handle_ns = 0, serialize_ns = 0;
};

InProcess handle_in_process(const exiot::api::ApiServer& server,
                            const std::string& raw, SpanRecorder& spans,
                            std::int64_t tag) {
  InProcess out;
  SpanRecorder::Scope request_span(spans, "api.request", tag);
  const std::int64_t t0 = now_ns();
  std::optional<HttpRequest> request;
  {
    SpanRecorder::Scope span(spans, "api.parse", tag);
    request = HttpRequest::parse(raw);
  }
  const std::int64_t t1 = now_ns();
  if (!request) throw std::runtime_error("api: unparseable request");
  HttpResponse response;
  std::string streamed;
  {
    SpanRecorder::Scope span(spans, "api.handle", tag);
    response = server.handle(*request);
    if (response.body_stream) {
      while (auto piece = (*response.body_stream)()) streamed += *piece;
    }
  }
  const std::int64_t t2 = now_ns();
  std::string wire;
  {
    SpanRecorder::Scope span(spans, "api.serialize", tag);
    wire = response.body_stream ? response.serialize_head_chunked()
                                : response.serialize();
  }
  const std::int64_t t3 = now_ns();
  out.parse_ns = t1 - t0;
  out.handle_ns = t2 - t1;
  out.serialize_ns = t3 - t2;
  if (response.body_stream) {
    // `wire` is the chunked head alone: close it with the last-chunk
    // marker to parse it, then attach the drained body.
    wire += "0\r\n\r\n";
    if (!parse_response(wire, &out.response)) {
      throw std::runtime_error("api: unparseable in-process head");
    }
    out.response.body = std::move(streamed);
  } else if (!parse_response(wire, &out.response)) {
    throw std::runtime_error("api: unparseable in-process response");
  }
  return out;
}

struct Replay {
  std::array<std::vector<double>, kClassNames.size()> handle_us;
  std::vector<double> parse_us, serialize_us;
  std::int64_t wall_ns = 0;
};

/// Replays the first `n` requests of `sequence` in-process, recording
/// their times; fills `expected` with each target's normalized digest.
Replay replay_in_process(const exiot::api::ApiServer& server,
                         const RequestMix& mix,
                         const std::vector<Request>& sequence, std::size_t n,
                         SpanRecorder& spans,
                         std::unordered_map<std::string, std::uint64_t>&
                             expected) {
  Replay out;
  n = std::min(n, sequence.size());
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string target = mix.target(sequence[i]);
    const InProcess r = handle_in_process(server, request_bytes(target),
                                          spans, static_cast<std::int64_t>(i));
    out.handle_us[sequence[i].cls].push_back(
        static_cast<double>(r.handle_ns) * 1e-3);
    out.parse_us.push_back(static_cast<double>(r.parse_ns) * 1e-3);
    out.serialize_us.push_back(static_cast<double>(r.serialize_ns) * 1e-3);
    expected.try_emplace(target, fnv1a(normalized(r.response)));
  }
  out.wall_ns = now_ns() - t0;
  return out;
}

double counter(const exiot::obs::MetricsRegistry& m, const char* name,
               const exiot::obs::Labels& labels = {}) {
  return static_cast<double>(m.counter_value(name, labels));
}

}  // namespace

void measure_api_layers(exiot::pipeline::ExIotPipeline& pipe,
                        const Options& options, RunResult& result,
                        LayerReport& layers) {
  exiot::obs::MetricsRegistry& m = pipe.metrics();
  exiot::api::ResponseCache cache(kCacheBytes);
  cache.instrument(m);
  exiot::api::ApiServer server(pipe.feed());
  server.add_token(kToken);
  server.attach_metrics(&m);
  server.attach_cache(&cache, [&pipe] { return pipe.commit_sequence(); });
  exiot::api::TcpListenerOptions listener_options;
  listener_options.num_workers = kWorkers;
  listener_options.num_event_loops = kEventLoops;
  exiot::api::TcpListener listener(server, listener_options);
  listener.instrument(m);
  auto port = listener.start(0);
  if (!port.ok()) throw std::runtime_error("listen: " + port.error().message);
  RequestMix mix(pipe.feed(), options.seed);
  result.check(warm_up(port.value(), mix.cacheable()),
               "cache warm-up");

  // Wire phase: a fixed number of requests from the closed-loop clients.
  const exiot::obs::Labels blocked_labels = {
      {"buffer", "api"}, {"side", "consumer"}};
  const double hits0 = counter(m, "exiot_api_cache_hits_total");
  const double misses0 = counter(m, "exiot_api_cache_misses_total");
  const double rejected0 = counter(m, "exiot_api_rejected_total") +
                           counter(m, "exiot_api_timeouts_total");
  const double blocked0 =
      counter(m, "exiot_buffer_blocked_micros_total", blocked_labels);
  std::vector<Request> sequence(kWireRequests);
  std::vector<Outcome> outcomes;
  outcomes.reserve(kWireRequests);
  std::size_t issued = 0;
  const double cpu0 = process_cpu_seconds();
  const double client_cpu0 = thread_cpu_seconds();
  const std::int64_t t_start = now_ns();
  {
    ClientPool pool(port.value(), kClients);
    pool.run([&] { return issued < kWireRequests; },
             [&] {
               sequence[issued] = mix.next();
               const Request& r = sequence[issued];
               return Issue{static_cast<std::uint32_t>(issued++), r.cls,
                            mix.target(r)};
             },
             [&](const Outcome& o) { outcomes.push_back(o); });
  }
  const double wall_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  // The serving threads' CPU: the process's minus this (client) thread's.
  const double server_cpu_s = (process_cpu_seconds() - cpu0) -
                              (thread_cpu_seconds() - client_cpu0);
  const double hits = counter(m, "exiot_api_cache_hits_total") - hits0;
  const double misses = counter(m, "exiot_api_cache_misses_total") - misses0;
  const double rejected = counter(m, "exiot_api_rejected_total") +
                          counter(m, "exiot_api_timeouts_total") - rejected0;
  const double blocked_s =
      (counter(m, "exiot_buffer_blocked_micros_total", blocked_labels) -
       blocked0) *
      1e-6;
  listener.stop();

  // In-process replay of the sequence's first requests: a warm-up round
  // that records the gate's expected bytes, a bare round, a traced round.
  std::unordered_map<std::string, std::uint64_t> expected;
  SpanRecorder untraced(false);
  replay_in_process(server, mix, sequence, kInProcessRequests,
                    untraced, expected);
  const Replay bare = replay_in_process(server, mix, sequence,
                                        kInProcessRequests, untraced,
                                        expected);
  SpanRecorder spans(true);
  const Replay traced = replay_in_process(server, mix, sequence,
                                          kInProcessRequests, spans, expected);

  // Gate: each wire response against the in-process bytes for its target.
  std::vector<double> wire_us;
  std::array<std::vector<double>, kClassNames.size()> class_latency;
  std::array<double, kClassNames.size()> class_bytes{};
  for (const Outcome& o : outcomes) {
    const std::string target = mix.target(sequence[o.request]);
    auto it = expected.find(target);
    if (it == expected.end()) {
      const InProcess ref =
          handle_in_process(server, request_bytes(target), untraced, -1);
      it = expected.emplace(target, fnv1a(normalized(ref.response))).first;
    }
    result.check(!o.failed && o.hash == it->second,
                 "response " + std::to_string(o.request) + " (" + target +
                     ", status " + std::to_string(o.status) + ")");
    wire_us.push_back(o.latency_us);
    class_latency[o.cls].push_back(o.latency_us);
    class_bytes[o.cls] += static_cast<double>(o.bytes);
  }

  for (std::size_t c = 0; c < kClassNames.size(); ++c) {
    const std::string cls = kClassNames[c];
    const double handle = median(traced.handle_us[c]);
    layers.set("api.handle_us." + cls, handle);
    layers.set("api.transport_us." + cls, median(class_latency[c]) - handle);
    layers.set("api.response_bytes." + cls,
               ratio(class_bytes[c],
                     static_cast<double>(class_latency[c].size())));
  }
  layers.set("api.parse_us", median(traced.parse_us));
  layers.set("api.serialize_us", median(traced.serialize_us));
  layers.set("api.cache_hit_ratio", ratio(hits, hits + misses));
  layers.set("api.worker_busy_share",
             1.0 - ratio(blocked_s, kWorkers * wall_s));
  layers.set("api.rejected", rejected);
  layers.set("api.wire_rps", static_cast<double>(outcomes.size()) / wall_s);
  layers.set("api.wire_p50_us", percentile(wire_us, 0.5).value);
  layers.set("api.wire_p99_us", percentile(wire_us, 0.99).value);
  layers.set("api.server_cpu_us_per_request",
             ratio(server_cpu_s * 1e6, static_cast<double>(outcomes.size())));
  const auto totals = spans.total_seconds_by_name();
  const auto self = spans.self_seconds_by_name();
  std::printf("api: %zu requests in %.3f s over %d clients (%.0f rps), "
              "%zu distinct targets; in-process spans cover %.1f%% of each "
              "request, tracing overhead %.1f%%\n",
              outcomes.size(), wall_s, kClients,
              static_cast<double>(outcomes.size()) / wall_s, expected.size(),
              100.0 * (1.0 - ratio(self.at("api.request"),
                                   totals.at("api.request"))),
              100.0 * (ratio(static_cast<double>(traced.wall_ns),
                             static_cast<double>(bare.wall_ns)) -
                       1.0));
  spans.write_jsonl(
      (options.trace_dir / ("api-seed" + std::to_string(options.seed) +
                            ".spans.jsonl"))
          .string());
}

}  // namespace perfbench
