// Request throughput of the epoll-driven API serving layer: a populated
// feed served over loopback TCP, hammered by keep-alive clients. Four
// properties are measured/checked:
//
//   - requests/sec scaling with the worker count (the acceptance bar is
//     >2x the serial (1-worker) rate at 4 workers on multi-core hardware);
//   - byte-identical responses: every response observed at every worker
//     count must equal the serial server's bytes for the same request
//     (modulo the per-second Date header, which is stripped before
//     comparison);
//   - the sequence-keyed response cache: the cacheable targets served
//     >= 5x faster with the cache attached, still byte-identical;
//   - a high-connection soak: thousands of idle keep-alive connections
//     parked on the event loops while a small active set drives traffic —
//     p50/p95/p99 latency and resident memory must stay bounded.
//
//   ./bench_api_concurrency     (EXIOT_API_RECORDS=3000 EXIOT_API_REQS=150
//                                EXIOT_API_SOAK_CONNS=10000)
//
// Results are also written to BENCH_api.json for the perf trajectory.
// Speedups can only materialize on multi-core hardware — the binary
// prints the core count so single-core CI numbers are not misread.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/cache.h"
#include "api/server.h"
#include "api/tcp.h"
#include "bench_common.h"
#include "feed/manager.h"

using namespace exiot;

namespace {

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

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

/// One framed response off `fd` (Content-Length bounded), "" on EOF.
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
    char chunk[8192];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Drops the per-second Date header so responses taken seconds apart
/// still compare byte-identical on everything that matters.
std::string strip_date(std::string response) {
  const auto at = response.find("\r\nDate: ");
  if (at == std::string::npos) return response;
  const auto end = response.find("\r\n", at + 2);
  if (end != std::string::npos) response.erase(at, end - at);
  return response;
}

std::string wire_request(const std::string& target) {
  return "GET " + target +
         " HTTP/1.1\r\nAuthorization: Bearer bench\r\n"
         "Connection: keep-alive\r\n\r\n";
}

const std::vector<std::string>& targets() {
  static const std::vector<std::string> t = {
      "/v1/records?limit=400",
      "/v1/query?q=has(label)&limit=200",
      "/v1/snapshot",
      "/v1/stats",
  };
  return t;
}

/// The cache-eligible subset (/v1/snapshot + /v1/records): what the
/// cached-vs-uncached comparison hammers.
const std::vector<std::string>& cacheable_targets() {
  static const std::vector<std::string> t = {
      "/v1/records?limit=400",
      "/v1/snapshot",
  };
  return t;
}

/// Serial-server reference bytes (Date stripped) for each target.
std::map<std::string, std::string> reference_bytes(
    const api::ApiServer& server, const std::vector<std::string>& which) {
  std::map<std::string, std::string> expected;
  for (const auto& target : which) {
    auto request = api::HttpRequest::parse(wire_request(target));
    api::HttpResponse response = server.handle(*request);
    response.headers["Connection"] = "keep-alive";
    expected[target] = strip_date(response.serialize());
  }
  return expected;
}

long current_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atol(line.c_str() + 6);
    }
  }
  return 0;
}

struct RunResult {
  double rps = 0.0;
  std::size_t served = 0;
  std::size_t mismatched = 0;
};

/// `clients` keep-alive connections x `requests_each` requests against a
/// `workers`-thread listener; every response is compared to `expected`.
RunResult run_config(const api::ApiServer& server, int workers, int clients,
                     int requests_each, const std::vector<std::string>& which,
                     const std::map<std::string, std::string>& expected) {
  api::TcpListenerOptions options;
  options.num_workers = workers;
  options.max_requests_per_connection = 1 << 20;
  api::TcpListener listener(server, options);
  auto port = listener.start(0);
  RunResult result;
  if (!port.ok()) {
    std::fprintf(stderr, "listener failed: %s\n",
                 port.error().message.c_str());
    return result;
  }

  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> mismatched{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      const int fd = connect_loopback(port.value());
      if (fd < 0) return;
      std::string buf;
      for (int i = 0; i < requests_each; ++i) {
        const std::string& target =
            which[static_cast<std::size_t>(c + i) % which.size()];
        const std::string request = wire_request(target);
        if (::write(fd, request.data(), request.size()) !=
            static_cast<ssize_t>(request.size())) {
          break;
        }
        const std::string response = read_framed(fd, buf);
        if (response.empty()) break;
        ++served;
        if (strip_date(response) != expected.at(target)) ++mismatched;
      }
      ::close(fd);
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  listener.stop();
  result.served = served.load();
  result.mismatched = mismatched.load();
  result.rps = elapsed > 0.0 ? static_cast<double>(result.served) / elapsed
                             : 0.0;
  return result;
}

struct SoakResult {
  std::size_t idle_conns = 0;
  std::size_t served = 0;
  std::size_t mismatched = 0;
  double rps = 0.0;
  long p50_us = 0, p95_us = 0, p99_us = 0;
  long rss_before_kb = 0, rss_idle_kb = 0, rss_end_kb = 0;
};

/// Parks `idle_target` keep-alive connections on the loops, then drives
/// `active` clients x `requests_each` requests through the same listener,
/// timing each request. Idle connections are verified alive at the end.
SoakResult run_soak(const api::ApiServer& server, int loops, int idle_target,
                    int active, int requests_each,
                    const std::map<std::string, std::string>& expected) {
  SoakResult result;
  // Each parked connection needs one client fd and one server fd, both in
  // this process. Raise RLIMIT_NOFILE as far as allowed, then clamp.
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0) {
    rlimit want = limit;
    want.rlim_cur = std::max<rlim_t>(limit.rlim_cur, 65536);
    if (want.rlim_max != RLIM_INFINITY) {
      want.rlim_max = std::max(want.rlim_max, want.rlim_cur);
    }
    if (::setrlimit(RLIMIT_NOFILE, &want) == 0) {
      limit = want;
    }
    const rlim_t budget =
        limit.rlim_cur > 2048 ? (limit.rlim_cur - 2048) / 2 : 64;
    if (static_cast<rlim_t>(idle_target) > budget) {
      std::fprintf(stderr,
                   "soak: fd limit %llu clamps idle connections to %llu\n",
                   static_cast<unsigned long long>(limit.rlim_cur),
                   static_cast<unsigned long long>(budget));
      idle_target = static_cast<int>(budget);
    }
  }

  api::TcpListenerOptions options;
  options.num_event_loops = loops;
  options.num_workers = 4;
  options.max_requests_per_connection = 1 << 20;
  // Idle keep-alive connections must survive the whole soak, not be swept
  // at the default 5 s read deadline.
  options.read_timeout = std::chrono::minutes(5);
  api::TcpListener listener(server, options);
  auto port = listener.start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "soak listener failed: %s\n",
                 port.error().message.c_str());
    return result;
  }

  result.rss_before_kb = current_rss_kb();
  std::vector<int> idle;
  idle.reserve(static_cast<std::size_t>(idle_target));
  for (int i = 0; i < idle_target; ++i) {
    const int fd = connect_loopback(port.value());
    if (fd < 0) break;
    idle.push_back(fd);
  }
  result.idle_conns = idle.size();
  // Let the loops drain their accept backlog before measuring occupancy.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  result.rss_idle_kb = current_rss_kb();

  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> mismatched{0};
  std::vector<std::vector<long>> latencies(
      static_cast<std::size_t>(active));
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(active));
  for (int c = 0; c < active; ++c) {
    pool.emplace_back([&, c] {
      const int fd = connect_loopback(port.value());
      if (fd < 0) return;
      std::string buf;
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(requests_each));
      for (int i = 0; i < requests_each; ++i) {
        const std::string& target =
            targets()[static_cast<std::size_t>(c + i) % targets().size()];
        const std::string request = wire_request(target);
        const auto t0 = std::chrono::steady_clock::now();
        if (::write(fd, request.data(), request.size()) !=
            static_cast<ssize_t>(request.size())) {
          break;
        }
        const std::string response = read_framed(fd, buf);
        if (response.empty()) break;
        mine.push_back(static_cast<long>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
        ++served;
        if (strip_date(response) != expected.at(target)) ++mismatched;
      }
      ::close(fd);
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.served = served.load();
  result.mismatched = mismatched.load();
  result.rps = elapsed > 0.0 ? static_cast<double>(result.served) / elapsed
                             : 0.0;

  // The parked connections must still be alive and serviceable: probe a
  // sample of them with a real request.
  for (std::size_t i = 0; i < idle.size(); i += std::max<std::size_t>(
           1, idle.size() / 16)) {
    const std::string request = wire_request("/v1/stats");
    std::string buf;
    if (::write(idle[i], request.data(), request.size()) !=
        static_cast<ssize_t>(request.size())) {
      ++result.mismatched;
      continue;
    }
    const std::string response = read_framed(idle[i], buf);
    if (strip_date(response) != expected.at("/v1/stats")) ++result.mismatched;
  }
  result.rss_end_kb = current_rss_kb();

  std::vector<long> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  auto percentile = [&](double p) -> long {
    if (all.empty()) return 0;
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(all.size() - 1));
    return all[at];
  };
  result.p50_us = percentile(0.50);
  result.p95_us = percentile(0.95);
  result.p99_us = percentile(0.99);

  for (const int fd : idle) ::close(fd);
  listener.stop();
  return result;
}

}  // namespace

int main() {
  const int records = env_int("EXIOT_API_RECORDS", 3000);
  const int requests_each = env_int("EXIOT_API_REQS", 150);
  const int clients = env_int("EXIOT_API_CLIENTS", 8);
  const int soak_conns = env_int("EXIOT_API_SOAK_CONNS", 10000);
  const int soak_loops = env_int("EXIOT_API_SOAK_LOOPS", 2);

  // A populated feed: enough records that the record-listing and
  // aggregation handlers dominate the per-request cost.
  feed::FeedManager feed;
  static const char* countries[] = {"CN", "US", "BR", "RU", "DE"};
  for (int i = 0; i < records; ++i) {
    feed::CtiRecord r;
    r.src = Ipv4(50, static_cast<std::uint8_t>(i >> 16),
                 static_cast<std::uint8_t>(i >> 8),
                 static_cast<std::uint8_t>(i));
    r.label = i % 3 != 0 ? feed::kLabelIot : feed::kLabelNonIot;
    r.country_code = countries[i % 5];
    r.asn = 4134 + i % 7;
    r.published_at = hours(1);
    (void)feed.publish(r, hours(1));
  }
  api::ApiServer server(feed);
  server.add_token("bench");

  // Reference bytes: the transport-independent handler is the serial
  // server — every concurrent response must match these exactly.
  const auto expected = reference_bytes(server, targets());

  std::printf("feed: %d records; %d clients x %d keep-alive requests; "
              "%u hardware threads\n\n",
              records, clients, requests_each,
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %10s %10s %12s\n", "workers", "req/s", "speedup",
              "served", "mismatched");

  std::FILE* json = benchx::open_bench_json("BENCH_api.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"api_concurrency\",\n"
                 "  \"records\": %d,\n  \"clients\": %d,\n"
                 "  \"requests_each\": %d,\n  \"hardware_threads\": %u,\n"
                 "  \"workers\": [",
                 records, clients, requests_each,
                 std::thread::hardware_concurrency());
  }

  double base = 0.0;
  bool first = true;
  std::size_t total_mismatched = 0;
  for (const int workers : {1, 2, 4, 8}) {
    RunResult best;
    for (int rep = 0; rep < 2; ++rep) {
      const RunResult run = run_config(server, workers, clients,
                                       requests_each, targets(), expected);
      if (run.rps > best.rps) best = run;
      total_mismatched += run.mismatched;
    }
    if (workers == 1) base = best.rps;
    std::printf("%8d %12.0f %9.2fx %10zu %12zu\n", workers, best.rps,
                base > 0.0 ? best.rps / base : 0.0, best.served,
                best.mismatched);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"workers\": %d, \"rps\": %.0f, "
                   "\"speedup\": %.3f, \"served\": %zu, "
                   "\"mismatched\": %zu}",
                   first ? "" : ",", workers, best.rps,
                   base > 0.0 ? best.rps / base : 0.0, best.served,
                   best.mismatched);
    }
    first = false;
  }

  // ---- Response cache: the cacheable targets with and without the
  // sequence-keyed cache attached (the feed is static here, so every
  // request after the first per target is a hit).
  api::ApiServer cached_server(feed);
  cached_server.add_token("bench");
  api::ResponseCache cache(64 << 20);
  obs::MetricsRegistry cache_metrics;
  cache.instrument(cache_metrics);
  cached_server.attach_cache(&cache, [] { return std::uint64_t{1}; });
  const auto cached_expected =
      reference_bytes(cached_server, cacheable_targets());
  const auto uncached_expected = reference_bytes(server, cacheable_targets());

  std::printf("\n%8s %12s %10s %10s %12s\n", "cache", "req/s", "speedup",
              "served", "hit rate");
  const RunResult uncached = run_config(server, 4, clients, requests_each,
                                        cacheable_targets(),
                                        uncached_expected);
  const RunResult with_cache = run_config(cached_server, 4, clients,
                                          requests_each, cacheable_targets(),
                                          cached_expected);
  total_mismatched += uncached.mismatched + with_cache.mismatched;
  const double cache_speedup =
      uncached.rps > 0.0 ? with_cache.rps / uncached.rps : 0.0;
  const auto hits = static_cast<double>(
      cache_metrics.counter_value("exiot_api_cache_hits_total"));
  const auto misses = static_cast<double>(
      cache_metrics.counter_value("exiot_api_cache_misses_total"));
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  std::printf("%8s %12.0f %10s %10zu %12s\n", "off", uncached.rps, "-",
              uncached.served, "-");
  std::printf("%8s %12.0f %9.2fx %10zu %11.1f%%\n", "on", with_cache.rps,
              cache_speedup, with_cache.served, 100.0 * hit_rate);
  if (json != nullptr) {
    std::fprintf(json,
                 "\n  ],\n  \"cache\": [\n"
                 "    {\"cache\": \"off\", \"workers\": 4, \"rps\": %.0f, "
                 "\"served\": %zu, \"mismatched\": %zu},\n"
                 "    {\"cache\": \"on\", \"workers\": 4, \"rps\": %.0f, "
                 "\"served\": %zu, \"mismatched\": %zu, "
                 "\"speedup\": %.3f, \"hit_rate\": %.4f}",
                 uncached.rps, uncached.served, uncached.mismatched,
                 with_cache.rps, with_cache.served, with_cache.mismatched,
                 cache_speedup, hit_rate);
  }

  // ---- Soak: thousands of idle keep-alive connections parked on the
  // loops while a small active set drives traffic.
  const int soak_active = env_int("EXIOT_API_SOAK_ACTIVE", 32);
  const int soak_reqs = env_int("EXIOT_API_SOAK_REQS", 100);
  const SoakResult soak = run_soak(server, soak_loops, soak_conns,
                                   soak_active, soak_reqs, expected);
  total_mismatched += soak.mismatched;
  const double idle_bytes =
      soak.idle_conns > 0
          ? 1024.0 *
                static_cast<double>(soak.rss_idle_kb - soak.rss_before_kb) /
                static_cast<double>(soak.idle_conns)
          : 0.0;
  std::printf("\nsoak: %zu idle conns on %d loops + %d active clients x %d "
              "requests\n",
              soak.idle_conns, soak_loops, soak_active, soak_reqs);
  std::printf("  %-28s %.0f req/s (%zu served, %zu mismatched)\n",
              "active throughput", soak.rps, soak.served, soak.mismatched);
  std::printf("  %-28s p50 %ld us, p95 %ld us, p99 %ld us\n",
              "request latency", soak.p50_us, soak.p95_us, soak.p99_us);
  std::printf("  %-28s %ld kB -> %ld kB parked -> %ld kB after "
              "(~%.0f B/conn)\n",
              "resident memory", soak.rss_before_kb, soak.rss_idle_kb,
              soak.rss_end_kb, idle_bytes);
  if (json != nullptr) {
    std::fprintf(json,
                 "\n  ],\n  \"soak\": [\n"
                 "    {\"conns\": %d, \"idle_conns\": %zu, \"loops\": %d, "
                 "\"active_clients\": %d, \"requests_each\": %d, "
                 "\"rps\": %.0f, \"served\": %zu, \"mismatched\": %zu, "
                 "\"p50_us\": %ld, \"p95_us\": %ld, \"p99_us\": %ld, "
                 "\"rss_before_kb\": %ld, \"rss_idle_kb\": %ld, "
                 "\"rss_end_kb\": %ld}\n  ]\n}\n",
                 soak_conns, soak.idle_conns, soak_loops, soak_active,
                 soak_reqs,
                 soak.rps, soak.served, soak.mismatched, soak.p50_us,
                 soak.p95_us, soak.p99_us, soak.rss_before_kb,
                 soak.rss_idle_kb, soak.rss_end_kb);
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_api.json").c_str());
  }
  std::printf("\nspeedup >= 2x at 4 workers expected on >=4 cores; cache "
              ">= 5x on the cacheable targets; mismatched must be 0 "
              "everywhere (responses are byte-identical to the serial "
              "server, Date header aside).\n");
  return total_mismatched == 0 ? 0 : 1;
}
