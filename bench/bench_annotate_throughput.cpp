// Throughput of the annotate stage's banner-rule matching: banners/s of
// the literal-anchor prefiltered rule sweep vs the plain linear regex
// sweep over a realistic banner mix (the `prefilter` table).
//
//   ./bench_annotate_throughput          (EXIOT_SCALE=0.2)
//
// The table is written to BENCH_annotate.json for the perf trajectory.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fingerprint/rules.h"

using namespace exiot;

namespace {

double now_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const std::vector<std::string>& banner_mix() {
  // Half resolve through an anchored rule, half match nothing: the shape
  // the prefilter sees in production (most rules miss on most banners).
  static const std::vector<std::string> banners = {
      "HTTP/1.1 200 OK\r\n\r\n<title>RouterOS v6.45.9</title>",
      "220 AXIS Q6115-E PTZ Dome Network Camera 6.20.1.2 (2016) ready.",
      "WWW-Authenticate: Basic realm=\"HikvisionDS-2CD2042WD\"",
      "SSH-2.0-dropbear_2017.75",
      "SSH-2.0-OpenSSH_7.4",
      "Server: Apache/2.4.18 (Ubuntu)",
      "220 FTP server ready",
      "HTTP/1.1 401 Unauthorized\r\nServer: httpd\r\n\r\n",
      "login:",
      "550 no such service",
  };
  return banners;
}

double sweep_banners(const fingerprint::RuleDb& rules, bool prefiltered,
                     std::size_t iterations) {
  const auto& banners = banner_mix();
  std::size_t matched = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    for (const auto& banner : banners) {
      const auto m =
          prefiltered ? rules.match(banner) : rules.match_linear(banner);
      if (m.has_value()) ++matched;
    }
  }
  const double elapsed = now_seconds(start);
  if (matched == 0) std::printf("!! no banner matched\n");
  return static_cast<double>(iterations * banners.size()) / elapsed;
}

}  // namespace

int main() {
  const double scale = benchx::env_double("EXIOT_SCALE", 0.2);
  const fingerprint::RuleDb rules = fingerprint::RuleDb::standard();
  std::printf("prefilter (banner-rule sweep, %zu rules, %zu anchored), "
              "scale %.2f, %u hardware threads\n",
              rules.size(), rules.anchored_rules(), scale,
              std::thread::hardware_concurrency());
  const std::size_t iterations = static_cast<std::size_t>(20000 * scale) + 1000;
  const double linear_bps = sweep_banners(rules, false, iterations);
  const double fast_bps = sweep_banners(rules, true, iterations);
  std::printf("%12s %14.0f banners/s\n", "linear", linear_bps);
  std::printf("%12s %14.0f banners/s (%.2fx)\n", "prefiltered", fast_bps,
              fast_bps / linear_bps);

  std::FILE* json = benchx::open_bench_json("BENCH_annotate.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"annotate_throughput\",\n"
                 "  \"scale\": %.3f,\n  \"hardware_threads\": %u,\n",
                 scale, std::thread::hardware_concurrency());
    std::fprintf(json,
                 "  \"prefilter\": {\"rules\": %zu, \"anchored\": %zu, "
                 "\"linear_banners_per_s\": %.0f, "
                 "\"prefiltered_banners_per_s\": %.0f, \"speedup\": %.3f}\n",
                 rules.size(), rules.anchored_rules(), linear_bps, fast_bps,
                 fast_bps / linear_bps);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_annotate.json").c_str());
  }
  return 0;
}
