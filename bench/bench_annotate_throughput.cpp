// Throughput of the annotate/classify/publish stage, in two tables:
//
//   stage — pre-built scanner bundles pushed through AnnotateStage at
//     increasing worker counts. The annotator runs the real per-record
//     work (feature extraction, forest scoring, banner-rule matching,
//     tool fingerprinting); the commit applies in submit order, so the
//     committed sequence is asserted identical across worker counts.
//   prefilter — banners/s of the literal-anchor prefiltered rule sweep
//     vs the plain linear regex sweep over a realistic banner mix.
//
//   ./bench_annotate_throughput          (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// Both tables are written to BENCH_annotate.json for the perf
// trajectory. Speedups are relative to the serial (1-worker inline)
// configuration and can only materialize on multi-core hardware — the
// binary prints the core count alongside so single-core CI numbers are
// not misread as a regression.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "fingerprint/rules.h"
#include "fingerprint/tools.h"
#include "inet/behavior.h"
#include "ml/features.h"
#include "ml/forest.h"
#include "pipeline/annotate.h"

using namespace exiot;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

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

struct Workload {
  std::vector<pipeline::AnnotateJob> jobs;
  fingerprint::RuleDb rules = fingerprint::RuleDb::standard();
  ml::RandomForest forest;
};

Workload build_workload(std::size_t records, std::uint64_t seed) {
  Workload w;
  const auto roster = inet::BehaviorRoster::standard();
  std::vector<const inet::ScanBehavior*> families;
  for (const auto& b : roster.iot_families) families.push_back(&b);
  for (const auto& b : roster.generic_families) families.push_back(&b);

  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  Rng rng(seed);
  ml::Dataset training;
  for (std::size_t i = 0; i < records; ++i) {
    const auto& behavior = *families[i % families.size()];
    const Ipv4 src(static_cast<std::uint32_t>(0x0A000000 + i));
    inet::PacketSynthesizer synth(behavior, src, aperture,
                                  rng.next_u64());
    pipeline::AnnotateJob job;
    job.summary.src = src;
    job.summary.first_seen = static_cast<TimeMicros>(i) * 1000;
    job.summary.detect_time = job.summary.first_seen + 500;
    job.bundle.src = src;
    for (int p = 0; p < 200; ++p) {
      synth.make_probe_into(p * 100000, job.bundle.sample.emplace_back());
    }
    probe::GrabbedBanner banner;
    banner.port = 80;
    banner.protocol = "http";
    banner.text = banner_mix()[i % banner_mix().size()];
    job.probe.src = src;
    job.probe.banner_returned = true;
    job.probe.banners.push_back(std::move(banner));
    job.probe.completed_at = job.summary.detect_time;
    // First half of the jobs doubles as forest training data; labels come
    // from the behavior family, like the banner-label path in production.
    if (i < records / 2) {
      training.add(ml::flow_features(job.bundle.sample),
                   i % families.size() < roster.iot_families.size() ? 1 : 0);
    }
    w.jobs.push_back(std::move(job));
  }
  ml::ForestParams params;
  params.num_trees = 40;
  w.forest = ml::RandomForest::train(training, params, seed);
  return w;
}

struct StageRun {
  double rps = 0.0;
  std::vector<std::uint32_t> commit_order;
};

StageRun run_stage(const Workload& w, int workers) {
  StageRun run;
  pipeline::AnnotateStageConfig config;
  config.num_workers = workers;
  config.queue_capacity = 256;
  pipeline::AnnotateStage stage(
      config,
      [&w](const pipeline::AnnotateJob& job) {
        pipeline::AnnotateResult out;
        out.features = ml::flow_features(job.bundle.sample);
        out.record.src = job.summary.src;
        out.record.scan_start = job.summary.first_seen;
        out.record.detect_time = job.summary.detect_time;
        out.record.published_at = job.probe.completed_at + 1000;
        out.record.score = w.forest.predict_score(out.features);
        out.record.label = out.record.score >= 0.5 ? "IoT" : "non-IoT";
        if (!job.probe.banners.empty()) {
          if (auto m = w.rules.match(job.probe.banners.front().text)) {
            out.record.vendor = m->vendor;
            out.record.device_type = m->device_type;
          }
        }
        out.record.tool = fingerprint::fingerprint_tool(job.bundle.sample).tool;
        return out;
      },
      [&run](pipeline::AnnotateResult& result) {
        // Serial commit: the ordered sink the reorder window protects.
        run.commit_order.push_back(result.record.src.value());
      },
      [](Ipv4, TimeMicros, TimeMicros) {});
  const auto start = std::chrono::steady_clock::now();
  for (const auto& job : w.jobs) stage.submit(job);
  stage.drain();
  run.rps = static_cast<double>(w.jobs.size()) / now_seconds(start);
  return run;
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
  const double scale = env_double("EXIOT_SCALE", 0.2);
  const auto seed = static_cast<std::uint64_t>(env_double("EXIOT_SEED", 42));
  const auto records =
      static_cast<std::size_t>(4000 * scale < 200 ? 200 : 4000 * scale);

  std::printf("building %zu scanner bundles (scale %.2f, seed %llu), "
              "%u hardware threads\n\n",
              records, scale, static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency());
  const Workload workload = build_workload(records, seed);

  std::FILE* json = benchx::open_bench_json("BENCH_annotate.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"annotate_throughput\",\n"
                 "  \"scale\": %.3f,\n  \"seed\": %llu,\n"
                 "  \"hardware_threads\": %u,\n  \"records\": %zu,\n",
                 scale, static_cast<unsigned long long>(seed),
                 std::thread::hardware_concurrency(), records);
  }

  std::printf("stage (annotate + classify + ordered commit)\n");
  std::printf("%8s %14s %10s\n", "workers", "records/s", "speedup");
  if (json != nullptr) std::fprintf(json, "  \"stage\": [");
  double base = 0.0;
  std::vector<std::uint32_t> reference_order;
  bool first = true;
  for (const int workers : {1, 2, 4, 8}) {
    StageRun best;
    for (int rep = 0; rep < 3; ++rep) {
      StageRun run = run_stage(workload, workers);
      if (run.rps > best.rps) best = std::move(run);
    }
    if (workers == 1) {
      base = best.rps;
      reference_order = best.commit_order;
    } else if (best.commit_order != reference_order) {
      std::printf("!! commit order diverged at %d workers "
                  "(determinism violation)\n",
                  workers);
    }
    std::printf("%8d %14.0f %9.2fx\n", workers, best.rps, best.rps / base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"workers\": %d, \"records_per_s\": %.0f, "
                   "\"speedup\": %.3f}",
                   first ? "" : ",", workers, best.rps, best.rps / base);
    }
    first = false;
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  std::printf("\nprefilter (banner-rule sweep, %zu rules, %zu anchored)\n",
              workload.rules.size(), workload.rules.anchored_rules());
  const std::size_t iterations = static_cast<std::size_t>(20000 * scale) + 1000;
  const double linear_bps = sweep_banners(workload.rules, false, iterations);
  const double fast_bps = sweep_banners(workload.rules, true, iterations);
  std::printf("%12s %14.0f banners/s\n", "linear", linear_bps);
  std::printf("%12s %14.0f banners/s (%.2fx)\n", "prefiltered", fast_bps,
              fast_bps / linear_bps);
  if (json != nullptr) {
    std::fprintf(json,
                 "  \"prefilter\": {\"rules\": %zu, \"anchored\": %zu, "
                 "\"linear_banners_per_s\": %.0f, "
                 "\"prefiltered_banners_per_s\": %.0f, \"speedup\": %.3f}\n",
                 workload.rules.size(), workload.rules.anchored_rules(),
                 linear_bps, fast_bps, fast_bps / linear_bps);
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_annotate.json").c_str());
  }
  std::printf("\nspeedup >= 2x at 4 workers expected on >=4 cores; on fewer "
              "cores the worker pool adds queueing overhead without "
              "parallelism.\n");
  return 0;
}
