// Durability cost, in two tables:
//
//   pipeline — full-pipeline records/s with the durability layer off, on
//     with the default fsync-on-roll policy, and on with fsync-per-commit.
//     The acceptance bar for the WAL design is the `wal` row staying
//     within ~10% of `off`: appends run inline in the pipeline's commit
//     and a frame is one write(2) into the page cache, so the log should
//     be nearly free until fsync enters the picture.
//   append — raw WalWriter appends/s per fsync policy with
//     publish-record-sized payloads, isolating the log itself from the
//     pipeline around it.
//
//   ./bench_wal_overhead            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// Each append row is the best of kAppendReps repetitions, and each
// repetition appends in chunks until it holds kMinRepSeconds of timed work:
// a single short run of the fsync-bound row measured the host's load more
// than the log.
//
// Results go to BENCH_wal.json for the perf trajectory
// (tools/check_bench_regression.sh keys rows by "mode"). fsync-per-commit
// numbers are storage-bound and vary wildly across CI disks — that row is
// informational, not a regression gate on the same footing as the others.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "store/wal.h"

using namespace exiot;

namespace {

double now_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::filesystem::path scratch_dir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("exiot_bench_wal_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct Mode {
  const char* name;
  bool durable;
  store::WalFsync fsync;
};

constexpr Mode kPipelineModes[] = {
    {"off", false, store::WalFsync::kNone},
    {"wal", true, store::WalFsync::kOnRoll},
    {"wal_fsync_each", true, store::WalFsync::kEveryAppend},
};

struct PipelineRun {
  double rps = 0.0;
  std::size_t records = 0;
  std::uint64_t commits = 0;
};

PipelineRun run_mode(const benchx::Sim& sim, int days, const Mode& mode) {
  pipeline::PipelineConfig config;
  std::filesystem::path dir;
  if (mode.durable) {
    dir = scratch_dir(mode.name);
    config.data_dir = dir;
    config.wal_fsync = mode.fsync;
    config.snapshot_interval_hours = 24;
  }
  const auto start = std::chrono::steady_clock::now();
  auto pipe = benchx::run_pipeline(sim, days, config);
  const double elapsed = now_seconds(start);
  PipelineRun run;
  run.records =
      pipe->metrics().counter_value("exiot_feed_records_published_total");
  run.rps = static_cast<double>(run.records) / elapsed;
  if (pipe->durability() != nullptr) {
    run.commits = pipe->durability()->commit_index();
  }
  if (mode.durable) std::filesystem::remove_all(dir);
  return run;
}

/// Repetitions per append row, and the timed work each one holds.
constexpr int kAppendReps = 5;
constexpr double kMinRepSeconds = 0.3;

/// One repetition: appends `payload` in chunks of `chunk` into a fresh
/// log until at least kMinRepSeconds have passed; returns appends/s.
double run_append(store::WalFsync fsync, std::size_t chunk,
                  const std::string& payload) {
  const auto dir = scratch_dir("append");
  store::WalOptions options;
  options.fsync = fsync;
  auto writer = store::WalWriter::open(dir, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "!! cannot open WAL: %s\n",
                 writer.error().message.c_str());
    return 0.0;
  }
  const auto start = std::chrono::steady_clock::now();
  std::size_t appends = 0;
  double elapsed = 0.0;
  while (elapsed < kMinRepSeconds) {
    for (std::size_t i = 0; i < chunk; ++i) {
      if (!writer.value()->append(1, payload).ok()) return 0.0;
    }
    appends += chunk;
    elapsed = now_seconds(start);
  }
  writer.value().reset();  // Final fsync inside the timer would be unfair
                           // to kNone; close outside.
  std::filesystem::remove_all(dir);
  return static_cast<double>(appends) / elapsed;
}

}  // namespace

int main() {
  const double scale = benchx::env_double("EXIOT_SCALE", 0.2);
  const int days = 1;
  const benchx::Sim sim = benchx::make_sim(scale, days);

  std::FILE* json = benchx::open_bench_json("BENCH_wal.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"wal_overhead\",\n"
                 "  \"scale\": %.3f,\n  \"seed\": %llu,\n",
                 scale, static_cast<unsigned long long>(benchx::env_seed()));
  }

  benchx::heading("pipeline records/s: durability off vs WAL on");
  std::printf("%16s %14s %10s %10s\n", "mode", "records/s", "vs off",
              "commits");
  double off_rps = 0.0;
  bool first = true;
  if (json != nullptr) std::fprintf(json, "  \"pipeline\": [");
  for (const Mode& mode : kPipelineModes) {
    PipelineRun best;
    for (int rep = 0; rep < 3; ++rep) {
      PipelineRun run = run_mode(sim, days, mode);
      if (run.rps > best.rps) best = run;
    }
    if (!mode.durable) off_rps = best.rps;
    const double ratio = off_rps > 0 ? best.rps / off_rps : 0.0;
    std::printf("%16s %14.0f %9.2fx %10llu\n", mode.name, best.rps, ratio,
                static_cast<unsigned long long>(best.commits));
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"mode\": \"%s\", \"records_per_s\": %.0f, "
                   "\"ratio_vs_off\": %.3f}",
                   first ? "" : ",", mode.name, best.rps, ratio);
    }
    first = false;
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  benchx::heading("raw WAL appends/s by fsync policy");
  // A publish frame is roughly a CtiRecord + features as JSON.
  const std::string payload(600, 'x');
  const auto appends =
      static_cast<std::size_t>(50000 * scale < 5000 ? 5000 : 50000 * scale);
  std::printf("%16s %14s\n", "mode", "appends/s");
  if (json != nullptr) std::fprintf(json, "  \"append\": [");
  first = true;
  for (const auto& [name, fsync] :
       {std::pair{"none", store::WalFsync::kNone},
        std::pair{"roll", store::WalFsync::kOnRoll},
        std::pair{"always", store::WalFsync::kEveryAppend}}) {
    // fsync-per-append is storage-bound: a smaller chunk keeps each
    // repetition close to kMinRepSeconds.
    const std::size_t n =
        fsync == store::WalFsync::kEveryAppend ? appends / 10 : appends;
    double aps = 0.0;
    for (int rep = 0; rep < kAppendReps; ++rep) {
      aps = std::max(aps, run_append(fsync, n, payload));
    }
    std::printf("%16s %14.0f\n", name, aps);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"mode\": \"%s\", \"records_per_s\": %.0f}",
                   first ? "" : ",", name, aps);
    }
    first = false;
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_wal.json").c_str());
  }
  std::printf("\nexpected: wal within ~10%% of off (append is one write(2) "
              "inline in the pipeline's commit); wal_fsync_each pays one "
              "fsync per commit and is disk-bound.\n");
  return 0;
}
