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
// Every row follows benchx::best_rate. A pipeline row's single run is a
// whole pipeline day, so it is the best of 3 runs; an append row is the
// best of 5 repetitions, each appending chunks to one log until it holds
// >= 0.3 s of timed work (a single short run of the fsync-bound row
// measured the host's load more than the log).
//
// Results go to BENCH_wal.json for the perf trajectory.
// tools/check_bench_regression.sh keys rows by "mode" and gates every
// records_per_s, the fsync-per-commit rows (wal_fsync_each,
// append[always]) included, although they are storage-bound and vary
// more across disks than the rest.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "store/wal.h"

using namespace exiot;

namespace {

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

/// One full pipeline run in `mode`: records published over its wall time;
/// `commits` gets the durability layer's commit index.
benchx::Timed run_mode(const benchx::Sim& sim, int days, const Mode& mode,
                       std::uint64_t& commits) {
  pipeline::PipelineConfig config;
  std::filesystem::path dir;
  if (mode.durable) {
    dir = scratch_dir(mode.name);
    config.data_dir = dir;
    config.wal_fsync = mode.fsync;
    config.snapshot_interval_hours = 24;
  }
  std::unique_ptr<pipeline::ExIotPipeline> pipe;
  const benchx::Timed timed = benchx::timed([&] {
    pipe = benchx::run_pipeline(sim, days, config);
    return pipe->metrics().counter_value("exiot_feed_records_published_total");
  });
  commits = pipe->durability() != nullptr
                ? pipe->durability()->commit_index()
                : 0;
  pipe.reset();
  if (mode.durable) std::filesystem::remove_all(dir);
  return timed;
}

/// Appends/s of `payload` into one log under `fsync`, each best_rate call
/// timing `chunk` appends. Segments the chunk left behind are pruned
/// between calls, outside the timer, so the log's disk use stays bounded;
/// closing it (a final fsync) is outside the timer too, where it would be
/// unfair to kNone.
double append_rate(store::WalFsync fsync, std::size_t chunk,
                   const std::string& payload) {
  const auto dir = scratch_dir("append");
  store::WalOptions options;
  options.fsync = fsync;
  auto opened = store::WalWriter::open(dir, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "!! cannot open WAL: %s\n",
                 opened.error().message.c_str());
    std::exit(1);
  }
  store::WalWriter& writer = *opened.value();
  const double rate = benchx::best_rate([&] {
    const benchx::Timed timed = benchx::timed([&] {
      for (std::size_t i = 0; i < chunk; ++i) {
        if (auto appended = writer.append(1, payload); !appended.ok()) {
          std::fprintf(stderr, "!! WAL append failed: %s\n",
                       appended.error().message.c_str());
          std::exit(1);
        }
      }
      return chunk;
    });
    writer.prune(writer.next_index());
    return timed;
  });
  opened.value().reset();
  std::filesystem::remove_all(dir);
  return rate;
}

}  // namespace

int main() {
  const double scale = benchx::env_double("EXIOT_SCALE", 0.2);
  const int days = 1;
  const benchx::Sim sim = benchx::make_sim(scale, days);

  benchx::heading("pipeline records/s: durability off vs WAL on");
  std::printf("%16s %14s %10s %10s\n", "mode", "records/s", "vs off",
              "commits");
  json::Array pipeline_rows;
  double off_rps = 0.0;
  for (const Mode& mode : kPipelineModes) {
    std::uint64_t commits = 0;
    const double rps = benchx::best_rate(
        [&] { return run_mode(sim, days, mode, commits); }, 3);
    if (!mode.durable) off_rps = rps;
    const double ratio = off_rps > 0 ? rps / off_rps : 0.0;
    std::printf("%16s %14.0f %9.2fx %10llu\n", mode.name, rps, ratio,
                static_cast<unsigned long long>(commits));
    json::Object row{{"mode", mode.name},
                     {"records_per_s", benchx::fixed(rps)},
                     {"ratio_vs_off", benchx::fixed(ratio, 3)}};
    pipeline_rows.emplace_back(std::move(row));
  }

  benchx::heading("raw WAL appends/s by fsync policy");
  // A publish frame is roughly a CtiRecord + features as JSON.
  const std::string payload(600, 'x');
  const auto appends =
      static_cast<std::size_t>(50000 * scale < 5000 ? 5000 : 50000 * scale);
  std::printf("%16s %14s\n", "mode", "appends/s");
  json::Array append_rows;
  for (const auto& [name, fsync] :
       {std::pair{"none", store::WalFsync::kNone},
        std::pair{"roll", store::WalFsync::kOnRoll},
        std::pair{"always", store::WalFsync::kEveryAppend}}) {
    // fsync-per-append is storage-bound: a smaller chunk keeps each
    // repetition close to benchx::kMinRepSeconds.
    const std::size_t n =
        fsync == store::WalFsync::kEveryAppend ? appends / 10 : appends;
    const double aps = append_rate(fsync, n, payload);
    std::printf("%16s %14.0f\n", name, aps);
    json::Object row{{"mode", name}, {"records_per_s", benchx::fixed(aps)}};
    append_rows.emplace_back(std::move(row));
  }
  benchx::write_bench_json(
      "BENCH_wal.json", "wal_overhead", scale,
      json::Object{{"pipeline", std::move(pipeline_rows)},
                   {"append", std::move(append_rows)}});
  std::printf("\nexpected: wal within ~10%% of off (append is one write(2) "
              "inline in the pipeline's commit); wal_fsync_each pays one "
              "fsync per commit and is disk-bound.\n");
  return 0;
}
