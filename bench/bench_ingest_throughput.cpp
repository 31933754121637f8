// Throughput of the capture->detect stage, in two modes:
//
//   replay — one pre-synthesized hour, held as 1024-row packet batches,
//     pushed through ThreadedIngest::run_hour_batched (the production
//     path) at increasing shard counts. Isolates detector sharding (the
//     producer cost is a plain vector replay).
//   live — true end-to-end pps (synthesis + merge + detection) across a
//     producer-threads x detector-shards grid, with the multi-threaded
//     ParallelProducer as stage 0. This is the number that used to be
//     clamped by the single synthesis thread.
//
//   ./bench_ingest_throughput            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// Every cell is the best of kReps repetitions, and each repetition times
// back-to-back hours until it holds kMinRepSeconds of work: one hour is
// only ~20 ms here, too short to time on a loaded host.
//
// Both tables are also written to BENCH_ingest.json for the perf
// trajectory. Speedups are relative to the single-threaded configuration
// and can only materialize on multi-core hardware — the binary prints the
// core count alongside so single-core CI numbers are not misread as a
// regression.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "flow/detector.h"
#include "inet/population.h"
#include "pipeline/ingest.h"
#include "pipeline/producer.h"
#include "probe/prober.h"
#include "telescope/synthesizer.h"

using namespace exiot;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

/// Rows per replayed batch: the pipeline's default producer_batch_size.
constexpr std::size_t kReplayBatch = 1024;

/// Repetitions per cell, and the timed work each repetition holds.
constexpr int kReps = 5;
constexpr double kMinRepSeconds = 0.3;

/// Packets moved by one timed run, and its wall time.
struct Timed {
  std::size_t packets = 0;
  double seconds = 0.0;
};

/// Best-of-kReps packets per second of `run() -> Timed`, each repetition
/// summing back-to-back runs until it holds kMinRepSeconds of timed work.
template <typename Run>
double best_pps(Run&& run) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    double packets = 0.0, seconds = 0.0;
    while (seconds < kMinRepSeconds) {
      const Timed timed = run();
      packets += static_cast<double>(timed.packets);
      seconds += timed.seconds;
    }
    if (packets / seconds > best) best = packets / seconds;
  }
  return best;
}

pipeline::ThreadedIngest make_ingest(int shards) {
  pipeline::IngestConfig config;
  config.num_shards = shards;
  config.buffer_capacity = 64;
  config.batch_size = 512;
  // Empty sink: measures capture routing + detection, not downstream.
  return pipeline::ThreadedIngest(config, flow::DetectorConfig{},
                                  flow::DetectorEvents{},
                                  probe::table1_ports());
}

/// One pre-synthesized capture hour as the packet batches a producer or
/// the trace decoder hands the ingest stage.
struct Hour {
  std::vector<net::PacketBatch> batches;
  std::size_t packets = 0;
};

Timed run_replay(const Hour& hour, int shards) {
  pipeline::ThreadedIngest ingest = make_ingest(shards);
  const auto start = std::chrono::steady_clock::now();
  ingest.run_hour_batched(
      [&hour](const pipeline::ThreadedIngest::BatchFn& fn) {
        for (const net::PacketBatch& batch : hour.batches) fn(batch);
        return hour.packets;
      },
      kMicrosPerHour);
  ingest.finish();
  return {hour.packets, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count()};
}

Timed run_live(const inet::Population& population, Cidr aperture,
                int producers, int shards, std::size_t* packets_out,
                obs::Tracer* tracer = nullptr) {
  pipeline::ProducerConfig producer_config;
  producer_config.num_producers = producers;
  pipeline::ParallelProducer producer(population, aperture, producer_config,
                                      nullptr, tracer);
  pipeline::IngestConfig ingest_config;
  ingest_config.num_shards = shards;
  ingest_config.buffer_capacity = 64;
  ingest_config.batch_size = 512;
  pipeline::ThreadedIngest ingest(ingest_config, flow::DetectorConfig{},
                                  flow::DetectorEvents{},
                                  probe::table1_ports(), nullptr, tracer);
  const auto start = std::chrono::steady_clock::now();
  // Live runs take the batch path end to end (synthesis into batch rows,
  // one detector call per row), the same route ExIotPipeline::run_hours
  // drives in production.
  const std::size_t count = ingest.run_hour_batched(
      [&producer](const pipeline::ThreadedIngest::BatchFn& fn) {
        return producer.emit_batches(0, kMicrosPerHour, 1024, fn);
      },
      kMicrosPerHour);
  ingest.finish();
  if (packets_out != nullptr) *packets_out = count;
  return {count, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count()};
}

}  // namespace

int main() {
  const double scale = env_double("EXIOT_SCALE", 0.2);
  const auto seed = static_cast<std::uint64_t>(env_double("EXIOT_SEED", 42));

  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto world = inet::WorldModel::standard(aperture);
  inet::PopulationConfig config;
  config.seed = seed;
  auto population = inet::Population::generate(config.scaled(scale), world);

  // Pre-synthesize the hour so the replay numbers isolate the ingest
  // stage itself.
  Hour hour;
  telescope::TrafficSynthesizer synth(population, aperture);
  synth.emit_batches(0, kMicrosPerHour, kReplayBatch,
                     [&hour](const net::PacketBatch& batch) {
                       hour.batches.push_back(batch);
                       hour.packets += batch.size();
                     });
  std::printf("one capture hour: %zu packets (scale %.2f, seed %llu), "
              "%u hardware threads\n\n",
              hour.packets, scale,
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency());

  std::FILE* json = benchx::open_bench_json("BENCH_ingest.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ingest_throughput\",\n"
                 "  \"scale\": %.3f,\n  \"seed\": %llu,\n"
                 "  \"hardware_threads\": %u,\n  \"hour_packets\": %zu,\n",
                 scale, static_cast<unsigned long long>(seed),
                 std::thread::hardware_concurrency(), hour.packets);
  }

  std::printf("replay (pre-synthesized hour; detector sharding only)\n");
  std::printf("%8s %14s %10s\n", "shards", "pps", "speedup");
  if (json != nullptr) std::fprintf(json, "  \"replay\": [");
  double base = 0.0;
  bool first = true;
  for (const int shards : {1, 2, 4, 8}) {
    const double best =
        best_pps([&hour, shards] { return run_replay(hour, shards); });
    if (shards == 1) base = best;
    std::printf("%8d %14.0f %9.2fx\n", shards, best, best / base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"shards\": %d, \"pps\": %.0f, "
                   "\"speedup\": %.3f}",
                   first ? "" : ",", shards, best, best / base);
    }
    first = false;
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  std::printf("\nlive (synthesis + merge + detection, end to end)\n");
  std::printf("%10s %8s %14s %10s\n", "producers", "shards", "pps",
              "speedup");
  if (json != nullptr) std::fprintf(json, "  \"live\": [");
  double live_base = 0.0;
  first = true;
  for (const int producers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      std::size_t live_packets = 0;
      const double best = best_pps([&] {
        return run_live(population, aperture, producers, shards,
                        &live_packets);
      });
      if (live_packets != hour.packets) {
        std::printf("!! live packet count %zu != replay %zu "
                    "(determinism violation)\n",
                    live_packets, hour.packets);
      }
      if (producers == 1 && shards == 1) live_base = best;
      std::printf("%10d %8d %14.0f %9.2fx\n", producers, shards, best,
                  best / live_base);
      if (json != nullptr) {
        std::fprintf(json,
                     "%s\n    {\"producers\": %d, \"shards\": %d, "
                     "\"pps\": %.0f, \"speedup\": %.3f}",
                     first ? "" : ",", producers, shards, best,
                     best / live_base);
      }
      first = false;
    }
  }
  if (json != nullptr) std::fprintf(json, "\n  ],\n");

  // Span-tracing overhead on the live 1x1 path: a disabled tracer must be
  // a single predictable branch (<= 3% cost is the budget; see
  // src/obs/span.h), and even 100% sampling should only pay for timestamp
  // reads and ring writes.
  std::printf("\ntracing overhead (live, 1 producer x 1 shard)\n");
  std::printf("%16s %14s %10s\n", "sampling", "pps", "vs off");
  double trace_base = 0.0;
  first = true;
  if (json != nullptr) std::fprintf(json, "  \"tracing\": [");
  for (const double rate : {-1.0, 0.0, 1.0}) {
    obs::MetricsRegistry scratch;
    obs::Tracer tracer(obs::TracerConfig{rate < 0.0 ? 0.0 : rate, 4096},
                       &scratch);
    obs::Tracer* arg = rate < 0.0 ? nullptr : &tracer;
    const double best = best_pps(
        [&] { return run_live(population, aperture, 1, 1, nullptr, arg); });
    if (rate < 0.0) trace_base = best;
    const char* label = rate < 0.0 ? "no tracer"
                        : rate == 0.0 ? "0% (disabled)" : "100%";
    std::printf("%16s %14.0f %9.3fx\n", label, best, best / trace_base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"sampling\": \"%s\", \"pps\": %.0f, "
                   "\"relative\": %.4f}",
                   first ? "" : ",", label, best, best / trace_base);
    }
    first = false;
  }
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote %s\n",
                benchx::bench_json_path("BENCH_ingest.json").c_str());
  }
  std::printf("\nspeedup >= 2x at 4 producers (live) and >= 1.8x at 4 "
              "shards (replay) expected on >=4 cores; on fewer cores the "
              "threaded paths add queueing overhead without parallelism. "
              "0%% sampling should stay within ~3%% of the no-tracer "
              "baseline.\n");
  return 0;
}
