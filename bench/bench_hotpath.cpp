// Micro-throughput of the hot-path stages on one synthesized capture
// hour (batched against per-item where both exist), plus the synthesizer
// itself:
//
//   decode      — TraceDecoder::next_batch() filling a PacketBatch
//     (header overlay, no per-packet Result).
//   backscatter — net::is_backscatter per packet, the filter
//     FlowDetector::process applies to every packet.
//   forest      — RandomForest::predict_score per row vs the
//     tree-outer/row-inner predict_scores_into batch walk. The batched
//     scores are bit-identical (asserted here, not just in tests).
//   synth       — serial TrafficSynthesizer::emit_batches over the first
//     kSynthHours of the population (the telescope merge core alone; a
//     fresh synthesizer per repetition, its construction untimed).
//   detect      — one ThreadedIngest at 1 shard (FlowDetector::process per
//     row, the hour sweep, finish) over the hour with a 5% flood of
//     one-packet spoofed-source SYNs mixed in, the shape of perfbench's
//     replay workload, reporting the Table-1 ports (a fresh stage per
//     repetition, its construction untimed).
//
//   ./bench_hotpath            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// Results go to BENCH_hotpath.json; rows are keyed by "mode" so
// tools/check_bench_regression.sh tracks scalar and batch independently
// (the batch/scalar ratio itself is printed but not gated — it varies
// with vector width across CI machines).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "inet/population.h"
#include "ml/forest.h"
#include "net/batch.h"
#include "net/wire.h"
#include "pipeline/ingest.h"
#include "probe/prober.h"
#include "telescope/synthesizer.h"
#include "trace/trace.h"

using namespace exiot;

namespace {

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

/// Rows per batch in every table (the pipeline's default
/// decode_batch_size is 512; the committed baseline was taken at 1024).
constexpr std::size_t kBatch = 1024;

/// Traffic hours the synth table emits per repetition.
constexpr int kSynthHours = 6;

/// Keeps `value` observable so the compiler cannot elide the benched loop.
template <typename T>
void sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Best-of-N wall-clock throughput of `fn() -> items processed`.
template <typename Fn>
double best_throughput(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t items = fn();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const double rate = static_cast<double>(items) / elapsed;
    if (rate > best) best = rate;
  }
  return best;
}

struct Row {
  const char* mode;
  double rate;
};

void print_table(std::FILE* json, const char* name, const char* rate_key,
                 const char* unit, const Row* rows, std::size_t n) {
  std::printf("%s\n", name);
  std::printf("%8s %16s %10s\n", "mode", unit, "ratio");
  const double base = rows[0].rate;
  if (json != nullptr) std::fprintf(json, "  \"%s\": [", name);
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%8s %16.0f %9.2fx\n", rows[i].mode, rows[i].rate,
                rows[i].rate / base);
    if (json != nullptr) {
      std::fprintf(json,
                   "%s\n    {\"mode\": \"%s\", \"%s\": %.0f, "
                   "\"ratio\": %.3f}",
                   i == 0 ? "" : ",", rows[i].mode, rate_key, rows[i].rate,
                   rows[i].rate / base);
    }
  }
  if (json != nullptr) std::fprintf(json, "\n  ]");
  std::printf("\n");
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

  std::vector<net::Packet> packets;
  telescope::TrafficSynthesizer synth(population, aperture);
  synth.emit_batches(0, kMicrosPerHour, kBatch,
                     [&packets](const net::PacketBatch& batch) {
                       packets.insert(packets.end(), batch.packets().begin(),
                                      batch.packets().end());
                     });
  std::printf("one capture hour: %zu packets (scale %.2f, seed %llu), "
              "%u hardware threads, batch %zu\n\n",
              packets.size(), scale,
              static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(), kBatch);

  std::FILE* json = benchx::open_bench_json("BENCH_hotpath.json");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"hotpath\",\n"
                 "  \"scale\": %.3f,\n  \"seed\": %llu,\n"
                 "  \"hour_packets\": %zu,\n  \"batch_size\": %zu,\n",
                 scale, static_cast<unsigned long long>(seed),
                 packets.size(), kBatch);
  }

  // --- Trace decode: next_batch() header overlay. ---
  trace::TraceEncoder encoder;
  for (const auto& pkt : packets) encoder.add(pkt);
  const std::vector<std::uint8_t> bytes = encoder.finish();
  const double decode_batch = best_throughput(3, [&bytes] {
    trace::TraceDecoder decoder(bytes);
    net::PacketBatch batch;
    batch.reserve(kBatch);
    std::size_t n = 0;
    for (;;) {
      batch.clear();
      const std::size_t got = decoder.next_batch(batch, kBatch);
      if (got == 0) break;
      n += got;
    }
    return n;
  });
  const Row decode_rows[] = {{"batch", decode_batch}};
  print_table(json, "decode", "pps", "pps", decode_rows, 1);
  if (json != nullptr) std::fprintf(json, ",\n");

  // --- Backscatter filter: the per-packet predicate. ---
  const double filter_scalar = best_throughput(5, [&packets] {
    std::size_t hits = 0;
    for (const auto& pkt : packets) hits += net::is_backscatter(pkt);
    sink(hits);
    return packets.size();
  });
  const Row filter_rows[] = {{"scalar", filter_scalar}};
  print_table(json, "backscatter", "pps", "pps", filter_rows, 1);
  if (json != nullptr) std::fprintf(json, ",\n");

  // --- Forest inference: row-outer scalar walk vs tree-outer batch. ---
  Rng rng(seed);
  ml::Dataset data;
  constexpr std::size_t kWidth = 12;
  for (std::size_t i = 0; i < 2000; ++i) {
    ml::FeatureVector row(kWidth);
    for (auto& v : row) v = rng.next_double();
    const int label = row[0] + row[kWidth / 2] > 1.2 ? 1 : 0;
    data.add(std::move(row), label);
  }
  ml::ForestParams forest_params;
  forest_params.num_trees = 100;
  forest_params.tree.max_depth = 12;
  forest_params.train_threads = 1;
  const ml::RandomForest forest =
      ml::RandomForest::train(data, forest_params, seed);

  std::vector<ml::FeatureVector> rows;
  for (std::size_t i = 0; i < 8192; ++i) {
    ml::FeatureVector row(kWidth);
    for (auto& v : row) v = rng.next_double() * 1.5;
    rows.push_back(std::move(row));
  }
  std::vector<double> scalar_scores(rows.size());
  const double forest_scalar = best_throughput(3, [&] {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      scalar_scores[i] = forest.predict_score(rows[i]);
    }
    return rows.size();
  });
  std::vector<double> batch_scores(rows.size());
  const double forest_batch = best_throughput(3, [&] {
    forest.predict_scores_into(rows, batch_scores.data());
    return rows.size();
  });
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    mismatches += batch_scores[i] != scalar_scores[i];
  }
  if (mismatches != 0) {
    std::printf("!! %zu batched forest scores differ from scalar "
                "(bit-identity violation)\n",
                mismatches);
  }
  const Row forest_rows[] = {{"scalar", forest_scalar},
                             {"batch", forest_batch}};
  print_table(json, "forest", "records_per_s", "records/s", forest_rows, 2);
  if (json != nullptr) std::fprintf(json, ",\n");

  // --- Synthesis: the merge core over a multi-hour window. ---
  double synth_pps = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    telescope::TrafficSynthesizer fresh(population, aperture);
    std::size_t rows = 0;
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = fresh.emit_batches(
        0, hours(kSynthHours), kBatch,
        [&rows](const net::PacketBatch& batch) { rows += batch.size(); });
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    sink(rows);
    synth_pps = std::max(synth_pps, static_cast<double>(n) / elapsed);
  }
  const Row synth_rows[] = {{"serial", synth_pps}};
  print_table(json, "synth", "pps", "pps", synth_rows, 1);
  if (json != nullptr) std::fprintf(json, ",\n");

  // --- Detect: the capture->detect stage at one shard, under a flood. ---
  // After each packet, with probability 1/19, a SYN from a fresh spoofed
  // source outside the aperture: 5% of the stream.
  std::vector<net::PacketBatch> flooded(1);
  std::size_t flooded_rows = 0;
  Rng flood_rng(seed ^ 0xF100D);
  auto add_row = [&flooded, &flooded_rows](const net::Packet& pkt) {
    if (flooded.back().size() == kBatch) flooded.emplace_back();
    flooded.back().push_back(pkt);
    ++flooded_rows;
  };
  for (const auto& pkt : packets) {
    add_row(pkt);
    if (flood_rng.next_below(19) == 0) {
      std::uint32_t src = 0;
      do {
        src = static_cast<std::uint32_t>(flood_rng.next_u64());
      } while (aperture.contains(Ipv4(src)) || (src >> 24) == 0);
      const Ipv4 dst(aperture.network().value() |
                     static_cast<std::uint32_t>(
                         flood_rng.next_below(1u << 24)));
      static constexpr std::uint16_t kFloodPorts[] = {23,   80,   443, 22,
                                                      8080, 445,  3389,
                                                      2323, 5555, 7547};
      add_row(net::make_syn(
          pkt.ts, Ipv4(src), dst,
          static_cast<std::uint16_t>(1024 + flood_rng.next_below(64512)),
          kFloodPorts[flood_rng.next_below(std::size(kFloodPorts))]));
    }
  }
  double detect_pps = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t events = 0;
    flow::DetectorEvents counting;
    counting.on_scanner = [&events](const flow::FlowSummary&) { ++events; };
    counting.on_sample = [&events](Ipv4, const std::vector<net::Packet>&) {
      ++events;
    };
    counting.on_flow_end = [&events](const flow::FlowSummary&) { ++events; };
    counting.on_report = [&events](const flow::SecondReport& r) {
      events += r.per_port.size();
    };
    pipeline::ThreadedIngest ingest(pipeline::IngestConfig{1, 64, kBatch},
                                    flow::DetectorConfig{},
                                    std::move(counting),
                                    probe::table1_ports());
    const auto start = std::chrono::steady_clock::now();
    const std::size_t n = ingest.run_hour_batched(
        [&flooded, flooded_rows](const pipeline::ThreadedIngest::BatchFn& fn) {
          for (const auto& batch : flooded) fn(batch);
          return flooded_rows;
        },
        kMicrosPerHour);
    ingest.finish();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    sink(events);
    detect_pps = std::max(detect_pps, static_cast<double>(n) / elapsed);
  }
  const Row detect_rows[] = {{"ingest1", detect_pps}};
  print_table(json, "detect", "pps", "pps", detect_rows, 1);

  if (json != nullptr) {
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("wrote %s\n",
                benchx::bench_json_path("BENCH_hotpath.json").c_str());
  }
  std::printf("\nthe batch decode ratio reflects per-packet call "
              "overhead removed by next_batch's header overlay; the forest "
              "tree-outer level sweep removes the ~50%%-mispredicted child "
              "branch and typically lands ~3x the row-outer scalar walk "
              "here (more on wider out-of-order cores).\n");
  return mismatches == 0 ? 0 : 1;
}
