// The micro-benchmarks of the packet and record hot path: the operational
// numbers behind the paper's §III deployment (a telescope of >1M pps, one
// hour of capture analyzed in ~20 minutes). Every table but fingerprint
// runs over one synthesized capture hour:
//
//   parse       — net::parse of every packet's wire bytes.
//   serialize   — net::serialize_to of every packet into a reused buffer.
//   decode      — TraceDecoder::next_batch() filling a PacketBatch
//     (header overlay, no per-packet Result).
//   backscatter — net::is_backscatter per packet, the filter
//     FlowDetector::process applies to every packet.
//   forest      — RandomForest::predict_score per row vs the
//     tree-outer/row-inner predict_scores_into batch walk. The batched
//     scores are bit-identical (asserted here, not just in tests).
//   synth       — serial TrafficSynthesizer::emit_batches over the first
//     kSynthHours of the population (the telescope merge core alone; a
//     fresh synthesizer per call, its construction untimed).
//   detect      — one ThreadedIngest at 1 shard (FlowDetector::process per
//     row, the hour sweep, finish) over the hour with a 5% flood of
//     one-packet spoofed-source SYNs mixed in, the shape of perfbench's
//     replay workload, reporting the Table-1 ports (a fresh stage per
//     call, its construction untimed).
//   fingerprint — banner-rule matching over a 10-banner mix: the plain
//     linear regex sweep vs the literal-anchor prefiltered one.
//
// Timing rule (benchx::best_rate): each row is the best of 5 repetitions,
// and each repetition sums back-to-back calls (one call = one sweep of the
// hour, the forest rows or the banner mix) until it holds >= 0.3 s of
// timed work.
//
//   ./bench_hotpath            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// Results go to BENCH_hotpath.json; rows are keyed by "mode" so
// tools/check_bench_regression.sh tracks each row independently (the
// ratio to a table's first row is printed but not gated — it varies with
// vector width across CI machines).
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fingerprint/rules.h"
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

/// Rows per batch in every table (the pipeline's default
/// decode_batch_size is 512; the committed baseline was taken at 1024).
constexpr std::size_t kBatch = 1024;

/// Traffic hours the synth table emits per call.
constexpr int kSynthHours = 6;

/// Keeps `value` observable so the compiler cannot elide the benched loop.
template <typename T>
void sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

struct Row {
  const char* mode;
  double rate;
};

/// Prints a table and returns its JSON rows: `rate_key` per row plus the
/// ratio to the first row.
json::Array print_table(const char* name, const char* rate_key,
                        const char* unit, std::initializer_list<Row> rows) {
  std::printf("%s\n", name);
  std::printf("%10s %16s %10s\n", "mode", unit, "ratio");
  const double base = rows.begin()->rate;
  json::Array out;
  for (const Row& row : rows) {
    std::printf("%10s %16.0f %9.2fx\n", row.mode, row.rate, row.rate / base);
    json::Object entry{{"mode", row.mode},
                       {rate_key, benchx::fixed(row.rate)},
                       {"ratio", benchx::fixed(row.rate / base, 3)}};
    out.emplace_back(std::move(entry));
  }
  std::printf("\n");
  return out;
}

/// Half resolve through an anchored rule, half match nothing: the shape
/// the prefilter sees in production (most rules miss on most banners).
const std::vector<std::string>& banner_mix() {
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

}  // namespace

int main() {
  const double scale = benchx::env_double("EXIOT_SCALE", 0.2);
  const std::uint64_t seed = benchx::env_seed();

  const Cidr aperture = benchx::aperture();
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
  json::Object doc{{"hour_packets", benchx::integer(packets.size())},
                   {"batch_size", benchx::integer(kBatch)}};

  // --- Wire codec: parse and serialize every packet of the hour. ---
  std::vector<std::uint8_t> wire;
  std::vector<std::size_t> wire_ends;
  for (const auto& pkt : packets) {
    net::serialize_to(pkt, wire);
    wire_ends.push_back(wire.size());
  }
  const double parse_pps = benchx::best_rate([&] {
    return benchx::timed([&] {
      std::size_t parsed = 0, begin = 0;
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const std::span<const std::uint8_t> bytes(wire.data() + begin,
                                                  wire_ends[i] - begin);
        parsed += net::parse(bytes, packets[i].ts).ok();
        begin = wire_ends[i];
      }
      sink(parsed);
      return packets.size();
    });
  });
  doc["parse"] = print_table("parse", "pps", "pps", {{"scalar", parse_pps}});

  std::vector<std::uint8_t> buffer;
  const double serialize_pps = benchx::best_rate([&] {
    return benchx::timed([&] {
      for (const auto& pkt : packets) {
        buffer.clear();
        net::serialize_to(pkt, buffer);
        sink(buffer.data());
      }
      return packets.size();
    });
  });
  doc["serialize"] = print_table("serialize", "pps", "pps",
                                 {{"scalar", serialize_pps}});

  // --- Trace decode: next_batch() header overlay. ---
  trace::TraceEncoder encoder;
  for (const auto& pkt : packets) encoder.add(pkt);
  const std::vector<std::uint8_t> bytes = encoder.finish();
  net::PacketBatch batch;
  batch.reserve(kBatch);
  const double decode_pps = benchx::best_rate([&] {
    return benchx::timed([&] {
      trace::TraceDecoder decoder(bytes);
      std::size_t n = 0;
      for (;;) {
        batch.clear();
        const std::size_t got = decoder.next_batch(batch, kBatch);
        if (got == 0) break;
        n += got;
      }
      return n;
    });
  });
  doc["decode"] = print_table("decode", "pps", "pps", {{"batch", decode_pps}});

  // --- Backscatter filter: the per-packet predicate. ---
  const double backscatter_pps = benchx::best_rate([&packets] {
    return benchx::timed([&packets] {
      std::size_t hits = 0;
      for (const auto& pkt : packets) hits += net::is_backscatter(pkt);
      sink(hits);
      return packets.size();
    });
  });
  doc["backscatter"] = print_table("backscatter", "pps", "pps",
                                   {{"scalar", backscatter_pps}});

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
  const double forest_scalar = benchx::best_rate([&] {
    return benchx::timed([&] {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        scalar_scores[i] = forest.predict_score(rows[i]);
      }
      return rows.size();
    });
  });
  std::vector<double> batch_scores(rows.size());
  const double forest_batch = benchx::best_rate([&] {
    return benchx::timed([&] {
      forest.predict_scores_into(rows, batch_scores.data());
      return rows.size();
    });
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
  doc["forest"] = print_table("forest", "records_per_s", "records/s",
                              {{"scalar", forest_scalar},
                               {"batch", forest_batch}});

  // --- Synthesis: the merge core over a multi-hour window. ---
  const double synth_pps = benchx::best_rate([&] {
    telescope::TrafficSynthesizer fresh(population, aperture);
    return benchx::timed([&fresh] {
      std::size_t rows = 0;
      const std::size_t n = fresh.emit_batches(
          0, hours(kSynthHours), kBatch,
          [&rows](const net::PacketBatch& batch) { rows += batch.size(); });
      sink(rows);
      return n;
    });
  });
  doc["synth"] = print_table("synth", "pps", "pps", {{"serial", synth_pps}});

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
  const double detect_pps = benchx::best_rate([&] {
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
    const benchx::Timed t = benchx::timed([&] {
      const std::size_t n = ingest.run_hour_batched(
          [&flooded,
           flooded_rows](const pipeline::ThreadedIngest::BatchFn& fn) {
            for (const auto& flood_batch : flooded) fn(flood_batch);
            return flooded_rows;
          },
          kMicrosPerHour);
      ingest.finish();
      return n;
    });
    sink(events);
    return t;
  });
  doc["detect"] = print_table("detect", "pps", "pps",
                              {{"ingest1", detect_pps}});

  // --- Fingerprint: banner-rule matching, one call per mix sweep. ---
  const fingerprint::RuleDb rules = fingerprint::RuleDb::standard();
  auto sweep = [&rules](bool prefiltered) {
    return benchx::timed([&rules, prefiltered] {
      std::size_t matched = 0;
      for (const auto& banner : banner_mix()) {
        matched += (prefiltered ? rules.match(banner)
                                : rules.match_linear(banner))
                       .has_value();
      }
      sink(matched);
      return banner_mix().size();
    });
  };
  const double linear_bps = benchx::best_rate([&] { return sweep(false); });
  const double prefilter_bps = benchx::best_rate([&] { return sweep(true); });
  std::printf("%zu banners over %zu rules, %zu of them anchored\n",
              banner_mix().size(), rules.size(), rules.anchored_rules());
  doc["fingerprint"] = print_table("fingerprint", "banners_per_s",
                                   "banners/s",
                                   {{"linear", linear_bps},
                                    {"prefilter", prefilter_bps}});

  benchx::write_bench_json("BENCH_hotpath.json", "hotpath", scale,
                           std::move(doc));
  std::printf("\nthe forest tree-outer level sweep removes the "
              "~50%%-mispredicted child branch and typically lands ~3x the "
              "row-outer scalar walk here (more on wider out-of-order "
              "cores); the fingerprint prefilter skips the regex engine for "
              "rules whose literal anchor is absent.\n");
  return mismatches == 0 ? 0 : 1;
}
