// Shared scaffolding for the experiment-reproduction binaries. Every bench
// prints the paper's reference numbers next to the measured ones so the
// output doubles as the EXPERIMENTS.md evidence.
//
// Environment knobs (all benches):
//   EXIOT_SCALE      population scale relative to the default (default
//                    varies per bench; 1.0 = ~7.6k scanners/day = paper
//                    at 1/100)
//   EXIOT_SEED       population seed (default 42)
//   EXIOT_BENCH_DIR  directory for BENCH_*.json result files (default:
//                    the working directory) — lets CI collect them without
//                    caring where the binary ran
//
// The gated benches (tools/check_bench_regression.sh) write their
// BENCH_*.json files through write_bench_json below, and all but
// bench_api_concurrency time their throughput rows with best_rate.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "inet/population.h"
#include "inet/world.h"
#include "json/json.h"
#include "pipeline/exiot.h"

namespace exiot::benchx {

inline double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

inline std::uint64_t env_seed() {
  const char* value = std::getenv("EXIOT_SEED");
  return value != nullptr ? std::strtoull(value, nullptr, 10) : 42ull;
}

inline Cidr aperture() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

/// Where a bench's BENCH_<name>.json belongs: $EXIOT_BENCH_DIR/<filename>
/// when the variable is set, else `filename` in the working directory.
inline std::string bench_json_path(const std::string& filename) {
  const char* dir = std::getenv("EXIOT_BENCH_DIR");
  if (dir == nullptr || dir[0] == '\0') return filename;
  std::string path = dir;
  if (path.back() != '/') path += '/';
  return path + filename;
}

/// A count as a JSON integer (json::Value has no size_t constructor).
inline json::Value integer(std::integral auto n) {
  return static_cast<std::int64_t>(n);
}

/// `value` rounded the way printf's %.<digits>f rounds it, the precision
/// the console tables print; zero digits give a JSON integer.
inline json::Value fixed(double value, int digits = 0) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  if (digits == 0) return integer(std::strtoll(buf, nullptr, 10));
  return std::strtod(buf, nullptr);
}

/// Writes BENCH file `filename` (see bench_json_path): `tables` stamped
/// with the bench's name, the population scale and seed (a bench that
/// draws no population passes no scale and gets neither) and the host's
/// hardware threads, so every file says what produced it and on what.
/// Warns rather than fails when the path is unwritable: the numbers on
/// stdout are the primary output.
inline void write_bench_json(const std::string& filename, const char* bench,
                             std::optional<double> scale,
                             json::Object tables) {
  tables["bench"] = bench;
  if (scale.has_value()) {
    tables["scale"] = fixed(*scale, 3);
    tables["seed"] = integer(env_seed());
  }
  tables["hardware_threads"] = std::thread::hardware_concurrency();
  const std::string path = bench_json_path(filename);
  std::ofstream out(path);
  out << json::Value(std::move(tables)).dump_pretty() << '\n';
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("\nwrote %s\n", path.c_str());
}

/// Items one timed call handled, and the wall time they took.
struct Timed {
  std::size_t items = 0;
  double seconds = 0.0;
};

/// Times `work() -> items`. A call's untimed setup (a fresh synthesizer or
/// ingest stage) goes before it, outside the Timed.
template <typename Work>
Timed timed(Work&& work) {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t items = work();
  return {items, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count()};
}

/// Timed work one repetition of best_rate holds at least. A single call of
/// a hot-path body lasts milliseconds; timed once, it measures the host's
/// load as much as the code.
constexpr double kMinRepSeconds = 0.3;

/// The one timing rule of the gated rows: the best of `reps` repetitions
/// of items per second, each repetition summing back-to-back `call() ->
/// Timed` until it holds at least kMinRepSeconds of timed work.
template <typename Call>
double best_rate(Call&& call, int reps = 5) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    double items = 0.0, seconds = 0.0;
    while (seconds < kMinRepSeconds) {
      const Timed t = call();
      items += static_cast<double>(t.items);
      seconds += t.seconds;
    }
    best = std::max(best, items / seconds);
  }
  return best;
}

struct Sim {
  inet::WorldModel world;
  inet::Population population;
};

/// Standard world + population at `scale` of the default (paper-calibrated)
/// composition over `days` simulated days.
inline Sim make_sim(double scale, int days) {
  Sim sim{inet::WorldModel::standard(aperture()), {}};
  inet::PopulationConfig config;
  config.days = days;
  config.seed = env_seed();
  sim.population = inet::Population::generate(config.scaled(scale),
                                              sim.world);
  return sim;
}

/// Runs the full pipeline over the population's days. Heap-allocated: the
/// pipeline pins itself (detector callbacks capture `this`, the metrics
/// registry hands out stable references), so it must not move.
inline std::unique_ptr<pipeline::ExIotPipeline> run_pipeline(
    const Sim& sim, int days, pipeline::PipelineConfig config = {}) {
  config.telescope = aperture();
  auto pipe = std::make_unique<pipeline::ExIotPipeline>(sim.population,
                                                        sim.world, config);
  pipe->run_days(0, days);
  pipe->finish();
  return pipe;
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void row(const std::string& name, const std::string& measured,
                const std::string& paper) {
  std::printf("  %-36s %-20s paper: %s\n", name.c_str(), measured.c_str(),
              paper.c_str());
}

inline std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

}  // namespace exiot::benchx
