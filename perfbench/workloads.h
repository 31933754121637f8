// The benchmark workloads and what they share: the command-line options
// and the seeded population every workload is built from.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "harness.h"
#include "inet/population.h"
#include "inet/world.h"
#include "obs/metrics.h"

namespace exiot::pipeline {
class ExIotPipeline;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  int seconds = 20;
  bool trace = false;
  /// Scratch space for data dirs and captured hours; removed by run.py.
  std::filesystem::path work_dir;
  /// Where the traced run writes its spans.
  std::filesystem::path trace_dir;
};

/// The telescope aperture every workload observes.
inline const exiot::Cidr kAperture{exiot::Ipv4(44, 0, 0, 0), 8};

/// Days of traffic in the population; `feed` runs all of them.
inline constexpr int kDays = 3;

/// Set-up is repeated this many times per run and its median reported
/// (feed's set-up takes milliseconds, so it repeats more).
inline constexpr int kSetupRepeats = 3;
inline constexpr int kFeedSetupRepeats = 25;

/// `feed`'s population scale relative to the paper-calibrated default:
/// --seconds / 100, so its fixed 72-hour run takes about --seconds on a
/// 4-vCPU host.
double population_scale(const Options& options);

struct Sim {
  exiot::inet::WorldModel world;
  exiot::inet::Population population;
};

/// The seeded population at `scale` (heap-held: pipelines keep references
/// into it).
std::unique_ptr<Sim> make_sim(const Options& options, double scale);

/// The per-layer metrics of a traced run. Every traced run prints the
/// whole catalogue (common.cpp), so a layer the workload does not exercise
/// reads 0.
class LayerReport {
 public:
  /// Throws on a name outside the catalogue.
  void set(const std::string& name, double value);
  void emit_into(RunResult& result) const;

 private:
  std::map<std::string, double> values_;
};

/// num / den, 0 when den is 0.
double ratio(double num, double den);

/// exiot_store_ops_total summed over the feed's stores, keyed
/// "store.ops.<op>".
std::map<std::string, double> store_ops(
    const exiot::obs::MetricsRegistry& registry);

RunResult run_feed(const Options& options);
RunResult run_replay(const Options& options);

/// The API serving layers on a finished pipeline's feed (feed's traced
/// run): closed-loop clients over loopback TCP, then an in-process replay
/// of the same requests. Adds a gate check per request to `result` and the
/// api.* metrics to `layers`.
void measure_api_layers(exiot::pipeline::ExIotPipeline& pipe,
                        const Options& options, RunResult& result,
                        LayerReport& layers);

}  // namespace perfbench
