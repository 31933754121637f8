#include <algorithm>
#include <stdexcept>

#include "workloads.h"

namespace perfbench {

double population_scale(const Options& options) {
  return options.seconds / 100.0;
}

std::unique_ptr<Sim> make_sim(const Options& options, double scale) {
  auto sim = std::make_unique<Sim>(
      Sim{exiot::inet::WorldModel::standard(kAperture), {}});
  exiot::inet::PopulationConfig config;
  config.days = kDays;
  config.seed = options.seed;
  sim->population = exiot::inet::Population::generate(
      config.scaled(scale), sim->world);
  return sim;
}

namespace {

// Every traced run prints every per-layer metric; a layer a workload does
// not exercise reads 0 there. Names and units match BENCHMARK.json.
const std::pair<const char*, const char*> kLayerCatalogue[] = {
    {"telescope.emit_s", "s"},
    {"trace.read_s", "s"},
    {"trace.decode_s", "s"},
    {"pipeline.federation_s", "s"},
    {"flow.detect_s", "s"},
    {"pipeline.downstream_s", "s"},
    {"pipeline.retrain_s", "s"},
    {"store.wal_fsync_s", "s"},
    {"store.wal_bytes", "bytes"},
    {"store.snapshot_writes", "count"},
    {"store.ops.read", "count"},
    {"store.ops.write", "count"},
    {"store.ops.scan", "count"},
    {"store.ops.expire", "count"},
    {"flow.packets", "count"},
    {"flow.scanners", "count"},
    {"flow.backscatter_ratio", "ratio"},
    {"flow.tracked_sources_peak", "count"},
    {"pipeline.federation_skew", "ratio"},
    {"probe.probed", "count"},
    {"probe.banner_ratio", "ratio"},
    {"fingerprint.regex_per_banner", "ratio"},
    {"pipeline.records_per_scanner", "ratio"},
    {"feed.published", "count"},
    {"feed.expired", "count"},
    {"api.handle_us.lookup", "us"},
    {"api.handle_us.records", "us"},
    {"api.handle_us.query", "us"},
    {"api.handle_us.snapshot", "us"},
    {"api.handle_us.export", "us"},
    {"api.transport_us.lookup", "us"},
    {"api.transport_us.records", "us"},
    {"api.transport_us.query", "us"},
    {"api.transport_us.snapshot", "us"},
    {"api.transport_us.export", "us"},
    {"api.response_bytes.lookup", "bytes"},
    {"api.response_bytes.records", "bytes"},
    {"api.response_bytes.query", "bytes"},
    {"api.response_bytes.snapshot", "bytes"},
    {"api.response_bytes.export", "bytes"},
    {"api.parse_us", "us"},
    {"api.serialize_us", "us"},
    {"api.cache_hit_ratio", "ratio"},
    {"api.worker_busy_share", "ratio"},
    {"api.rejected", "count"},
    {"api.wire_rps", "1/s"},
    {"api.wire_p50_us", "us"},
    {"api.wire_p99_us", "us"},
    {"api.server_cpu_us_per_request", "us"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

void LayerReport::set(const std::string& name, double value) {
  const bool known = std::any_of(
      std::begin(kLayerCatalogue), std::end(kLayerCatalogue),
      [&](const auto& entry) { return name == entry.first; });
  if (!known) throw std::logic_error("unknown layer metric " + name);
  values_[name] = value;
}

void LayerReport::emit_into(RunResult& result) const {
  for (const auto& [name, unit] : kLayerCatalogue) {
    const auto it = values_.find(name);
    result.add(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::map<std::string, double> store_ops(
    const exiot::obs::MetricsRegistry& registry) {
  std::map<std::string, double> out;
  for (const char* op : {"read", "write", "scan", "expire"}) {
    double& total = out[std::string("store.ops.") + op];
    for (const char* store : {"latest", "historical", "active"}) {
      total += static_cast<double>(registry.counter_value(
          "exiot_store_ops_total", {{"store", store}, {"op", op}}));
    }
  }
  return out;
}

}  // namespace perfbench
