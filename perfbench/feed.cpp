// `feed`: the deployed path end to end. ExIotPipeline at its default
// PipelineConfig (1 producer, 1 shard, 1 annotate worker, 1 site) with
// durability on in a fresh data dir, driven one run_hours(h, h+1) per
// capture hour over the seeded 3-day population, then finish().
//
// Gates: the run's export digest equals a serial in-memory pipeline's for
// the same population, and a pipeline recovered from the run's data dir
// exports the same digest.
//
// Traced run: after each hour a shadow chain built from the public stage
// classes at the same defaults (ParallelProducer -> FederationStage ->
// ThreadedIngest with a counting sink) runs the same hour with spans
// around emit_batches, the federation callbacks and the ingest sink; what
// run_hours spent beyond the shadow hour is the downstream residual
// (scan/probe, organizer, annotate, commit, WAL, retrain, expiry,
// snapshots). A twin chain without spans runs the same hours, in
// alternating order, to measure the tracing overhead.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "feed/export.h"
#include "pipeline/exiot.h"
#include "probe/prober.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using exiot::pipeline::ExIotPipeline;
using exiot::pipeline::PipelineConfig;

constexpr int kHours = kDays * 24;

std::uint64_t export_digest(const ExIotPipeline& pipe) {
  std::ostringstream out;
  exiot::feed::export_jsonl(pipe.feed(), out);
  return fnv1a(out.str());
}

PipelineConfig feed_config(const fs::path& data_dir) {
  PipelineConfig config;
  config.telescope = kAperture;
  config.data_dir = data_dir;
  return config;
}

/// Capture -> detect for one hour, rebuilt outside the pipeline from the
/// same public stages at the pipeline's default configuration.
class ShadowChain {
 public:
  explicit ShadowChain(const exiot::inet::Population& population)
      : producer_(population, kAperture,
                  exiot::pipeline::ProducerConfig{
                      defaults_.num_producer_threads,
                      defaults_.producer_batch_size, exiot::minutes(1),
                      defaults_.producer_queue_capacity},
                  &registry_),
        federation_(exiot::pipeline::FederationConfig{kAperture,
                                                      defaults_.num_sites,
                                                      defaults_.active_sites,
                                                      {}},
                    &registry_),
        ingest_(exiot::pipeline::IngestConfig{defaults_.num_detector_shards,
                                              defaults_.buffer_capacity,
                                              defaults_.ingest_batch_size},
                defaults_.detector, counting_sink(),
                exiot::probe::table1_ports(), &registry_) {}

  /// Runs hour `hour`; `spans` receives the layer spans (pass a disabled
  /// recorder for the untraced twin). Returns the wall nanoseconds.
  std::int64_t run_hour(std::int64_t hour, SpanRecorder& spans) {
    const exiot::TimeMicros start = hour * exiot::kMicrosPerHour;
    const exiot::TimeMicros end = start + exiot::kMicrosPerHour;
    const std::size_t batch = defaults_.decode_batch_size;
    const std::int64_t t0 = now_ns();
    {
      SpanRecorder::Scope hour_span(spans, "shadow.hour", hour);
      SpanRecorder::Scope ingest_span(spans, "flow.run_hour_batched", hour);
      ingest_.run_hour_batched(
          [&](const exiot::pipeline::ThreadedIngest::BatchFn& fn) {
            SpanRecorder::Scope fed_span(spans, "pipeline.run_window", hour);
            return federation_.run_window(
                [&](const exiot::pipeline::FederationStage::BatchFn& inner) {
                  SpanRecorder::Scope emit_span(
                      spans, "telescope.emit_batches", hour);
                  return producer_.emit_batches(
                      start, end, batch,
                      [&](const exiot::net::PacketBatch& b) {
                        SpanRecorder::Scope cb(spans, "pipeline.federation_cb",
                                               hour);
                        inner(b);
                      });
                },
                [&](const exiot::net::PacketBatch& b) {
                  SpanRecorder::Scope sink(spans, "flow.sink", hour);
                  fn(b);
                });
          },
          end);
    }
    const std::size_t tracked = ingest_.tracked_sources();
    if (tracked > tracked_peak_) tracked_peak_ = tracked;
    return now_ns() - t0;
  }

  std::uint64_t packets() const { return ingest_.stats().packets_processed; }
  std::size_t tracked_peak() const { return tracked_peak_; }
  std::uint64_t events() const { return events_; }

 private:
  exiot::flow::DetectorEvents counting_sink() {
    exiot::flow::DetectorEvents sink;
    sink.on_scanner = [this](const exiot::flow::FlowSummary&) { ++events_; };
    sink.on_sample = [this](exiot::Ipv4,
                            const std::vector<exiot::net::Packet>&) {
      ++events_;
    };
    sink.on_flow_end = [this](const exiot::flow::FlowSummary&) { ++events_; };
    sink.on_report = [this](const exiot::flow::SecondReport&) { ++events_; };
    return sink;
  }

  const PipelineConfig defaults_;
  exiot::obs::MetricsRegistry registry_;
  exiot::pipeline::ParallelProducer producer_;
  exiot::pipeline::FederationStage federation_;
  exiot::pipeline::ThreadedIngest ingest_;
  std::uint64_t events_ = 0;
  std::size_t tracked_peak_ = 0;
};

void read_layer_counters(const exiot::obs::MetricsRegistry& m,
                         LayerReport& layers) {
  auto c = [&m](const char* name, exiot::obs::Labels labels = {}) {
    return static_cast<double>(m.counter_value(name, labels));
  };
  const double packets = c("exiot_detector_packets_processed_total");
  const double scanners = c("exiot_detector_scanners_detected_total");
  const double published = c("exiot_feed_records_published_total");
  layers.set("flow.packets", packets);
  layers.set("flow.scanners", scanners);
  layers.set("flow.backscatter_ratio",
             ratio(c("exiot_detector_backscatter_filtered_total"), packets));
  const exiot::obs::Histogram* retrain =
      m.find_histogram("exiot_trainer_retrain_duration_seconds");
  layers.set("pipeline.retrain_s", retrain != nullptr ? retrain->sum() : 0.0);
  layers.set("store.wal_fsync_s", c("exiot_wal_fsync_micros_total") * 1e-6);
  layers.set("store.wal_bytes", c("exiot_wal_bytes_written_total"));
  layers.set("store.snapshot_writes", c("exiot_snapshot_writes_total"));
  for (const auto& [name, value] : store_ops(m)) layers.set(name, value);
  const double probed = c("exiot_scan_module_probed_total");
  double banners = 0.0, outcomes = 0.0;
  for (const char* cls : {"banner_iot", "banner_noniot", "banner_unmatched",
                          "no_banner"}) {
    const double n = c("exiot_probe_outcomes_total", {{"class", cls}});
    outcomes += n;
    if (std::string(cls) != "no_banner") banners += n;
  }
  layers.set("probe.probed", probed);
  layers.set("probe.banner_ratio", ratio(banners, outcomes));
  const double regex = c("exiot_fingerprint_prefilter_regex_total");
  layers.set("fingerprint.regex_per_banner",
             ratio(regex, regex + c("exiot_fingerprint_prefilter_skipped_total")));
  layers.set("pipeline.records_per_scanner", ratio(published, scanners));
  layers.set("feed.published", published);
  layers.set("feed.expired", c("exiot_feed_records_expired_total"));
}

}  // namespace

RunResult run_feed(const Options& options) {
  RunResult result;
  const fs::path root = options.work_dir / "feed";
  fs::remove_all(root);

  // Set-up: population + durable pipeline construction, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<Sim> sim;
  std::unique_ptr<ExIotPipeline> pipe;
  fs::path data_dir;
  for (int rep = 0; rep < kFeedSetupRepeats; ++rep) {
    pipe.reset();
    sim.reset();
    data_dir = root / ("data-" + std::to_string(rep));
    const std::int64_t t0 = now_ns();
    sim = make_sim(options, population_scale(options));
    pipe = std::make_unique<ExIotPipeline>(sim->population, sim->world,
                                           feed_config(data_dir));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  result.check(pipe->durability() != nullptr,
               "durable pipeline: " + pipe->recovery_error());

  SpanRecorder spans(options.trace);
  SpanRecorder untraced(false);
  std::unique_ptr<ShadowChain> shadow, twin;
  if (options.trace) {
    shadow = std::make_unique<ShadowChain>(sim->population);
    twin = std::make_unique<ShadowChain>(sim->population);
  }
  const exiot::obs::MetricsRegistry& reg = pipe->metrics();
  std::vector<double> hour_ms;
  std::int64_t shadow_ns = 0, twin_ns = 0, excluded_ns = 0;
  std::uint64_t shadow_mismatches = 0;
  const std::int64_t t_start = now_ns();
  for (std::int64_t h = 0; h < kHours; ++h) {
    const std::uint64_t before =
        reg.counter_value("exiot_detector_packets_processed_total");
    const std::int64_t a = now_ns();
    {
      SpanRecorder::Scope span(spans, "pipeline.run_hours", h);
      pipe->run_hours(h, h + 1);
    }
    const std::int64_t b = now_ns();
    hour_ms.push_back(static_cast<double>(b - a) * 1e-6);
    ++result.attempted;
    if (shadow != nullptr) {
      const std::uint64_t delta =
          reg.counter_value("exiot_detector_packets_processed_total") - before;
      const std::uint64_t shadow_before = shadow->packets();
      // Alternate which chain runs first so neither always inherits the
      // other's warm caches.
      if (h % 2 == 0) {
        shadow_ns += shadow->run_hour(h, spans);
        twin_ns += twin->run_hour(h, untraced);
      } else {
        twin_ns += twin->run_hour(h, untraced);
        shadow_ns += shadow->run_hour(h, spans);
      }
      if (shadow->packets() - shadow_before != delta) ++shadow_mismatches;
      excluded_ns += now_ns() - b;
    }
  }
  pipe->finish();
  const double wall_s =
      static_cast<double>(now_ns() - t_start - excluded_ns) * 1e-9;
  const double peak_mib = peak_rss_mib();
  const double packets = static_cast<double>(
      reg.counter_value("exiot_detector_packets_processed_total"));

  LayerReport layers;
  if (options.trace) {
    read_layer_counters(reg, layers);
    result.check(shadow_mismatches == 0,
                 std::to_string(shadow_mismatches) +
                     " shadow hours disagree with the detector counter");
    const auto self = spans.self_seconds_by_name();
    auto get = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    const double emit = get("telescope.emit_batches");
    const double federation =
        get("pipeline.run_window") + get("pipeline.federation_cb");
    const double detect = get("flow.run_hour_batched") + get("flow.sink");
    const double shadow_s = static_cast<double>(shadow_ns) * 1e-9;
    double run_hours_s = 0.0;
    for (double ms : hour_ms) run_hours_s += ms * 1e-3;
    layers.set("telescope.emit_s", emit);
    layers.set("pipeline.federation_s", federation);
    layers.set("flow.detect_s", detect);
    layers.set("pipeline.downstream_s", run_hours_s - shadow_s);
    layers.set("flow.tracked_sources_peak",
               static_cast<double>(shadow->tracked_peak()));
    layers.set("pipeline.federation_skew", 1.0);  // One site holds it all.
    layers.set("trace.coverage_pct",
               100.0 * ratio(emit + federation + detect, shadow_s));
    layers.set("trace.overhead_pct",
               100.0 * (ratio(static_cast<double>(shadow_ns),
                              static_cast<double>(twin_ns)) -
                        1.0));
    measure_api_layers(*pipe, options, result, layers);
    spans.write_jsonl(
        (options.trace_dir / ("feed-seed" + std::to_string(options.seed) +
                              ".spans.jsonl"))
            .string());
  }

  // Gates, after the timed phase (and after peak RSS was read).
  const std::uint64_t run_digest = export_digest(*pipe);
  pipe.reset();
  {
    ExIotPipeline reference(sim->population, sim->world, feed_config({}));
    reference.run_hours(0, kHours);
    reference.finish();
    result.check(export_digest(reference) == run_digest,
                 "durable export differs from the in-memory pipeline's");
  }
  {
    ExIotPipeline recovered(sim->population, sim->world,
                            feed_config(data_dir));
    result.check(recovered.recovery_error().empty() &&
                     export_digest(recovered) == run_digest,
                 "pipeline recovered from the data dir exports different "
                 "bytes" + recovered.recovery_error());
  }
  std::printf("feed: %d hours, %.0f packets, %.3f s timed, export %016llx\n",
              kHours, packets, wall_s,
              static_cast<unsigned long long>(run_digest));
  if (shadow != nullptr) {
    std::printf("feed: shadow chain saw %llu detector events\n",
                static_cast<unsigned long long>(shadow->events()));
  }

  if (options.trace) {
    layers.emit_into(result);
  } else {
    const Percentile p50 = percentile(hour_ms, 0.5);
    const Percentile p85 = percentile(hour_ms, 0.85);
    result.check(p85.beyond >= 10, "too few hours for p85");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_mib, "MiB");
    result.add("throughput_per_s", packets / wall_s, "1/s");
    result.add("latency_p50_ms", p50.value, "ms");
    result.add("latency_tail_ms", p85.value, "ms");
  }
  fs::remove_all(root);
  return result;
}

}  // namespace perfbench
