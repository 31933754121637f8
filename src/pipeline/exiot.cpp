#include "pipeline/exiot.h"

#include <algorithm>

#include "common/log.h"
#include "enrich/flow_stats.h"
#include "ml/features.h"

namespace exiot::pipeline {
namespace {

/// Analyzing one hour of capture takes this long (paper: ~20 minutes).
constexpr TimeMicros kProcessingPerHour = minutes(20);
/// Annotation (feature extraction, lookups, model application) per record.
constexpr TimeMicros kAnnotateLatency = seconds(30);

}  // namespace

ExIotPipeline::ExIotPipeline(const inet::Population& population,
                             const inet::WorldModel& world,
                             PipelineConfig config)
    : population_(population),
      config_([&config] {
        PipelineConfig c = config;
        c.decode_batch_size = std::max<std::size_t>(1, c.decode_batch_size);
        return c;
      }()),
      tracer_(obs::TracerConfig{config.trace_sample}, &metrics_),
      watchdog_(config.watchdog_deadline.count() > 0
                    ? std::make_unique<obs::Watchdog>(
                          obs::WatchdogConfig{config.watchdog_deadline},
                          &metrics_, &flight_)
                    : nullptr),
      producer_(population, config.telescope,
                ProducerConfig{config.num_producer_threads,
                               config.producer_batch_size, minutes(1),
                               config.producer_queue_capacity},
                &metrics_, &tracer_, watchdog_.get()),
      ingest_(
          IngestConfig{config.num_detector_shards, config.buffer_capacity,
                       config.ingest_batch_size},
          config.detector,
          flow::DetectorEvents{
              .on_scanner =
                  [this](const flow::FlowSummary& summary) {
                    auto it = pending_.find(summary.src.value());
                    if (it != pending_.end()) {
                      // Re-detection while the previous record is still in
                      // flight (its flow expired, the source came back, and
                      // the probe/sample have not completed the record).
                      inst_.pending_clobbered->inc();
                      PendingRecord old = std::move(it->second);
                      if (old.probe.has_value() && old.bundle.has_value() &&
                          !old.dropped) {
                        // The old record is complete; ship it before
                        // starting the new one.
                        publish_record(old);
                      } else {
                        // Carry the probe state forward: if the probe is
                        // still in the scan-module batch (nullopt), its
                        // outcome must land on the new record — submitting
                        // again would double-probe the source.
                        pending_.erase(it);
                        PendingRecord fresh;
                        fresh.summary = summary;
                        fresh.trace = tracer_.maybe_trace(
                            obs::Tracer::record_key(summary.src.value(),
                                                    summary.detect_time));
                        fresh.probe = std::move(old.probe);
                        pending_.emplace(summary.src.value(),
                                         std::move(fresh));
                        return;
                      }
                    }
                    // New scanner: the detection ships over the tunnel and
                    // enters the scan-module batch on the processing clock.
                    auto& pending = pending_[summary.src.value()];
                    pending = PendingRecord{};
                    pending.summary = summary;
                    // Same (src, detect_time) key the detector shard used:
                    // the pending record joins the trace the kDetect span
                    // rooted, without any field in FlowSummary.
                    pending.trace = tracer_.maybe_trace(
                        obs::Tracer::record_key(summary.src.value(),
                                                summary.detect_time));
                    const TimeMicros at = federation_.deliver_event(
                        summary.src, processing_time(summary.detect_time));
                    handle_probe_outcomes(
                        scan_module_.submit(summary.src, at));
                  },
              .on_sample =
                  [this](Ipv4 src, const std::vector<net::Packet>& pkts) {
                    auto it = pending_.find(src.value());
                    if (it == pending_.end()) return;
                    PendingRecord& pending = it->second;
                    pending.sample_ready_at = federation_.deliver_event(
                        src, processing_time(pkts.back().ts));
                    auto bundle = organizer_.organize(src, pkts);
                    if (!bundle.has_value()) {
                      pending.dropped = true;
                      flight_.record("drop", "organizer rejected sample "
                                             "from " + src.to_string());
                    } else {
                      pending.bundle = std::move(bundle);
                    }
                    try_publish(pending);
                  },
              .on_flow_end =
                  [this](const flow::FlowSummary& summary) {
                    const TimeMicros at = federation_.deliver_event(
                        summary.src, processing_time(summary.last_seen) +
                                         kProcessingPerHour);
                    auto it = pending_.find(summary.src.value());
                    if (it != pending_.end()) {
                      // Record not yet published: fold the end into it so
                      // the record is born already closed.
                      it->second.summary.last_seen = summary.last_seen;
                      it->second.summary.total_packets =
                          summary.total_packets;
                      it->second.ended = true;
                      it->second.end_ts = summary.last_seen;
                      it->second.dropped =
                          it->second.dropped || !it->second.bundle;
                      if (it->second.dropped) pending_.erase(it);
                      return;
                    }
                    // The record already left the pipeline: the END_FLOW
                    // is a commit of its own, logged before it applies.
                    if (durability_ == nullptr ||
                        durability_->log_mark_ended(summary.src,
                                                    summary.last_seen, at)) {
                      (void)feed_.mark_ended(summary.src, summary.last_seen,
                                             at);
                    }
                    commit_seq_.fetch_add(1, std::memory_order_release);
                  },
              .on_report =
                  [this](const flow::SecondReport& report) {
                    inst_.reports->inc();
                    reports_.ingest(report);
                  }},
          probe::table1_ports(), &metrics_, &tracer_, watchdog_.get()),
      organizer_(config.organizer, &metrics_),
      prober_(population, config.prober),
      scan_module_(prober_, fingerprint::RuleDb::standard(), config.batcher,
                   &metrics_),
      trainer_(config.trainer, &metrics_),
      enrich_(world, population),
      feed_(&metrics_, &tracer_),
      notifications_([this](const feed::EmailMessage& message) {
        outbox_.push_back(message);
      }),
      federation_(FederationConfig{config.telescope, config.num_sites,
                                   config.active_sites, config.site_specs},
                  &metrics_) {
  if (watchdog_ != nullptr) watchdog_->start();
  const std::string detector_help =
      "Flow-detector events, scraped hourly from the CAIDA side.";
  inst_.packets = &metrics_.counter("exiot_detector_packets_processed_total",
                                    detector_help);
  inst_.backscatter = &metrics_.counter(
      "exiot_detector_backscatter_filtered_total", detector_help);
  inst_.scanners = &metrics_.counter("exiot_detector_scanners_detected_total",
                                     detector_help);
  inst_.samples = &metrics_.counter("exiot_detector_samples_completed_total",
                                    detector_help);
  inst_.flows_ended =
      &metrics_.counter("exiot_detector_flows_ended_total", detector_help);
  inst_.pending_resets = &metrics_.counter(
      "exiot_detector_pending_resets_total", detector_help);
  inst_.hours = &metrics_.counter("exiot_pipeline_hours_processed_total",
                                  "Virtual capture hours run end to end.");
  inst_.reports = &metrics_.counter(
      "exiot_pipeline_report_messages_total",
      "Per-second telescope report messages ingested.");
  inst_.pending_clobbered = &metrics_.counter(
      "exiot_pipeline_pending_clobbered_total",
      "Scanner re-detections that found an in-flight pending record.");
  inst_.pending = &metrics_.gauge(
      "exiot_pipeline_pending_records",
      "Records awaiting a probe outcome or organized sample.");
  inst_.annotated = &metrics_.counter(
      "exiot_annotate_records_total",
      "Records annotated and committed to the feed.");
  inst_.annotate_h = &metrics_.histogram(
      "exiot_annotate_latency_seconds",
      "Virtual time from probe/sample completion to publication "
      "(feature extraction, classification, enrichment, tools).",
      obs::virtual_latency_buckets());

  if (!config_.data_dir.empty()) {
    DurabilityConfig durability_config;
    durability_config.data_dir = config_.data_dir;
    durability_config.wal_segment_bytes = config_.wal_segment_bytes;
    durability_config.wal_fsync = config_.wal_fsync;
    durability_config.snapshot_interval_hours =
        config_.snapshot_interval_hours;
    durability_ = std::make_unique<Durability>(
        durability_config, DurableState{feed_, trainer_, outbox_},
        // Replay goes through the same commit code the live path runs.
        ReplayHooks{
            [this](AnnotateResult& result) { commit_annotated(result); },
            [this](Ipv4 src, TimeMicros scan_end, TimeMicros at) {
              (void)feed_.mark_ended(src, scan_end, at);
            },
            [this](std::int64_t /*hour*/, TimeMicros processing_end) {
              apply_hour_end(processing_end);
            }},
        &metrics_);
    auto recovered = durability_->recover();
    if (!recovered.ok()) {
      // Never risk a divergent log: run in-memory, leave the directory
      // untouched for inspection, and surface the reason.
      recovery_error_ = recovered.error().message;
      EXIOT_LOG(LogLevel::kError, "pipeline",
                "durability disabled, running in-memory: " +
                    recovery_error_);
      flight_.record("durability",
                     "recovery failed: " + recovery_error_);
      durability_.reset();
    } else if (recovered.value().recovered_index > 0) {
      flight_.record(
          "durability",
          "recovered " +
              std::to_string(recovered.value().recovered_index) +
              " commits from " + config_.data_dir.string());
    }
  }
}

TimeMicros ExIotPipeline::processing_time(TimeMicros traffic_ts) const {
  const std::int64_t hour = traffic_ts / kMicrosPerHour;
  const TimeMicros ready = config_.collection.file_ready_time(hour);
  const double frac =
      static_cast<double>(traffic_ts - hour * kMicrosPerHour) /
      static_cast<double>(kMicrosPerHour);
  return ready + static_cast<TimeMicros>(
                     frac * static_cast<double>(kProcessingPerHour));
}

void ExIotPipeline::handle_probe_outcomes(
    std::vector<ProbeOutcome> outcomes) {
  for (auto& outcome : outcomes) {
    auto it = pending_.find(outcome.src.value());
    if (it == pending_.end()) continue;
    it->second.probe = std::move(outcome);
    try_publish(it->second);
  }
}

void ExIotPipeline::try_publish(PendingRecord& pending) {
  if (!pending.probe.has_value()) return;
  if (pending.dropped) {
    pending_.erase(pending.summary.src.value());
    return;
  }
  if (!pending.bundle.has_value()) return;
  publish_record(pending);
}

void ExIotPipeline::publish_record(PendingRecord& pending) {
  // Spans split annotate from commit; nothing queues between them, so
  // their queue waits are zero.
  const bool traced = pending.trace.sampled();
  const std::uint64_t t0 = traced ? obs::steady_micros() : 0;
  AnnotateResult result = annotate(pending);
  const std::uint64_t t1 = traced ? obs::steady_micros() : 0;
  // The WAL append precedes the side effects; durability suppresses the
  // commits a recovery already applied (the re-run after a restart).
  if (durability_ == nullptr || durability_->log_publish(result)) {
    commit_annotated(result);
  }
  if (traced) {
    const std::uint64_t t2 = obs::steady_micros();
    const std::uint32_t src = result.record.src.value();
    tracer_.record(pending.trace, obs::SpanStage::kAnnotate, t0, t1 - t0, 0,
                   src);
    tracer_.record(pending.trace, obs::SpanStage::kCommit, t1, t2 - t1, 0,
                   src);
  }
  commit_seq_.fetch_add(1, std::memory_order_release);
  inst_.annotated->inc();
  pending_.erase(pending.summary.src.value());
}

AnnotateResult ExIotPipeline::annotate(const PendingRecord& pending) const {
  const ProbeOutcome& probe = *pending.probe;
  const ScannerBundle& bundle = *pending.bundle;

  AnnotateResult out;
  out.annotate_start = std::max(probe.completed_at, pending.sample_ready_at);
  out.published = out.annotate_start + kAnnotateLatency;
  out.training_label = probe.training_label;
  out.ended = pending.ended;
  out.end_ts = pending.end_ts;
  out.trace = pending.trace;
  const TimeMicros published = out.published;

  // Feature extraction over the sampled flow.
  out.features = ml::flow_features(bundle.sample);

  feed::CtiRecord& record = out.record;
  record.src = pending.summary.src;
  record.scan_start = pending.summary.first_seen;
  record.detect_time = pending.summary.detect_time;
  record.published_at = published;
  record.banner_returned = probe.banner_returned;

  // Classification: benign research scanners by rDNS allowlist; otherwise
  // the latest deployed model; before the first model, fall back to the
  // banner label when one exists.
  const std::string rdns = enrich_.rdns(record.src);
  record.rdns = rdns;
  if (enrich::EnrichmentService::is_benign_scanner_rdns(rdns)) {
    record.label = feed::kLabelBenign;
    record.score = 0.0;
  } else if (const DeployedModel* model = trainer_.model_at(published)) {
    record.score = model->score(out.features);
    record.label =
        record.score >= 0.5 ? feed::kLabelIot : feed::kLabelNonIot;
  } else if (probe.training_label == 1) {
    record.label = feed::kLabelIot;
    record.score = 1.0;
  } else if (probe.training_label == 0) {
    record.label = feed::kLabelNonIot;
    record.score = 0.0;
  } else {
    record.label = feed::kLabelUnlabeled;
    record.score = 0.5;
  }

  // Device identity from banners.
  if (probe.device.has_value()) {
    record.vendor = probe.device->vendor;
    record.device_type = probe.device->device_type;
    record.model = probe.device->model;
    record.firmware = probe.device->firmware;
  }
  for (const auto& banner : probe.banners) {
    record.open_ports.push_back(banner.port);
  }
  std::sort(record.open_ports.begin(), record.open_ports.end());
  record.open_ports.erase(
      std::unique(record.open_ports.begin(), record.open_ports.end()),
      record.open_ports.end());

  // Tool fingerprinting from the sampled packets.
  record.tool = fingerprint::fingerprint_tool(bundle.sample).tool;

  // Enrichment lookups.
  if (auto geo = enrich_.geo(record.src)) {
    record.country = geo->country;
    record.country_code = geo->country_code;
    record.continent = geo->continent;
    record.latitude = geo->latitude;
    record.longitude = geo->longitude;
    record.asn = geo->asn;
    record.isp = geo->isp;
  }
  if (auto whois = enrich_.whois(record.src)) {
    record.organization = whois->organization;
    record.sector = whois->sector;
    record.abuse_email = whois->abuse_email;
  }

  // Flow statistics.
  const enrich::FlowStats flow_stats =
      enrich::compute_flow_stats(bundle.sample);
  record.scan_rate = flow_stats.scan_rate;
  record.address_repetition = flow_stats.address_repetition_ratio;
  record.targeted_ports = flow_stats.port_distribution;

  record.active = !pending.ended;
  record.scan_end = pending.ended ? pending.end_ts : 0;
  return out;
}

void ExIotPipeline::commit_annotated(AnnotateResult& result) {
  const TimeMicros published = result.published;
  // Banner-derived training label feeds the Update Classifier.
  if (result.training_label != -1) {
    trainer_.add_example(published, result.features, result.training_label);
  }
  obs::VirtualTimer annotate_timer(*inst_.annotate_h, result.annotate_start);
  annotate_timer.stop(published);
  (void)feed_.publish(result.record, published, &result.trace);
  if (result.ended) {
    // The record was born closed; retire its active-cache entry.
    (void)feed_.mark_ended(result.record.src, result.end_ts, published);
  }
  (void)notifications_.on_record_published(result.record, published);
}

void ExIotPipeline::run_hours(std::int64_t first_hour,
                              std::int64_t last_hour) {
  for (std::int64_t hour = first_hour; hour < last_hour; ++hour) {
    const TimeMicros start = hour * kMicrosPerHour;
    const TimeMicros end = start + kMicrosPerHour;
    // The hour moves through capture->detect in packet batches: the
    // producer synthesizes into PacketBatch rows, the federation stage
    // marks each row's site in its source's mask and drops dark
    // apertures' rows in one pass (a pass-through at num_sites == 1), and
    // the ingest stage hands each row to FlowDetector::process.
    ingest_.run_hour_batched(
        [this, start, end](const ThreadedIngest::BatchFn& fn) {
          return federation_.run_window(
              [this, start, end](const FederationStage::BatchFn& inner) {
                return producer_.emit_batches(
                    start, end, config_.decode_batch_size, inner);
              },
              fn);
        },
        end);

    const TimeMicros processing_end =
        config_.collection.file_ready_time(hour) + kProcessingPerHour;
    handle_probe_outcomes(scan_module_.tick(processing_end));
    flight_.record("stage",
                   "hour " + std::to_string(hour) + " drained");
    // The hour boundary is a WAL commit like any publish; recovery replays
    // (or suppression skips) it in order.
    if (durability_ == nullptr ||
        durability_->log_hour_end(hour, processing_end)) {
      apply_hour_end(processing_end);
    }

    scrape_detector();
    inst_.hours->inc();
    inst_.pending->set(static_cast<double>(pending_.size()));
    next_hour_ = hour + 1;
    if (durability_ != nullptr) durability_->maybe_snapshot(hour);
  }
}

void ExIotPipeline::apply_hour_end(TimeMicros processing_end) {
  if (trainer_.maybe_retrain(processing_end).has_value()) {
    EXIOT_LOG(LogLevel::kInfo, "pipeline",
              "retrained model at " + format_time(processing_end));
    flight_.record("retrain",
                   "model retrained at " + format_time(processing_end));
  }
  const std::size_t expired = feed_.expire(processing_end);
  if (expired > 0) {
    flight_.record("expire", std::to_string(expired) +
                                 " historical records lapsed");
  }
}

void ExIotPipeline::scrape_detector() {
  const flow::DetectorStats s = ingest_.stats();
  inst_.packets->inc(s.packets_processed - scraped_.packets_processed);
  inst_.backscatter->inc(s.backscatter_filtered -
                         scraped_.backscatter_filtered);
  inst_.scanners->inc(s.scanners_detected - scraped_.scanners_detected);
  inst_.samples->inc(s.samples_completed - scraped_.samples_completed);
  inst_.flows_ended->inc(s.flows_ended - scraped_.flows_ended);
  inst_.pending_resets->inc(s.pending_resets - scraped_.pending_resets);
  scraped_ = s;
}

void ExIotPipeline::finish() {
  ingest_.finish();
  const TimeMicros processing_end =
      config_.collection.file_ready_time(next_hour_) + kProcessingPerHour;
  handle_probe_outcomes(scan_module_.flush(processing_end));
  // Publish whatever is complete; everything else (no probe or no sample)
  // is dropped, as an aborted deployment would.
  std::vector<std::uint32_t> keys;
  keys.reserve(pending_.size());
  for (auto& [key, pending] : pending_) keys.push_back(key);
  for (auto key : keys) {
    auto it = pending_.find(key);
    if (it == pending_.end()) continue;
    if (it->second.probe.has_value() && it->second.bundle.has_value() &&
        !it->second.dropped) {
      publish_record(it->second);
    } else {
      pending_.erase(it);
    }
  }
  if (durability_ != nullptr) durability_->finish();
  scrape_detector();
  inst_.pending->set(static_cast<double>(pending_.size()));
}

}  // namespace exiot::pipeline
