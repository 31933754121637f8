// The end-to-end eX-IoT pipeline (Figure 2), driven on the virtual clock:
//
//   telescope traffic -> flow detection & sampling (CAIDA side)
//     -> secure tunnel -> receiver -> packet organizer -> buffer
//     -> scan module (ZMap/ZGrab + banner fingerprinting)
//     -> annotate module (features + classifier + enrichment + tools)
//     -> update classifier (14-day window, daily retrain)
//     -> feed manager (Mongo latest + historical, Redis active cache)
//
// Latency semantics follow the paper's deployment: an hour of capture
// becomes available ~3.5 h after the hour ends (CAIDA collection), takes
// ~20 minutes to analyze, scanners wait in the scan-module batch (100k
// records / 60 min), probing and annotation add their own costs; the
// record's published_at reflects the full path, which is what the latency
// experiment (§V-B) measures.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "enrich/enrichment.h"
#include "feed/manager.h"
#include "feed/notify.h"
#include "fingerprint/tools.h"
#include "flow/detector.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/durability.h"
#include "pipeline/federation.h"
#include "pipeline/ingest.h"
#include "pipeline/organizer.h"
#include "pipeline/producer.h"
#include "pipeline/report_store.h"
#include "pipeline/scan_module.h"
#include "pipeline/tunnel.h"
#include "pipeline/update_classifier.h"
#include "probe/prober.h"
#include "telescope/capture.h"
#include "telescope/synthesizer.h"

namespace exiot::pipeline {

struct PipelineConfig {
  Cidr telescope{Ipv4(44, 0, 0, 0), 8};
  flow::DetectorConfig detector;
  OrganizerConfig organizer;
  probe::BatcherConfig batcher;
  probe::ProberConfig prober = probe::ProberConfig::standard();
  telescope::CollectionModel collection;
  TrainerConfig trainer;
  /// Flow-detector shards for the threaded capture->detect stage; 1 keeps
  /// the stage single-threaded. The feed output is byte-identical for any
  /// value (see pipeline/ingest.h).
  int num_detector_shards = 1;
  /// Capacity of each shard's capture buffer, in packet batches.
  std::size_t buffer_capacity = 64;
  /// Packets per batch pushed into a shard's capture buffer.
  std::size_t ingest_batch_size = 512;
  /// Rows per PacketBatch moved through the capture->detect hot path
  /// (producer emit, federation filter, ingest scatter). Any value yields
  /// the byte-identical feed; it only trades per-batch overhead against
  /// cache footprint. CLI: `exiotctl --batch-size`.
  std::size_t decode_batch_size = 512;
  /// Producer threads synthesizing telescope traffic (stage 0); 1 keeps
  /// synthesis serial on the calling thread. The feed output is
  /// byte-identical for any producers x shards combination (see
  /// pipeline/producer.h).
  int num_producer_threads = 1;
  /// Packets per batch pushed into a producer queue.
  std::size_t producer_batch_size = 1024;
  /// Capacity of each producer queue, in batches.
  std::size_t producer_queue_capacity = 8;
  /// Fraction of records / batches span-traced end to end (0 disables
  /// tracing entirely; 1 traces everything). Sampling is deterministic in
  /// the record identity, so any rate keeps the feed byte-identical.
  double trace_sample = 0.0;
  /// Stall-watchdog deadline for worker heartbeats; 0 disables the
  /// watchdog. A busy worker silent past this flips /v1/health.
  std::chrono::milliseconds watchdog_deadline{0};
  /// Durability: when non-empty, the ordered commit stream is written to a
  /// segmented WAL in this directory, compacted into periodic snapshots,
  /// and recovered (snapshot + WAL tail + deterministic re-run) at
  /// construction — a crash loses nothing that was committed. Empty keeps
  /// the pipeline purely in-memory. See pipeline/durability.h.
  std::filesystem::path data_dir;
  /// WAL segment size before rolling to a new file.
  std::size_t wal_segment_bytes = 4u << 20;
  /// When the WAL fsyncs: kNone / kOnRoll (default) / kEveryAppend.
  store::WalFsync wal_fsync = store::WalFsync::kOnRoll;
  /// Hours between compacted snapshots (0 = only the final one).
  int snapshot_interval_hours = 24;
  /// Telescope federation: sensor sites the aperture is carved into
  /// (power of two in 1..FederationStage::kMaxSites, else the constructor
  /// throws std::invalid_argument; 1 = the single-telescope legacy
  /// path). The merged feed is byte-identical for any site count — see
  /// pipeline/federation.h. CLI: `exiotctl --sites`.
  int num_sites = 1;
  /// Sites actually capturing (first k of the partition; 0 = all). Fewer
  /// active sites shrink the effective aperture without changing the
  /// canonical traffic — the marginal-aperture experiment's knob.
  int active_sites = 0;
  /// Per-site tunnel reconnect delays and outages, index-matched to the
  /// sites (missing entries take the SiteSpec defaults).
  std::vector<SiteSpec> site_specs;
};

class ExIotPipeline {
 public:
  ExIotPipeline(const inet::Population& population,
                const inet::WorldModel& world, PipelineConfig config);

  /// Processes telescope traffic for virtual hours [first_hour,
  /// last_hour). Can be called repeatedly with consecutive ranges.
  void run_hours(std::int64_t first_hour, std::int64_t last_hour);

  /// Convenience: whole days.
  void run_days(int first_day, int last_day) {
    run_hours(first_day * 24, last_day * 24);
  }

  /// Flushes pending batches and in-flight records (end of deployment).
  void finish();

  feed::FeedManager& feed() { return feed_; }
  const feed::FeedManager& feed() const { return feed_; }
  /// Publish and mark-ended commits so far: advances exactly when a
  /// commit's side effects become visible in the feed (commits a recovery
  /// re-run suppresses count too). Lock-free; the API response cache keys
  /// validity on it (api/cache.h).
  std::uint64_t commit_sequence() const {
    return commit_seq_.load(std::memory_order_acquire);
  }
  feed::NotificationEngine& notifications() { return notifications_; }
  /// Emails generated by the notification engine (simulated SMTP sink).
  const std::vector<feed::EmailMessage>& outbox() const { return outbox_; }
  /// Site 0's tunnel — the whole tunnel in the single-telescope legacy
  /// configuration (the common test hook for outage injection).
  ReconnectingTunnel& tunnel() { return federation_.tunnel(0); }
  /// The federation stage: per-site apertures, tunnels, and the
  /// source -> site-mask ledger.
  FederationStage& federation() { return federation_; }
  const FederationStage& federation() const { return federation_; }
  /// The pipeline-wide metrics registry: every stage and store records
  /// here; ApiServer::attach_metrics exposes it at /v1/metrics.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  const UpdateClassifier& classifier() const { return trainer_; }
  const PacketOrganizer& organizer() const { return organizer_; }
  /// Aggregated telescope statistics from the per-second report messages.
  const ReportStore& reports() const { return reports_; }
  /// Span tracer (enabled when config.trace_sample > 0); ApiServer exposes
  /// it at /v1/traces.
  const obs::Tracer& tracer() const { return tracer_; }
  /// Flight recorder of recent structural events (/v1/flightrecorder).
  obs::FlightRecorder& flight_recorder() { return flight_; }
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  /// Stall watchdog; null when config.watchdog_deadline is 0. The mutable
  /// overload lets external worker pools (the TCP listener) register too.
  const obs::Watchdog* watchdog() const { return watchdog_.get(); }
  obs::Watchdog* watchdog() { return watchdog_.get(); }
  /// Durability layer; null when config.data_dir is empty or recovery
  /// failed (see recovery_error()). The mutable overload lets tests arm
  /// the commit probe.
  const Durability* durability() const { return durability_.get(); }
  Durability* durability() { return durability_.get(); }
  /// Why durability was disabled at construction ("" = it wasn't). The
  /// pipeline still runs in-memory so the feed stays available, but the
  /// data directory is left untouched for inspection.
  const std::string& recovery_error() const { return recovery_error_; }

 private:
  /// A record being assembled: published once both the probe outcome and
  /// the organized sample are available.
  struct PendingRecord {
    flow::FlowSummary summary;
    std::optional<ProbeOutcome> probe;
    std::optional<ScannerBundle> bundle;
    TimeMicros sample_ready_at = 0;  // Processing-clock availability.
    bool dropped = false;            // Organizer rejected the sample.
    bool ended = false;              // END_FLOW arrived before publishing.
    TimeMicros end_ts = 0;
    /// Record trace context, re-derived from (src, detect_time) — the same
    /// sampling decision the detector shard made for its kDetect span.
    obs::TraceContext trace;
  };

  /// Converts a traffic timestamp inside `hour` to the processing clock:
  /// file availability plus the proportional share of the analysis time.
  TimeMicros processing_time(TimeMicros traffic_ts) const;

  void handle_probe_outcomes(std::vector<ProbeOutcome> outcomes);
  void try_publish(PendingRecord& pending);
  /// Annotates a completed pending record and commits it (WAL append,
  /// then side effects) on the calling thread, then retires it.
  void publish_record(PendingRecord& pending);
  /// Feature extraction, classification, tool fingerprinting, enrichment
  /// and flow statistics: a pure function of the record and the state at
  /// its publication time.
  AnnotateResult annotate(const PendingRecord& pending) const;
  /// Publication side effects: trainer example, feed publish, mark-ended,
  /// notification. Shared verbatim with WAL replay (Durability's
  /// apply_publish hook), so recovery cannot drift from the live path.
  void commit_annotated(AnnotateResult& result);
  /// Hour-boundary state mutation (retrain attempt + historical expiry);
  /// a WAL commit like any other, shared with replay.
  void apply_hour_end(TimeMicros processing_end);
  /// Folds detector-stat deltas into the registry (the detector runs on
  /// the CAIDA side of the tunnel and is scraped, not instrumented).
  void scrape_detector();

  /// Registry-backed instruments owned by the pipeline itself (stages own
  /// their own; these cover the detector scrape and annotation).
  struct StageInstruments {
    obs::Counter* packets = nullptr;
    obs::Counter* backscatter = nullptr;
    obs::Counter* scanners = nullptr;
    obs::Counter* samples = nullptr;
    obs::Counter* flows_ended = nullptr;
    obs::Counter* pending_resets = nullptr;
    obs::Counter* hours = nullptr;
    obs::Counter* reports = nullptr;
    obs::Counter* pending_clobbered = nullptr;
    obs::Gauge* pending = nullptr;
    obs::Counter* annotated = nullptr;     // exiot_annotate_records_total.
    obs::Histogram* annotate_h = nullptr;  // exiot_annotate_latency_seconds.
  };

  const inet::Population& population_;
  PipelineConfig config_;
  obs::MetricsRegistry metrics_;
  /// Declared before the stages so their constructors can take pointers;
  /// destroyed after them, so spans recorded during stage teardown land in
  /// live rings.
  obs::Tracer tracer_;
  obs::FlightRecorder flight_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  ParallelProducer producer_;
  ThreadedIngest ingest_;
  PacketOrganizer organizer_;
  probe::ActiveProber prober_;
  ScanModule scan_module_;
  UpdateClassifier trainer_;
  enrich::EnrichmentService enrich_;
  feed::FeedManager feed_;
  std::vector<feed::EmailMessage> outbox_;
  feed::NotificationEngine notifications_;
  FederationStage federation_;
  ReportStore reports_;
  /// Declared after the feed/trainer/outbox state it snapshots;
  /// constructed (and recovery run) in the constructor body, after the
  /// commit hooks' targets are fully wired.
  std::unique_ptr<Durability> durability_;
  std::string recovery_error_;
  std::atomic<std::uint64_t> commit_seq_{0};
  StageInstruments inst_;
  flow::DetectorStats scraped_;  // Detector counters already folded in.

  std::unordered_map<std::uint32_t, PendingRecord> pending_;
  std::int64_t next_hour_ = 0;
};

}  // namespace exiot::pipeline
