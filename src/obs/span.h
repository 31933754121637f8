// Sampled end-to-end span tracing for the threaded pipeline. Aggregate
// metrics (obs/metrics.h) say how each stage is doing on average; spans say
// where one record's latency went: a `TraceContext` is allocated when a
// packet batch or CTI record is born (pipeline/producer.cpp,
// pipeline/ingest.cpp), rides the item through every queue hand-off, and
// each stage records a `Span` splitting *processing time* (the stage's own
// work) from *queue-wait time* (the BoundedBuffer enqueue→dequeue gap it
// spent parked between stages).
//
// Sampling is a pure function of the item's identity (`Tracer::record_key`
// hashed against the rate), so the set of sampled records is identical for
// any producers x shards combination — and tracing never
// touches record content, so the feed stays byte-identical at any rate.
// When the rate is 0, `maybe_trace` is a single branch and no span code
// runs: the disabled tracer must not cost the hot path anything measurable
// (bench_ingest_throughput asserts ≤3% live-pipeline overhead).
//
// Storage is a lock-light per-thread ring: each recording thread owns a
// fixed-capacity ring guarded by its own (uncontended) mutex; overflow
// overwrites the oldest span and counts exiot_trace_spans_dropped_total.
// `snapshot()`/`to_json()` merge the rings for GET /v1/traces and
// `exiotctl trace`.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "json/json.h"
#include "obs/metrics.h"

namespace exiot::obs {

/// Steady-clock microseconds since process start — the wall time base every
/// span, flight-recorder event, and watchdog heartbeat shares.
std::uint64_t steady_micros();

/// Pipeline stages a span can belong to. Batch-scoped traces are born in
/// kProduce / kIngest; record-scoped traces are born in kDetect and flow
/// through kAnnotate -> kCommit -> kPublish.
enum class SpanStage : std::uint8_t {
  kProduce = 0,   // Synthesis batch built and queued by a producer thread.
  kIngest = 1,    // Capture batch through a detector shard.
  kDetect = 2,    // Scanner detection inside a shard (record trace root).
  kAnnotate = 3,  // Feature/score/enrich pass over one record.
  kCommit = 4,    // WAL append + feed side effects of one record.
  kPublish = 5,   // Feed store insert + active-cache registration.
};
constexpr int kSpanStageCount = 6;

/// Lowercase snake-case stage name (linted by tools/check_metrics_names.sh).
const char* span_stage_name(SpanStage stage);

/// The sampling decision plus the hand-off stamp, carried with the traced
/// item. `id == 0` means unsampled: every tracing call short-circuits.
struct TraceContext {
  std::uint64_t id = 0;
  /// steady_micros() at the last enqueue; the next stage's dequeue turns
  /// the gap into that span's queue_wait_micros.
  std::uint64_t handoff_micros = 0;

  bool sampled() const { return id != 0; }
};

/// One completed stage of one trace.
struct Span {
  std::uint64_t trace_id = 0;
  SpanStage stage = SpanStage::kProduce;
  std::uint64_t start_micros = 0;       // steady_micros() at stage entry.
  std::uint64_t processing_micros = 0;  // Time inside the stage itself.
  std::uint64_t queue_wait_micros = 0;  // Enqueue->dequeue gap before it.
  std::uint32_t src = 0;                // Record traces: source IP value.
  std::uint64_t seq = 0;                // Batch/submit sequence, if any.
};

struct TracerConfig {
  /// Fraction of trace keys sampled, in [0, 1]. 0 disables tracing.
  double sample_rate = 0.0;
  /// Spans each recording thread retains; overflow drops the oldest.
  std::size_t ring_capacity = 4096;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config, MetricsRegistry* metrics = nullptr);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return config_.sample_rate > 0.0; }
  double sample_rate() const { return config_.sample_rate; }

  /// Stable identity of a record trace: the same (src, detect_time) pair
  /// keys the same trace in the detector shard and in the downstream
  /// pipeline, without threading a context through the flow layer.
  static std::uint64_t record_key(std::uint32_t src,
                                  std::int64_t detect_time);

  /// The deterministic sampling decision: the same key at the same rate
  /// yields the same context (id derived from the key) on every thread and
  /// under any stage parallelism. Unsampled -> {0, 0}.
  TraceContext maybe_trace(std::uint64_t key) const;

  /// Records one completed span into the calling thread's ring. No-op for
  /// unsampled contexts.
  void record(const TraceContext& ctx, SpanStage stage,
              std::uint64_t start_micros, std::uint64_t processing_micros,
              std::uint64_t queue_wait_micros, std::uint32_t src = 0,
              std::uint64_t seq = 0);

  /// Merged copy of every thread's ring, oldest-first per thread.
  std::vector<Span> snapshot() const;

  /// Spans grouped by trace id for GET /v1/traces: {"traces": [{trace_id,
  /// src, spans: [{stage, start/processing/queue_wait micros, seq}]}],
  /// "spans_recorded", "spans_dropped"}. `max_traces` bounds the response
  /// (0 = all), keeping the most recently started traces.
  json::Value to_json(std::size_t max_traces = 0) const;

  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;

 private:
  struct Ring {
    explicit Ring(std::size_t capacity) { spans.reserve(capacity); }
    mutable std::mutex mutex;  // Uncontended: one writer, rare readers.
    std::vector<Span> spans;   // Circular once at capacity.
    std::size_t next = 0;      // Overwrite cursor (spans.size() == cap).
  };

  Ring& local_ring();

  const std::uint64_t tracer_id_;  // Keys the thread-local ring cache.
  TracerConfig config_;
  mutable std::mutex mutex_;  // Guards rings_ registration / iteration.
  std::vector<std::unique_ptr<Ring>> rings_;
  Counter* traces_c_;
  Counter* recorded_c_;
  Counter* dropped_c_;
};

}  // namespace exiot::obs
