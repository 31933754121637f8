// The parallel annotate/classify/publish stage: the per-record work that
// used to run inline on the merge thread — feature extraction, Random
// Forest scoring, tool fingerprinting, rDNS/geo/whois enrichment, flow
// statistics — fans out to K workers over a BoundedBuffer, and the results
// flow back through a sequence-numbered reorder buffer so the side effects
// (`feed_.publish`, `trainer_.add_example`, notifications, `mark_ended`)
// fire in the exact order the records were submitted.
//
// Determinism contract (the same one the producer and ingest stages keep):
// a record's content depends only on its job — the model registry is
// frozen between `drain()` barriers, and every enrichment lookup is a pure
// read — and commit order equals submit order, so the feed, the email
// outbox, ObjectId assignment, and every API response are byte-identical
// for any `num_workers` x producers x shards combination.
//
// Mechanics: `submit` assigns the job the next sequence number, parks a
// placeholder in the reorder window, and pushes the job to the worker
// queue. Workers annotate out of order and deposit results into the
// window; a committer thread applies whatever contiguous prefix of the
// window is ready, outside the stage lock. END_FLOW notices for records
// that already left the pipeline enter the same window as born-ready ops
// (`submit_mark_ended`), so feed mutations interleave exactly as they
// would serially. `num_workers <= 1` bypasses the machinery entirely and
// runs annotate + commit inline on the caller — the reference behavior the
// parallel path is tested against.
//
// The driver must call `drain()` before any step that mutates state the
// workers read (model retraining reallocates the deployed-model registry)
// or that reads state the committer writes (feed expiry, stats snapshots).
//
// The ordered commit stream doubles as the pipeline's write-ahead log:
// the commit callbacks run on the committer thread in exact submit order,
// so the durability layer (pipeline/durability.h) appends each commit to
// disk inside the callback, before its side effects — a total order that
// holds for any workers x producers x shards combination, which is what
// makes crash recovery byte-identical to an uninterrupted run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "feed/manager.h"
#include "flow/detector.h"
#include "ml/features.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/buffer.h"
#include "pipeline/organizer.h"
#include "pipeline/scan_module.h"

namespace exiot::pipeline {

/// A completed pending record: probe outcome and organized sample both
/// available, ready for the expensive annotation pass.
struct AnnotateJob {
  flow::FlowSummary summary;
  ProbeOutcome probe;
  ScannerBundle bundle;
  TimeMicros sample_ready_at = 0;
  bool ended = false;  // END_FLOW arrived before publication.
  TimeMicros end_ts = 0;
  /// Per-sensor attribution, copied out of the federation ledger on the
  /// driver thread at submit time so workers never touch shared state.
  /// Empty in the single-telescope configuration.
  std::vector<feed::SensorSighting> sightings;
  /// Record trace (sampled at detection); content-neutral metadata only.
  obs::TraceContext trace;
};

/// Everything the commit step needs, produced worker-side.
struct AnnotateResult {
  feed::CtiRecord record;
  ml::FeatureVector features;
  int training_label = -1;       // 1 / 0 feed the trainer; -1 = none.
  TimeMicros annotate_start = 0;  // max(probe done, sample ready).
  TimeMicros published = 0;
  bool ended = false;
  TimeMicros end_ts = 0;
  /// Propagated from the job by the stage (the annotator need not copy
  /// it); lets the commit callback hand the context to feed publish.
  obs::TraceContext trace;
};

struct AnnotateStageConfig {
  /// Worker threads; <= 1 runs annotate + commit inline on the caller.
  int num_workers = 1;
  /// Capacity of the job queue, in records (back-pressure on submit).
  std::size_t queue_capacity = 256;
};

class AnnotateStage {
 public:
  /// Pure per-record computation; runs on worker threads, so it must only
  /// read state that is frozen between drain() barriers.
  using Annotator = std::function<AnnotateResult(const AnnotateJob&)>;
  /// Side-effecting publication; runs on the committer thread, strictly in
  /// submit order, never concurrently with itself.
  using CommitFn = std::function<void(AnnotateResult&)>;
  /// Applies an END_FLOW for an already-published record; same committer
  /// thread, same ordering guarantee. Args: (src, scan_end, processed_at).
  using MarkEndedFn = std::function<void(Ipv4, TimeMicros, TimeMicros)>;

  AnnotateStage(AnnotateStageConfig config, Annotator annotator,
                CommitFn commit, MarkEndedFn mark_ended,
                obs::MetricsRegistry* metrics = nullptr,
                obs::Tracer* tracer = nullptr,
                obs::Watchdog* watchdog = nullptr);
  ~AnnotateStage();

  AnnotateStage(const AnnotateStage&) = delete;
  AnnotateStage& operator=(const AnnotateStage&) = delete;

  /// Enqueues a record for annotation. Blocks when the job queue is full
  /// (back-pressure). Serial mode annotates and commits before returning.
  void submit(AnnotateJob job);

  /// Sequences an END_FLOW for a record that already left the pipeline:
  /// the op enters the reorder window born-ready, so it commits after
  /// every earlier submission and before every later one.
  void submit_mark_ended(Ipv4 src, TimeMicros scan_end, TimeMicros at);

  /// Blocks until every submitted op has committed. The barrier the
  /// driver needs before retraining / feed expiry / reading the feed.
  void drain();

  /// Stops the stage: closes the queue, lets workers finish the backlog,
  /// commits everything, joins all threads. Idempotent; the destructor
  /// calls it. Submissions after shutdown run inline (serial fallback).
  void shutdown();

  bool parallel() const { return workers_.size() > 0; }
  std::uint64_t submitted() const;
  std::uint64_t committed() const;
  /// Lock-free mirror of committed(): the sequence number of the last op
  /// whose side effects are visible in the feed. Advances exactly when a
  /// commit lands, so it is the validity key for API response caching —
  /// readable from any thread without touching the stage lock.
  std::uint64_t commit_sequence() const {
    return commit_seq_.load(std::memory_order_acquire);
  }
  /// Wall-clock micros the committer waited on an unready window head
  /// while later results sat ready (out-of-order completion cost).
  std::uint64_t reorder_stall_micros() const;

 private:
  struct Op {
    enum class Kind { kRecord, kMarkEnded };
    Kind kind = Kind::kRecord;
    bool ready = false;
    AnnotateResult result;  // kRecord, once ready.
    Ipv4 src;               // kMarkEnded.
    TimeMicros scan_end = 0;
    TimeMicros at = 0;
    /// steady_micros() when the result turned ready in the window; the
    /// gap to commit start is the kCommit span's queue-wait (reorder +
    /// committer backlog time).
    std::uint64_t ready_micros = 0;
  };
  struct SeqJob {
    std::uint64_t seq = 0;
    AnnotateJob job;
  };

  void worker_loop(std::size_t index);
  void committer_loop();
  /// Applies one committed op (outside the stage lock).
  void apply(Op& op);
  /// True when the oldest pending op can commit. Window keys are dense —
  /// every sequence gets a slot at submit time — so the head of the map
  /// is always the next op to commit.
  bool head_ready() const {
    return !window_.empty() && window_.begin()->second.ready;
  }

  AnnotateStageConfig config_;
  Annotator annotator_;
  CommitFn commit_;
  MarkEndedFn mark_ended_;
  obs::Tracer* tracer_ = nullptr;
  obs::Watchdog* watchdog_ = nullptr;

  BoundedBuffer<SeqJob> queue_;
  std::vector<std::thread> workers_;
  std::thread committer_;

  mutable std::mutex mutex_;
  std::condition_variable commit_cv_;  // Worker deposit / stop -> committer.
  std::condition_variable drain_cv_;   // Commit progress -> drain().
  std::map<std::uint64_t, Op> window_;  // Reorder buffer, keyed by seq.
  std::uint64_t submitted_ = 0;
  std::uint64_t committed_ = 0;
  /// Mirror of committed_ published after each commit's side effects; the
  /// API reads it without the stage lock (see commit_sequence()).
  std::atomic<std::uint64_t> commit_seq_{0};
  std::size_t ready_ = 0;  // Ready ops parked in the window.
  std::uint64_t stall_micros_ = 0;
  bool stop_ = false;
  bool stopped_ = false;

  obs::Gauge* workers_g_ = nullptr;
  obs::Gauge* inflight_g_ = nullptr;
  obs::Gauge* reorder_depth_g_ = nullptr;
  obs::Counter* records_c_ = nullptr;
  obs::Counter* out_of_order_c_ = nullptr;
  obs::Counter* stall_c_ = nullptr;
  std::vector<obs::Counter*> busy_c_;  // Per-worker busy micros.
};

}  // namespace exiot::pipeline
