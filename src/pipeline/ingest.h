// The threaded capture→detect stage. The paper decouples the 1M pps
// telescope capture from downstream modules with a 15 GB mbuffer; this
// stage reproduces that architecture: a producer (the traffic synthesizer
// or a trace decoder, standing in for the capture card) emits the hour's
// time-ordered packet stream as packet batches (net/batch.h), whose rows
// are sharded by source IP into per-shard blocking BoundedBuffers and
// consumed by N FlowDetector shards on their own threads. There is one run
// mode, run_hour_batched; each shard feeds its rows one at a time to
// FlowDetector::process, the detector's only entry point.
//
// Sharding by source is what makes the detectors lock-free: all TRW /
// flow-table state is keyed by source IP, and every packet of a source
// lands in the same shard, in arrival order. The shared per-second report
// and the control events (SCANNER / SAMPLE / END_FLOW) are the only
// cross-shard outputs, and both are funneled back to the single-threaded
// downstream at the hour barrier:
//
//   - control events carry the global arrival sequence number of the
//     packet that triggered them; the barrier merges all shards' queues by
//     (seq, src, kind) — exactly the order a single detector would have
//     emitted them, so the feed output is byte-identical for any shard
//     count (virtual-time determinism);
//   - per-shard partial SecondReports are summed by second (their flat
//     per-port counts port by port) and replayed in ascending second
//     order, reproducing the global report stream.
//
// `num_shards == 1` falls back to a fully single-threaded path (no
// buffers, no threads, no scatter: source batches go straight to the one
// detector) with the same deferred-event semantics. At any shard count an
// exception from the source surfaces in the caller after the consumer
// threads are joined, with the same rows detected as at one shard.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "flow/detector.h"
#include "net/batch.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/buffer.h"

namespace exiot::pipeline {

struct IngestConfig {
  /// FlowDetector shards consuming the capture buffers (1 = single-
  /// threaded fallback on the calling thread).
  int num_shards = 1;
  /// Capacity of each shard's capture buffer, in packet batches. The
  /// paper's 15 GB mbuffer scaled to batches: capacity * batch_size
  /// packets of slack before back-pressure reaches the producer.
  std::size_t buffer_capacity = 64;
  /// Packets per batch pushed into a shard buffer (amortizes locking).
  std::size_t batch_size = 512;
};

class ThreadedIngest {
 public:
  using BatchFn = std::function<void(const net::PacketBatch&)>;
  /// A batched packet source: invokes the callback once per batch
  /// (rows in non-decreasing timestamp order across calls), returning the
  /// total number of packets emitted. The callback borrows the batch only
  /// for the duration of the call.
  using BatchSource = std::function<std::size_t(const BatchFn&)>;

  /// `sink` receives the merged detector events; its callbacks run on the
  /// thread calling run_hour_batched()/finish(), never concurrently.
  ThreadedIngest(IngestConfig config, flow::DetectorConfig detector_config,
                 flow::DetectorEvents sink,
                 std::vector<std::uint16_t> report_ports = {},
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::Tracer* tracer = nullptr,
                 obs::Watchdog* watchdog = nullptr);
  ~ThreadedIngest();

  ThreadedIngest(const ThreadedIngest&) = delete;
  ThreadedIngest& operator=(const ThreadedIngest&) = delete;

  /// Runs one capture hour: streams `source` through the shards in
  /// batches (one std::function call per batch, one detector call per
  /// row), runs the expiry sweep at `hour_end`, and replays all detector
  /// events into the sink before returning. Returns the number of packets
  /// processed. An exception from `source` (or from a shard's consumer
  /// thread) reaches the caller after every consumer has been joined; the
  /// rows delivered before it stay detected, the barrier does not run, and
  /// the stage can run its next hour.
  std::size_t run_hour_batched(const BatchSource& source,
                               TimeMicros hour_end);

  /// End of deployment: flushes every shard (END_FLOW for all detected
  /// flows, final partial reports) and replays the events into the sink.
  void finish();

  /// Detector counters summed across shards.
  flow::DetectorStats stats() const;
  std::size_t tracked_sources() const;

 private:
  /// One capture-buffer hand-off. The trace context (sampled per batch,
  /// keyed by shard x batch ordinal) times the enqueue->dequeue gap the
  /// batch spent waiting for its detector shard.
  struct Batch {
    net::PacketBatch pkts;
    /// Global arrival sequence number per row.
    std::vector<std::uint64_t> seqs;
    obs::TraceContext trace;
    std::uint64_t seq = 0;  // Per-shard batch ordinal.
  };

  /// Replay ranks: a packet triggers at most one scanner event, and at a
  /// barrier a source emits its (incomplete) sample before its END_FLOW.
  enum class EventKind { kScanner = 0, kSample = 1, kFlowEnd = 2 };

  struct Event {
    std::uint64_t seq = 0;
    EventKind kind = EventKind::kScanner;
    Ipv4 src;
    flow::FlowSummary summary;        // kScanner / kFlowEnd.
    std::vector<net::Packet> sample;  // kSample.
  };

  /// One detector shard. During an hour, `events`/`reports`/`current_seq`
  /// are written only by the shard's consumer thread (or the calling
  /// thread in the single-shard fallback); the barrier reads them after
  /// join(), so no locking is needed.
  struct Shard {
    std::unique_ptr<flow::FlowDetector> detector;
    std::unique_ptr<BoundedBuffer<Batch>> buffer;  // num_shards > 1 only.
    std::vector<Event> events;
    std::vector<flow::SecondReport> reports;
    /// Global arrival sequence of the row being detected, set before each
    /// detector->process() call; the event callbacks stamp it.
    std::uint64_t current_seq = 0;
    std::uint64_t batch_seq = 0;  // Producer-side batch ordinal.
    /// Timing of the batch currently being processed, written by the
    /// shard's consumer thread before the batch's detector->process()
    /// calls and read by the detection callbacks on that same thread
    /// (kDetect span roots). Zeroed at barriers (calling thread, consumers
    /// joined).
    std::uint64_t batch_pop_micros = 0;
    std::uint64_t batch_wait_micros = 0;
    /// What the shard's consumer thread threw, if anything; read and
    /// cleared by the calling thread after the join.
    std::exception_ptr error;
  };

  std::size_t shard_of(Ipv4 src) const;
  std::size_t run_single_batched(const BatchSource& source);
  std::size_t run_threaded_batched(const BatchSource& source);
  /// Consumer-side loop of run_threaded_batched's shard threads.
  void consume_shard(std::size_t s, bool tracing_on);
  /// Stamps trace context / batch ordinal and pushes into a shard buffer.
  void push_to_shard(std::size_t s, Batch&& batch, bool tracing);
  /// Merges and replays all shards' queued events/reports into the sink.
  void drain();

  IngestConfig config_;
  flow::DetectorEvents sink_;
  obs::Tracer* tracer_;
  obs::Watchdog* watchdog_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t seq_ = 0;
  obs::Counter* packets_c_;
  obs::Counter* batches_c_;
  obs::Counter* events_c_;
  obs::Gauge* shards_g_;
};

}  // namespace exiot::pipeline
