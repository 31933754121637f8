// Stage 0 of the pipeline, parallelized: the multi-threaded traffic
// producer. The telescope sustains ~1M pps into the mbuffer, and after the
// capture->detect stage was sharded (pipeline/ingest.h) the single-threaded
// synthesizer merge became the pipeline's serial bottleneck. This stage
// partitions the host streams round-robin across K producer threads; each
// thread runs the synthesizer's merge core (telescope::emit_window_rows,
// slice by slice, over the partition's own SliceMerge scratch) and fills
// fixed-size, time-bounded packet batches that it pushes into a
// per-producer BoundedBuffer. A merger on the calling thread performs a
// deterministic K-way merge over the producer queues by (ts, host_index) —
// the same total order the serial synthesizer emits — and re-batches the
// rows for the caller.
//
// Because every partition's stream is sorted by (ts, host_index) and host
// indices are disjoint across partitions, the head-of-queue merge
// reconstructs exactly the serial arrival order: the packet stream — and
// therefore the ingest event log and the exported feed — is byte-identical
// for any (producer_threads x detector_shards) combination.
//
// `num_producers == 1` short-circuits to a fully serial emit on the
// calling thread (no queues, no threads) with the same live list and slice
// merge, so the baseline configuration pays nothing for the machinery.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.h"
#include "inet/population.h"
#include "net/batch.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/watchdog.h"
#include "pipeline/buffer.h"
#include "telescope/synthesizer.h"

namespace exiot::pipeline {

struct ProducerConfig {
  /// Producer threads synthesizing traffic (1 = serial fallback on the
  /// calling thread). The emitted stream is byte-identical for any value.
  int num_producers = 1;
  /// Packets per batch pushed into a producer queue (the fixed-size bound).
  std::size_t batch_size = 1024;
  /// Maximum traffic time one batch may span (the time bound): a slow,
  /// sparse partition still surrenders its packets to the merger promptly
  /// instead of sitting on a half-filled batch for the whole window.
  TimeMicros batch_span = minutes(1);
  /// Capacity of each producer queue, in batches. A full queue
  /// back-pressures its producer thread (blocking push, no data loss).
  std::size_t queue_capacity = 8;
};

/// One producer thread's unit of hand-off to the K-way merge. The trace
/// context (sampled per batch, keyed by partition x batch ordinal) lets the
/// merge side attribute batch build time vs. queue-wait time.
struct ProducerBatch {
  net::PacketBatch pkts;
  /// Global host index per row — the deterministic tie-break the K-way
  /// merge orders equal timestamps by.
  std::vector<std::uint32_t> hosts;
  obs::TraceContext trace;
  std::uint64_t build_micros = 0;  // Wall time spent filling the batch.
  std::uint64_t seq = 0;           // Per-partition batch ordinal.
};

class ParallelProducer {
 public:
  ParallelProducer(const inet::Population& pop, Cidr aperture,
                   ProducerConfig config = {},
                   obs::MetricsRegistry* metrics = nullptr,
                   obs::Tracer* tracer = nullptr,
                   obs::Watchdog* watchdog = nullptr);
  ~ParallelProducer();

  ParallelProducer(const ParallelProducer&) = delete;
  ParallelProducer& operator=(const ParallelProducer&) = delete;

  /// Emits every packet with ts in [t0, t1) in the canonical
  /// (ts, host_index) arrival order, delivered as batches of
  /// `batch_size` rows via `fn(const net::PacketBatch&)` (void return; the
  /// batch is borrowed only for the call). The serial fallback runs the
  /// merge core on the calling thread; with K > 1 producers the K-way merge
  /// output is re-batched on the calling thread. Returns the number of packets
  /// delivered. If `fn` throws, the window is abandoned mid-merge: destroy
  /// the producer (its destructor closes the queues, which unblocks the
  /// workers, and joins them).
  template <typename BatchFn>
  std::size_t emit_batches(TimeMicros t0, TimeMicros t1,
                           std::size_t batch_size, BatchFn&& fn) {
    if (partitions_.size() == 1) {
      Partition& part = *partitions_[0];
      dead_scans_c_->inc(part.streams.size() - part.live.size());
      const std::size_t pruned_before = part.pruned;
      batch_.reserve(batch_size);
      const std::size_t count = telescope::emit_window_batch(
          part.streams, part.hosts.data(), part.live, t0, t1, part.pruned,
          batch_size, part.merge, batch_, fn);
      pruned_c_->inc(part.pruned - pruned_before);
      packets_c_->inc(count);
      return count;
    }
    return emit_threaded(t0, t1, batch_size, fn);
  }

  /// Host streams still able to produce packets.
  std::size_t live_streams() const;

 private:
  /// One producer thread's share of the host streams. During a threaded
  /// window, `streams`/`live`/`merge`/`pruned` are
  /// touched only by the partition's worker thread; between windows only
  /// the calling thread reads them (the worker is joined).
  struct Partition {
    std::vector<telescope::HostStream> streams;
    std::vector<std::uint32_t> hosts;  // Local slot -> global host index.
    std::vector<std::uint32_t> live;   // Local slots, compacted.
    telescope::SliceMerge merge;       // Merge scratch, reused per window.
    std::unique_ptr<BoundedBuffer<ProducerBatch>> queue;  // K > 1 only.
    std::size_t pruned = 0;
    std::uint64_t batch_seq = 0;  // Ordinal keying batch trace sampling.
  };

  template <typename BatchFn>
  std::size_t emit_threaded(TimeMicros t0, TimeMicros t1,
                            std::size_t batch_size, BatchFn& fn) {
    start_window(t0, t1);
    // The K-way merge: advance the cursor holding the smallest
    // (ts, host) head; refill a drained cursor from its queue (blocking
    // until the producer pushes or closes).
    std::vector<Cursor> cursors(partitions_.size());
    batch_.reserve(batch_size);
    batch_.clear();
    std::size_t count = 0;
    while (true) {
      int best = -1;
      for (std::size_t p = 0; p < cursors.size(); ++p) {
        Cursor& cur = cursors[p];
        if (cur.done) continue;
        if (cur.pos >= cur.batch.pkts.size() && !refill(p, cur)) continue;
        if (best < 0 || heads_before(cur, cursors[static_cast<std::size_t>(
                                              best)])) {
          best = static_cast<int>(p);
        }
      }
      if (best < 0) break;
      Cursor& winner = cursors[static_cast<std::size_t>(best)];
      batch_.push_back(winner.batch.pkts[winner.pos++]);
      ++count;
      if (batch_.size() >= batch_size) {
        fn(static_cast<const net::PacketBatch&>(batch_));
        batch_.clear();
      }
    }
    if (!batch_.empty()) {
      fn(static_cast<const net::PacketBatch&>(batch_));
      batch_.clear();
    }
    join_workers();
    packets_c_->inc(count);
    return count;
  }

  struct Cursor {
    ProducerBatch batch;
    std::size_t pos = 0;
    bool done = false;
  };

  static bool heads_before(const Cursor& a, const Cursor& b) {
    const TimeMicros x = a.batch.pkts[a.pos].ts;
    const TimeMicros y = b.batch.pkts[b.pos].ts;
    if (x != y) return x < y;
    return a.batch.hosts[a.pos] < b.batch.hosts[b.pos];
  }

  /// Reopens the queues and launches one worker per partition for the
  /// window [t0, t1).
  void start_window(TimeMicros t0, TimeMicros t1);
  /// Worker body: the merge core over the partition, batched emission.
  void produce(std::size_t p, Partition& part, TimeMicros t0,
               TimeMicros t1);
  /// Blocking refill of a drained cursor; false once the queue is closed
  /// and fully drained (marks the cursor done).
  bool refill(std::size_t p, Cursor& cursor);
  void close_queues();
  void join_workers();

  ProducerConfig config_;
  obs::Tracer* tracer_;
  obs::Watchdog* watchdog_;
  net::PacketBatch batch_;  // emit_batches scratch, reused across windows.
  std::vector<std::unique_ptr<Partition>> partitions_;
  std::vector<std::thread> workers_;
  obs::Counter* packets_c_;
  obs::Counter* batches_c_;
  obs::Counter* pruned_c_;
  obs::Counter* dead_scans_c_;
  obs::Gauge* producers_g_;
  obs::Histogram* batch_h_;
};

}  // namespace exiot::pipeline
