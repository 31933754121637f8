#include "pipeline/producer.h"

#include <algorithm>

namespace exiot::pipeline {

ParallelProducer::ParallelProducer(const inet::Population& pop,
                                   Cidr aperture, ProducerConfig config,
                                   obs::MetricsRegistry* metrics,
                                   obs::Tracer* tracer,
                                   obs::Watchdog* watchdog)
    : config_(config), tracer_(tracer), watchdog_(watchdog) {
  config_.num_producers = std::max(1, config_.num_producers);
  config_.batch_size = std::max<std::size_t>(1, config_.batch_size);
  config_.batch_span = std::max<TimeMicros>(1, config_.batch_span);
  config_.queue_capacity = std::max<std::size_t>(1, config_.queue_capacity);
  // No point spinning up more producers than there are host streams.
  const auto n_hosts = pop.hosts().size();
  if (n_hosts > 0) {
    config_.num_producers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config_.num_producers), n_hosts));
  }

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  packets_c_ = &reg.counter("exiot_producer_packets_total",
                            "Packets emitted by the traffic producer "
                            "stage (after the deterministic merge).");
  batches_c_ = &reg.counter("exiot_producer_batches_total",
                            "Packet batches pushed into the producer "
                            "queues.");
  pruned_c_ = &reg.counter("exiot_synth_streams_pruned_total",
                           "Exhausted host streams removed from the live "
                           "emit lists.");
  dead_scans_c_ = &reg.counter(
      "exiot_synth_dead_stream_scans_avoided_total",
      "Window-entry scans of exhausted streams skipped thanks to the "
      "compacted live lists.");
  producers_g_ = &reg.gauge("exiot_producer_threads",
                            "Producer threads synthesizing telescope "
                            "traffic.");
  producers_g_->set(static_cast<double>(config_.num_producers));
  batch_h_ = &reg.histogram("exiot_producer_batch_packets",
                            "Packets per batch pushed into the producer "
                            "queues.",
                            obs::size_buckets());

  const auto k = static_cast<std::size_t>(config_.num_producers);
  partitions_.reserve(k);
  for (std::size_t p = 0; p < k; ++p) {
    auto part = std::make_unique<Partition>();
    if (k > 1) {
      part->queue =
          std::make_unique<BoundedBuffer<ProducerBatch>>(
              config_.queue_capacity);
      part->queue->instrument(
          reg, obs::Labels{{"buffer", "producer"},
                           {"producer", std::to_string(p)}});
    }
    partitions_.push_back(std::move(part));
  }
  // Round-robin partition: host i -> producer i % K. Any disjoint
  // partition is correct (the merge keys on the global host index carried
  // per packet); round-robin just balances heavy and light hosts.
  for (std::size_t i = 0; i < n_hosts; ++i) {
    Partition& part = *partitions_[i % k];
    part.live.push_back(static_cast<std::uint32_t>(part.streams.size()));
    part.hosts.push_back(static_cast<std::uint32_t>(i));
    part.streams.emplace_back(pop, pop.hosts()[i], aperture);
  }
}

ParallelProducer::~ParallelProducer() {
  close_queues();
  join_workers();
}

void ParallelProducer::start_window(TimeMicros t0, TimeMicros t1) {
  workers_.reserve(partitions_.size());
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    Partition* part = partitions_[p].get();
    part->queue->reopen();
    workers_.emplace_back(
        [this, p, part, t0, t1] { produce(p, *part, t0, t1); });
  }
}

void ParallelProducer::produce(std::size_t p, Partition& part,
                               TimeMicros t0, TimeMicros t1) {
  auto heartbeat = obs::Watchdog::attach(
      watchdog_, "producer:" + std::to_string(p));
  dead_scans_c_->inc(part.streams.size() - part.live.size());
  const std::size_t pruned_before = part.pruned;

  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  ProducerBatch batch;
  batch.pkts.reserve(config_.batch_size);
  batch.hosts.reserve(config_.batch_size);
  std::uint64_t build_start = 0;
  // Hands the batch to the merge; false when the queue was closed under
  // us (merger shutdown), which stops the window.
  auto flush = [this, p, &part, &batch, &build_start, &heartbeat,
                tracing]() {
    batch_h_->observe(static_cast<double>(batch.pkts.size()));
    batch.seq = ++part.batch_seq;
    if (tracing) {
      // Keyed by (partition, batch ordinal): batch boundaries depend only
      // on the partition's own deterministic stream, so the sampled set is
      // stable run to run.
      batch.trace = tracer_->maybe_trace(obs::Tracer::record_key(
          static_cast<std::uint32_t>(p), static_cast<std::int64_t>(
              batch.seq)));
      if (batch.trace.sampled()) {
        const std::uint64_t now = obs::steady_micros();
        batch.build_micros = now - build_start;
        batch.trace.handoff_micros = now;
      }
    }
    build_start = 0;
    // A full queue back-pressures here: waiting on the merge is idle time,
    // not a stall.
    heartbeat.idle();
    const bool pushed = part.queue->push(std::move(batch));
    heartbeat.busy();
    if (!pushed) return false;
    batches_c_->inc();
    batch = ProducerBatch();
    batch.pkts.reserve(config_.batch_size);
    batch.hosts.reserve(config_.batch_size);
    return true;
  };
  // The merge core appends rows to `batch.pkts`; flush() resets `batch`
  // in place, so that reference stays valid across hand-offs.
  telescope::emit_window_rows(
      part.streams, part.hosts.data(), part.live, t0, t1, part.pruned,
      part.merge, batch.pkts,
      [this, &batch, &build_start, &flush, tracing](std::uint32_t host) {
        batch.hosts.push_back(host);
        const std::size_t n = batch.pkts.size();
        if (n == 1 && tracing) build_start = obs::steady_micros();
        if (n >= config_.batch_size ||
            batch.pkts[n - 1].ts - batch.pkts[0].ts >= config_.batch_span) {
          return flush();
        }
        return true;
      });
  if (!batch.pkts.empty()) (void)flush();
  pruned_c_->inc(part.pruned - pruned_before);
  part.queue->close();
  heartbeat.retire();
}

bool ParallelProducer::refill(std::size_t p, Cursor& cursor) {
  while (true) {
    auto batch = partitions_[p]->queue->pop();
    if (!batch.has_value()) {
      cursor.done = true;
      return false;
    }
    if (batch->pkts.empty()) continue;
    if (batch->trace.sampled()) {
      // The produce span closes when the merge picks the batch up: build
      // time is processing, the enqueue->dequeue gap is queue wait.
      const std::uint64_t now = obs::steady_micros();
      const std::uint64_t handoff = batch->trace.handoff_micros;
      tracer_->record(batch->trace, obs::SpanStage::kProduce,
                      handoff - batch->build_micros, batch->build_micros,
                      now > handoff ? now - handoff : 0, 0, batch->seq);
    }
    cursor.batch = std::move(*batch);
    cursor.pos = 0;
    return true;
  }
}

void ParallelProducer::close_queues() {
  for (auto& part : partitions_) {
    if (part->queue != nullptr) part->queue->close();
  }
}

void ParallelProducer::join_workers() {
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

std::size_t ParallelProducer::live_streams() const {
  std::size_t sum = 0;
  for (const auto& part : partitions_) sum += part->live.size();
  return sum;
}

}  // namespace exiot::pipeline
