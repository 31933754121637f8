#include "pipeline/ingest.h"

#include <algorithm>
#include <exception>
#include <map>
#include <thread>

namespace exiot::pipeline {

ThreadedIngest::ThreadedIngest(IngestConfig config,
                               flow::DetectorConfig detector_config,
                               flow::DetectorEvents sink,
                               std::vector<std::uint16_t> report_ports,
                               obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer,
                               obs::Watchdog* watchdog)
    : config_(config),
      sink_(std::move(sink)),
      tracer_(tracer),
      watchdog_(watchdog) {
  config_.num_shards = std::max(1, config_.num_shards);
  config_.buffer_capacity = std::max<std::size_t>(1, config_.buffer_capacity);
  config_.batch_size = std::max<std::size_t>(1, config_.batch_size);

  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  packets_c_ = &reg.counter("exiot_ingest_packets_total",
                            "Packets routed through the capture->detect "
                            "stage.");
  batches_c_ = &reg.counter("exiot_ingest_batches_total",
                            "Packet batches pushed into the capture "
                            "buffers.");
  events_c_ = &reg.counter("exiot_ingest_events_replayed_total",
                           "Detector events replayed into the downstream "
                           "at the hour barrier.");
  shards_g_ = &reg.gauge("exiot_ingest_shards",
                         "Detector shards consuming the capture buffers.");
  shards_g_->set(static_cast<double>(config_.num_shards));

  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    Shard* sp = shard.get();
    flow::DetectorEvents events;
    events.on_scanner = [this, sp](const flow::FlowSummary& summary) {
      Event e;
      e.seq = sp->current_seq;
      e.kind = EventKind::kScanner;
      e.src = summary.src;
      e.summary = summary;
      sp->events.push_back(std::move(e));
      if (tracer_ != nullptr && tracer_->enabled()) {
        // Root of the record trace: keyed by (src, detect_time), the same
        // identity exiot.cpp re-derives downstream — no context needs to
        // flow through the detector.
        const obs::TraceContext ctx =
            tracer_->maybe_trace(obs::Tracer::record_key(
                summary.src.value(), summary.detect_time));
        if (ctx.sampled()) {
          const std::uint64_t now = obs::steady_micros();
          const std::uint64_t pop = sp->batch_pop_micros;
          tracer_->record(ctx, obs::SpanStage::kDetect,
                          pop != 0 ? pop : now,
                          pop != 0 && now > pop ? now - pop : 0,
                          sp->batch_wait_micros, summary.src.value(),
                          sp->current_seq);
        }
      }
    };
    events.on_sample = [sp](Ipv4 src, const std::vector<net::Packet>& pkts) {
      Event e;
      e.seq = sp->current_seq;
      e.kind = EventKind::kSample;
      e.src = src;
      e.sample = pkts;
      sp->events.push_back(std::move(e));
    };
    events.on_flow_end = [sp](const flow::FlowSummary& summary) {
      Event e;
      e.seq = sp->current_seq;
      e.kind = EventKind::kFlowEnd;
      e.src = summary.src;
      e.summary = summary;
      sp->events.push_back(std::move(e));
    };
    events.on_report = [sp](const flow::SecondReport& report) {
      sp->reports.push_back(report);
    };
    shard->detector = std::make_unique<flow::FlowDetector>(
        detector_config, std::move(events), report_ports);
    if (config_.num_shards > 1) {
      shard->buffer =
          std::make_unique<BoundedBuffer<Batch>>(config_.buffer_capacity);
      shard->buffer->instrument(
          reg, obs::Labels{{"buffer", "capture"},
                           {"shard", std::to_string(s)}});
    }
    shards_.push_back(std::move(shard));
  }
}

ThreadedIngest::~ThreadedIngest() = default;

std::size_t ThreadedIngest::shard_of(Ipv4 src) const {
  // Fibonacci-hash the address so structured populations still spread
  // evenly; any deterministic function works for correctness (all state is
  // per-source), this one just balances the shards.
  const std::uint64_t mixed = src.value() * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(
      (mixed >> 32) % static_cast<std::uint64_t>(config_.num_shards));
}

void ThreadedIngest::consume_shard(std::size_t s, bool tracing_on) {
  Shard* sp = shards_[s].get();
  auto heartbeat = obs::Watchdog::attach(
      watchdog_, "ingest:" + std::to_string(s));
  try {
    while (true) {
      heartbeat.idle();  // Blocked on an empty buffer is not a stall.
      auto batch = sp->buffer->pop();
      heartbeat.busy();
      if (!batch.has_value()) break;
      if (tracing_on) {
        // Stamp every batch, not just sampled ones: the kDetect spans
        // rooted inside detector->process() need the pop time and the
        // enqueue->dequeue gap of whatever batch they fire from.
        sp->batch_pop_micros = obs::steady_micros();
        const std::uint64_t handoff = batch->trace.handoff_micros;
        sp->batch_wait_micros =
            handoff != 0 && sp->batch_pop_micros > handoff
                ? sp->batch_pop_micros - handoff
                : 0;
      }
      for (std::size_t i = 0; i < batch->pkts.size(); ++i) {
        sp->current_seq = batch->seqs[i];
        sp->detector->process(batch->pkts[i]);
      }
      if (batch->trace.sampled()) {
        const std::uint64_t now = obs::steady_micros();
        tracer_->record(batch->trace, obs::SpanStage::kIngest,
                        sp->batch_pop_micros,
                        now - sp->batch_pop_micros,
                        sp->batch_wait_micros, 0, batch->seq);
      }
      heartbeat.beat();
    }
  } catch (...) {
    // Rethrown on the calling thread after the join. Closing the buffer
    // makes further pushes to this shard fail instead of blocking on a
    // consumer that is gone; what is still queued is dropped.
    sp->error = std::current_exception();
    sp->buffer->close();
    while (sp->buffer->try_pop().has_value()) {
    }
  }
  sp->batch_pop_micros = 0;
  sp->batch_wait_micros = 0;
  heartbeat.retire();
}

void ThreadedIngest::push_to_shard(std::size_t s, Batch&& batch,
                                   bool tracing) {
  Shard& shard = *shards_[s];
  batch.seq = ++shard.batch_seq;
  if (tracing) {
    batch.trace = tracer_->maybe_trace(obs::Tracer::record_key(
        static_cast<std::uint32_t>(s),
        static_cast<std::int64_t>(batch.seq)));
    // Stamped even when unsampled: detect spans rooted inside this
    // batch still want its queue-wait attribution.
    batch.trace.handoff_micros = obs::steady_micros();
  }
  (void)shard.buffer->push(std::move(batch));
  batches_c_->inc();
}

std::size_t ThreadedIngest::run_single_batched(const BatchSource& source) {
  Shard& shard = *shards_[0];
  return source([this, &shard](const net::PacketBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      shard.current_seq = seq_++;
      shard.detector->process(batch[i]);
    }
  });
}

std::size_t ThreadedIngest::run_threaded_batched(const BatchSource& source) {
  const std::size_t n = shards_.size();
  for (auto& shard : shards_) shard->buffer->reopen();

  // Closes the buffers and joins the consumers on every exit path, a
  // throwing source included: destroying a joinable std::thread would end
  // the process.
  struct Consumers {
    std::vector<std::unique_ptr<Shard>>& shards;
    std::vector<std::thread> threads;
    void join() {
      for (auto& shard : shards) shard->buffer->close();
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
    ~Consumers() { join(); }
  } consumers{shards_, {}};
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  consumers.threads.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    consumers.threads.emplace_back(
        [this, s, tracing] { consume_shard(s, tracing); });
  }

  // Producer: scatter each source batch's rows into per-shard open
  // batches (rows keep their global arrival sequence in the parallel
  // `seqs` vector), flushing full ones into the blocking buffers.
  std::vector<Batch> open(n);
  for (auto& batch : open) {
    batch.pkts.reserve(config_.batch_size);
    batch.seqs.reserve(config_.batch_size);
  }
  std::size_t count = 0;
  std::exception_ptr error;
  try {
    count = source([this, &open, tracing](const net::PacketBatch& in) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::size_t s = shard_of(in[i].src);
        Batch& batch = open[s];
        batch.pkts.push_back(in[i]);
        batch.seqs.push_back(seq_++);
        if (batch.pkts.size() >= config_.batch_size) {
          push_to_shard(s, std::move(batch), tracing);
          batch = Batch();
          batch.pkts.reserve(config_.batch_size);
          batch.seqs.reserve(config_.batch_size);
        }
      }
    });
  } catch (...) {
    error = std::current_exception();
  }
  // Rows delivered before a source error still reach their shards, as they
  // reach the one detector at one shard, so every shard count holds the
  // same detector state when the error surfaces.
  for (std::size_t s = 0; s < n; ++s) {
    if (!open[s].pkts.empty()) {
      push_to_shard(s, std::move(open[s]), tracing);
    }
  }
  consumers.join();
  for (auto& shard : shards_) {
    if (error == nullptr) error = shard->error;
    shard->error = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
  return count;
}

std::size_t ThreadedIngest::run_hour_batched(const BatchSource& source,
                                             TimeMicros hour_end) {
  const std::size_t count = config_.num_shards == 1
                                ? run_single_batched(source)
                                : run_threaded_batched(source);
  packets_c_->inc(count);
  // Hour barrier: the shards are quiescent now. Expiry events sort after
  // every packet of the hour (they all share seq_ == packets so far).
  for (auto& shard : shards_) {
    shard->current_seq = seq_;
    shard->detector->end_of_hour(hour_end);
  }
  drain();
  return count;
}

void ThreadedIngest::finish() {
  for (auto& shard : shards_) {
    shard->current_seq = seq_;
    shard->detector->finish();
  }
  drain();
}

void ThreadedIngest::drain() {
  // Per-second reports: each shard saw only its slice of the stream, so
  // same-second partial reports are summed before replay. Replaying in
  // ascending second order reproduces the single-detector report stream.
  std::map<TimeMicros, flow::SecondReport> merged;
  for (auto& shard : shards_) {
    for (flow::SecondReport& report : shard->reports) {
      auto [it, fresh] = merged.try_emplace(report.second_start);
      flow::SecondReport& into = it->second;
      if (fresh) {
        into = std::move(report);
      } else {
        into.total += report.total;
        into.tcp += report.tcp;
        into.udp += report.udp;
        into.icmp += report.icmp;
        into.backscatter_filtered += report.backscatter_filtered;
        into.new_scanners += report.new_scanners;
        for (const auto& [port, n] : report.per_port) {
          into.per_port[port] += n;
        }
      }
    }
    shard->reports.clear();
  }
  if (sink_.on_report) {
    for (auto& [second, report] : merged) sink_.on_report(report);
  }

  // Control events: merge all shards by (seq, src, kind) — the exact order
  // a single detector over the unsharded stream would have emitted them.
  std::vector<Event> events;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->events.size();
  events.reserve(total);
  for (auto& shard : shards_) {
    std::move(shard->events.begin(), shard->events.end(),
              std::back_inserter(events));
    shard->events.clear();
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              if (a.src.value() != b.src.value()) {
                return a.src.value() < b.src.value();
              }
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  for (Event& e : events) {
    switch (e.kind) {
      case EventKind::kScanner:
        if (sink_.on_scanner) sink_.on_scanner(e.summary);
        break;
      case EventKind::kSample:
        if (sink_.on_sample) sink_.on_sample(e.src, e.sample);
        break;
      case EventKind::kFlowEnd:
        if (sink_.on_flow_end) sink_.on_flow_end(e.summary);
        break;
    }
  }
  events_c_->inc(events.size());
}

flow::DetectorStats ThreadedIngest::stats() const {
  flow::DetectorStats sum;
  for (const auto& shard : shards_) {
    const flow::DetectorStats& s = shard->detector->stats();
    sum.packets_processed += s.packets_processed;
    sum.backscatter_filtered += s.backscatter_filtered;
    sum.scanners_detected += s.scanners_detected;
    sum.samples_completed += s.samples_completed;
    sum.flows_ended += s.flows_ended;
    sum.pending_resets += s.pending_resets;
  }
  return sum;
}

std::size_t ThreadedIngest::tracked_sources() const {
  std::size_t sum = 0;
  for (const auto& shard : shards_) sum += shard->detector->tracked_sources();
  return sum;
}

}  // namespace exiot::pipeline
