// Tests for the parallel traffic producer (pipeline/producer.h): the
// packet-stream determinism guarantee at every producer count, the full
// producers x shards pipeline matrix, the consumer-gone shutdown path, and
// the batching/metrics accounting.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "feed/export.h"
#include "flow/detector.h"
#include "inet/population.h"
#include "obs/metrics.h"
#include "pipeline/exiot.h"
#include "pipeline/ingest.h"
#include "pipeline/producer.h"
#include "reference_merge.h"

namespace exiot::pipeline {
namespace {

inet::Population small_population(Cidr aperture) {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  auto world = inet::WorldModel::standard(aperture);
  return inet::Population::generate(config, world);
}

std::vector<net::Packet> producer_stream(const inet::Population& pop,
                                         Cidr aperture, int producers,
                                         TimeMicros t0, TimeMicros t1) {
  ProducerConfig config;
  config.num_producers = producers;
  config.batch_size = 256;  // Small: exercises many batch boundaries.
  config.queue_capacity = 2;
  ParallelProducer producer(pop, aperture, config);
  std::vector<net::Packet> out;
  const std::size_t count = producer.emit_batches(
      t0, t1, 100, [&out](const net::PacketBatch& batch) {
        EXPECT_LE(batch.size(), 100u);
        for (const net::Packet& pkt : batch.packets()) out.push_back(pkt);
      });
  EXPECT_EQ(count, out.size());
  return out;
}

// ------------------------------------------------- Stream determinism ----

TEST(ParallelProducerTest, PacketStreamIdenticalAtEveryProducerCount) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);

  // Reference: every host's stream drained on its own, then sorted by
  // (ts, host index).
  const std::vector<net::Packet> reference =
      oracle::reference_merge(pop, aperture, 0, hours(2));
  ASSERT_GT(reference.size(), 1000u);

  for (const int producers : {1, 2, 4}) {
    const auto stream =
        producer_stream(pop, aperture, producers, 0, hours(2));
    ASSERT_EQ(stream.size(), reference.size()) << producers << " producers";
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(stream[i], reference[i])
          << producers << " producers diverge at packet " << i;
    }
  }
}

TEST(ParallelProducerTest, WindowedEmitMatchesWholeRun) {
  // Emitting hour by hour (the pipeline's calling pattern, with stream
  // pruning between windows) must concatenate to the whole-run stream.
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  const auto whole = producer_stream(pop, aperture, 2, 0, hours(3));

  ProducerConfig config;
  config.num_producers = 2;
  ParallelProducer producer(pop, aperture, config);
  std::vector<net::Packet> windowed;
  for (int h = 0; h < 3; ++h) {
    producer.emit_batches(hours(h), hours(h + 1), 256,
                          [&windowed](const net::PacketBatch& batch) {
                            for (const net::Packet& p : batch.packets()) {
                              windowed.push_back(p);
                            }
                          });
  }
  ASSERT_EQ(windowed.size(), whole.size());
  for (std::size_t i = 0; i < windowed.size(); ++i) {
    ASSERT_EQ(windowed[i], whole[i]) << "diverges at packet " << i;
  }
}

// ------------------------------------------ Ingest event-log invariance ----

/// Runs a ParallelProducer into a ThreadedIngest and returns the textual
/// event log the detector sink saw.
std::string ingest_log_at(int producers, int shards) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);

  std::ostringstream log;
  flow::DetectorEvents sink;
  sink.on_scanner = [&log](const flow::FlowSummary& s) {
    log << "SCANNER " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_flow_end = [&log](const flow::FlowSummary& s) {
    log << "END " << s.src.to_string() << " " << s.total_packets << "\n";
  };
  sink.on_report = [&log](const flow::SecondReport& r) {
    log << "REPORT " << r.second_start / kMicrosPerSecond << " " << r.total
        << " " << r.new_scanners << "\n";
  };

  ProducerConfig producer_config;
  producer_config.num_producers = producers;
  ParallelProducer producer(pop, aperture, producer_config);

  IngestConfig config;
  config.num_shards = shards;
  config.buffer_capacity = 4;  // Small: exercises back-pressure.
  config.batch_size = 32;
  ThreadedIngest ingest(config, flow::DetectorConfig{}, std::move(sink),
                        {23, 80, 8080});
  ingest.run_hour_batched(
      [&producer](const ThreadedIngest::BatchFn& fn) {
        return producer.emit_batches(0, kMicrosPerHour, 100, fn);
      },
      kMicrosPerHour);
  ingest.finish();
  return log.str();
}

TEST(ParallelProducerTest, IngestEventLogInvariantAcrossMatrix) {
  const std::string reference = ingest_log_at(1, 1);
  EXPECT_NE(reference.find("SCANNER"), std::string::npos);
  EXPECT_EQ(reference, ingest_log_at(2, 1));
  EXPECT_EQ(reference, ingest_log_at(1, 4));
  EXPECT_EQ(reference, ingest_log_at(4, 4));
}

// ------------------------------------------- Full pipeline determinism ----

/// Headline counters the matrix compares, read from the pipeline registry.
const char* const kHeadlineCounters[] = {
    "exiot_detector_packets_processed_total",
    "exiot_detector_scanners_detected_total",
    "exiot_feed_records_published_total",
    "exiot_pipeline_report_messages_total"};

/// Runs the full pipeline at a (producers, shards) point and returns the
/// exported feed plus the headline counters, in kHeadlineCounters order.
std::string feed_jsonl_at(int producers, int shards,
                          std::vector<std::uint64_t>* counters_out) {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_producer_threads = producers;
  pipe_config.num_detector_shards = shards;
  pipe_config.buffer_capacity = 8;
  pipe_config.ingest_batch_size = 64;
  pipe_config.producer_batch_size = 128;
  pipe_config.producer_queue_capacity = 2;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();
  for (const char* name : kHeadlineCounters) {
    counters_out->push_back(pipe.metrics().counter_value(name));
  }
  std::ostringstream out;
  feed::export_jsonl(pipe.feed(), out);
  return out.str();
}

TEST(ParallelProducerTest, FeedInvariantAcrossProducerShardMatrix) {
  std::vector<std::uint64_t> base_counters;
  const std::string base = feed_jsonl_at(1, 1, &base_counters);
  EXPECT_GT(base_counters[2], 0u);  // Records published.
  for (const auto& [producers, shards] :
       std::vector<std::pair<int, int>>{{2, 1}, {1, 4}, {4, 4}}) {
    std::vector<std::uint64_t> counters;
    const std::string feed = feed_jsonl_at(producers, shards, &counters);
    EXPECT_EQ(base, feed) << producers << "x" << shards;
    EXPECT_EQ(base_counters, counters) << producers << "x" << shards;
  }
}

// --------------------------------------------------------- Shutdown ----

TEST(ParallelProducerTest, StopsCleanlyWhileProducersAreBlocked) {
  // A consumer that gives up after a prefix, with producers=4 and tiny
  // queues so the workers are parked on blocked pushes when its exception
  // unwinds emit_batches: destroying the producer must close the queues,
  // unwind the workers and join them without deadlock.
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  ProducerConfig config;
  config.num_producers = 4;
  config.batch_size = 64;
  config.queue_capacity = 1;
  std::size_t seen = 0;
  {
    ParallelProducer producer(pop, aperture, config);
    EXPECT_THROW(producer.emit_batches(
                     0, kMicrosPerDay, 50,
                     [&seen](const net::PacketBatch& batch) {
                       seen += batch.size();
                       if (seen >= 500) {
                         throw std::runtime_error("consumer gone");
                       }
                     }),
                 std::runtime_error);
    // The destructor runs here with mid-window workers — must not hang.
  }
  EXPECT_EQ(seen, 500u);
}

// ------------------------------------------------ Batching + metrics ----

TEST(ParallelProducerTest, BatchAndPacketAccounting) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  obs::MetricsRegistry registry;
  ProducerConfig config;
  config.num_producers = 3;
  config.batch_size = 128;
  ParallelProducer producer(pop, aperture, config, &registry);
  std::size_t delivered = 0;
  producer.emit_batches(0, kMicrosPerHour, 256,
                        [&delivered](const net::PacketBatch& batch) {
                          delivered += batch.size();
                        });
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(registry.counter_value("exiot_producer_packets_total"),
            delivered);
  // Batches were actually bounded: at least packets/batch_size of them.
  EXPECT_GE(registry.counter_value("exiot_producer_batches_total"),
            delivered / config.batch_size);
}

TEST(ParallelProducerTest, PrunesExhaustedStreamsAcrossWindows) {
  const Cidr aperture(Ipv4(44, 0, 0, 0), 8);
  auto pop = small_population(aperture);
  ProducerConfig config;
  config.num_producers = 2;
  obs::MetricsRegistry registry;
  ParallelProducer producer(pop, aperture, config, &registry);
  const std::size_t live_start = producer.live_streams();
  ASSERT_GT(live_start, 0u);
  // By late in the day most sessions have ended; pruned streams must
  // leave the live lists and stop being rescanned at window entry.
  for (int h = 0; h < 24; ++h) {
    producer.emit_batches(hours(h), hours(h + 1), 1024,
                          [](const net::PacketBatch&) {});
  }
  const std::uint64_t pruned =
      registry.counter_value("exiot_synth_streams_pruned_total");
  EXPECT_GT(pruned, 0u);
  EXPECT_LT(producer.live_streams(), live_start);
  EXPECT_GT(registry.counter_value(
                "exiot_synth_dead_stream_scans_avoided_total"),
            0u);
  EXPECT_EQ(producer.live_streams() + pruned, live_start);
}

}  // namespace
}  // namespace exiot::pipeline
