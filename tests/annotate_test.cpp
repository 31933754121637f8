// Tests for the parallel annotate/classify/publish stage: the reorder
// buffer's ordered-commit guarantee (unit level, with crafted completion
// delays), shutdown with records in flight, and the pipeline-level
// determinism matrix — feed export, email outbox, and API responses must
// be byte-identical for any annotate-workers x producers x shards
// combination.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "api/server.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/annotate.h"
#include "pipeline/exiot.h"

namespace exiot::pipeline {
namespace {

// ------------------------------------------------------ Reorder commit ----

/// A job tagged with `index`; `sleep_ms` shapes the completion order.
AnnotateJob tagged_job(int index, int sleep_ms) {
  AnnotateJob job;
  job.summary.src = Ipv4(10, 0, static_cast<std::uint8_t>(index >> 8),
                         static_cast<std::uint8_t>(index & 0xff));
  job.sample_ready_at = sleep_ms;
  return job;
}

/// Annotator that sleeps for the job's crafted delay, then echoes the tag.
AnnotateStage::Annotator delayed_annotator() {
  return [](const AnnotateJob& job) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(job.sample_ready_at));
    AnnotateResult result;
    result.record.src = job.summary.src;
    return result;
  };
}

struct CommitLog {
  std::vector<std::string> entries;  // "R <ip>" or "E <ip>".
  AnnotateStage::CommitFn commit() {
    return [this](AnnotateResult& result) {
      entries.push_back("R " + result.record.src.to_string());
    };
  }
  AnnotateStage::MarkEndedFn mark_ended() {
    return [this](Ipv4 src, TimeMicros, TimeMicros) {
      entries.push_back("E " + src.to_string());
    };
  }
};

TEST(AnnotateStageTest, CommitsInSubmitOrderDespiteOutOfOrderCompletion) {
  CommitLog log;
  AnnotateStage stage({.num_workers = 4, .queue_capacity = 32},
                      delayed_annotator(), log.commit(), log.mark_ended());
  ASSERT_TRUE(stage.parallel());
  // The first job is the slowest: every later job completes before it, so
  // all of them park in the reorder window until the head is ready.
  stage.submit(tagged_job(0, 60));
  for (int i = 1; i < 12; ++i) stage.submit(tagged_job(i, 0));
  stage.drain();
  ASSERT_EQ(log.entries.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
              "R " + tagged_job(i, 0).summary.src.to_string());
  }
  EXPECT_EQ(stage.submitted(), 12u);
  EXPECT_EQ(stage.committed(), 12u);
  // Head-of-line blocking was real: the committer recorded stall time.
  EXPECT_GT(stage.reorder_stall_micros(), 0u);
}

TEST(AnnotateStageTest, CommitSequenceMirrorsCommittedOnEveryPath) {
  // The lock-free commit_sequence mirror is what keys the API response
  // cache; it must advance exactly once per commit on both the serial
  // submit path and the parallel committer loop.
  CommitLog serial_log;
  AnnotateStage serial({.num_workers = 1, .queue_capacity = 4},
                       delayed_annotator(), serial_log.commit(),
                       serial_log.mark_ended());
  EXPECT_EQ(serial.commit_sequence(), 0u);
  serial.submit(tagged_job(1, 0));
  EXPECT_EQ(serial.commit_sequence(), 1u);
  serial.submit_mark_ended(Ipv4(192, 0, 2, 9), seconds(1), seconds(2));
  EXPECT_EQ(serial.commit_sequence(), 2u);
  serial.drain();
  EXPECT_EQ(serial.commit_sequence(), serial.committed());

  CommitLog parallel_log;
  AnnotateStage parallel({.num_workers = 4, .queue_capacity = 16},
                         delayed_annotator(), parallel_log.commit(),
                         parallel_log.mark_ended());
  for (int i = 0; i < 10; ++i) parallel.submit(tagged_job(i, 0));
  parallel.drain();
  EXPECT_EQ(parallel.commit_sequence(), 10u);
  EXPECT_EQ(parallel.commit_sequence(), parallel.committed());
}

TEST(AnnotateStageTest, MarkEndedSequencesWithRecords) {
  CommitLog log;
  AnnotateStage stage({.num_workers = 2, .queue_capacity = 8},
                      delayed_annotator(), log.commit(), log.mark_ended());
  // END_FLOW submitted between two records must commit between them, even
  // though it is born ready and the first record is still annotating.
  stage.submit(tagged_job(1, 40));
  stage.submit_mark_ended(Ipv4(192, 0, 2, 9), seconds(5), seconds(6));
  stage.submit(tagged_job(2, 0));
  stage.drain();
  ASSERT_EQ(log.entries.size(), 3u);
  EXPECT_EQ(log.entries[0], "R 10.0.0.1");
  EXPECT_EQ(log.entries[1], "E 192.0.2.9");
  EXPECT_EQ(log.entries[2], "R 10.0.0.2");
}

TEST(AnnotateStageTest, ShutdownCommitsRecordsInFlight) {
  // Stop with jobs queued and annotating: shutdown must drain the queue,
  // finish the window, and commit everything — no record is lost.
  CommitLog log;
  AnnotateStage stage({.num_workers = 4, .queue_capacity = 4},
                      delayed_annotator(), log.commit(), log.mark_ended());
  for (int i = 0; i < 24; ++i) stage.submit(tagged_job(i, i % 3));
  stage.shutdown();  // No drain() first.
  EXPECT_EQ(stage.committed(), 24u);
  ASSERT_EQ(log.entries.size(), 24u);
  for (int i = 0; i < 24; ++i) {
    EXPECT_EQ(log.entries[static_cast<std::size_t>(i)],
              "R " + tagged_job(i, 0).summary.src.to_string());
  }
  // Post-shutdown submissions fall back to the inline serial path.
  stage.submit(tagged_job(99, 0));
  EXPECT_EQ(log.entries.back(), "R " + tagged_job(99, 0).summary.src.to_string());
}

TEST(AnnotateStageTest, SerialModeCommitsInline) {
  CommitLog log;
  AnnotateStage stage({.num_workers = 1, .queue_capacity = 4},
                      delayed_annotator(), log.commit(), log.mark_ended());
  EXPECT_FALSE(stage.parallel());
  stage.submit(tagged_job(7, 0));
  // No drain: serial submissions are committed before submit returns.
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0], "R 10.0.0.7");
  stage.submit_mark_ended(Ipv4(192, 0, 2, 1), 0, 0);
  EXPECT_EQ(log.entries.back(), "E 192.0.2.1");
  EXPECT_EQ(stage.committed(), 2u);
}

TEST(AnnotateStageTest, StageMetricsExposeProgress) {
  obs::MetricsRegistry registry;
  CommitLog log;
  AnnotateStage stage({.num_workers = 2, .queue_capacity = 8},
                      delayed_annotator(), log.commit(), log.mark_ended(),
                      &registry);
  stage.submit(tagged_job(0, 30));
  for (int i = 1; i < 6; ++i) stage.submit(tagged_job(i, 0));
  stage.drain();
  EXPECT_EQ(registry.counter_value("exiot_annotate_records_total"), 6u);
  EXPECT_EQ(registry.gauge_value("exiot_annotate_inflight"), 0.0);
  EXPECT_EQ(registry.gauge_value("exiot_annotate_workers"), 2.0);
  // Later jobs finished while job 0 slept.
  EXPECT_GT(registry.counter_value("exiot_annotate_out_of_order_total"), 0u);
  EXPECT_GT(
      registry.counter_value("exiot_annotate_reorder_stall_micros_total"),
      0u);
  std::uint64_t busy = 0;
  for (int w = 0; w < 2; ++w) {
    busy += registry.counter_value("exiot_annotate_worker_busy_micros_total",
                                   {{"worker", std::to_string(w)}});
  }
  EXPECT_GT(busy, 0u);
}

// ------------------------------------------------ Determinism matrix ----

struct RunOutput {
  std::string feed;
  std::string outbox;
  std::string records_api;
  std::string snapshot_api;
  std::uint64_t records_published = 0;
  std::uint64_t labeled_examples = 0;
  std::uint64_t records_ended = 0;
  std::uint64_t iot_records = 0;
  std::uint64_t noniot_records = 0;
};

/// Full pipeline run over the small deterministic population; returns
/// every externally visible artifact for byte comparison.
RunOutput run_pipeline(int annotate_workers, int producers, int shards,
                       int batch_size = 512) {
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
  pipe_config.num_detector_shards = shards;
  pipe_config.num_producer_threads = producers;
  pipe_config.buffer_capacity = 8;
  pipe_config.ingest_batch_size = 64;
  pipe_config.num_annotate_workers = annotate_workers;
  pipe_config.decode_batch_size = static_cast<std::size_t>(batch_size);
  pipe_config.annotate_queue_capacity = 8;  // Small: back-pressure on submit.
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();

  RunOutput out;
  const obs::MetricsRegistry& m = pipe.metrics();
  out.records_published =
      m.counter_value("exiot_feed_records_published_total");
  out.labeled_examples =
      m.counter_value("exiot_trainer_labeled_examples_total");
  out.records_ended = m.counter_value("exiot_feed_records_ended_total");
  out.iot_records = m.counter_value("exiot_feed_records_by_label_total",
                                    {{"label", feed::kLabelIot}});
  out.noniot_records = m.counter_value("exiot_feed_records_by_label_total",
                                       {{"label", feed::kLabelNonIot}});
  std::ostringstream feed;
  feed::export_jsonl(pipe.feed(), feed);
  out.feed = feed.str();
  std::ostringstream outbox;
  for (const auto& mail : pipe.outbox()) {
    outbox << mail.sent_at << "|" << mail.to << "|" << mail.subject << "|"
           << mail.body << "\n";
  }
  out.outbox = outbox.str();
  api::ApiServer server(pipe.feed());
  server.add_token("t");
  auto request = [&](const std::string& target) {
    auto parsed = api::HttpRequest::parse(
        "GET " + target + " HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    return server.handle(*parsed).body;
  };
  out.records_api = request("/v1/records?limit=100000");
  out.snapshot_api = request("/v1/snapshot");
  return out;
}

TEST(AnnotateDeterminismTest, OutputInvariantAcrossWorkerMatrix) {
  const RunOutput baseline = run_pipeline(1, 1, 1);
  EXPECT_GT(baseline.records_published, 0u);
  EXPECT_FALSE(baseline.outbox.empty());
  // Workers x producers x shards x decode batch size: every externally
  // visible artifact — feed export, outbox, and API bodies — must be
  // byte-identical to the fully serial run. The batch dimension pins the
  // batch hot path: batching is an execution detail, never a semantic one.
  for (const auto& [workers, producers, shards, batch] :
       {std::tuple{1, 2, 2, 512}, std::tuple{2, 2, 2, 512},
        std::tuple{4, 2, 2, 64}, std::tuple{8, 2, 2, 1024},
        std::tuple{1, 1, 1, 1}, std::tuple{2, 2, 2, 1}}) {
    const RunOutput run = run_pipeline(workers, producers, shards, batch);
    EXPECT_EQ(baseline.feed, run.feed)
        << "workers=" << workers << " producers=" << producers
        << " shards=" << shards << " batch=" << batch;
    EXPECT_EQ(baseline.outbox, run.outbox) << "workers=" << workers;
    EXPECT_EQ(baseline.records_api, run.records_api)
        << "workers=" << workers;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api)
        << "workers=" << workers;
    EXPECT_EQ(baseline.records_published, run.records_published);
    EXPECT_EQ(baseline.labeled_examples, run.labeled_examples);
    EXPECT_EQ(baseline.records_ended, run.records_ended);
    EXPECT_EQ(baseline.iot_records, run.iot_records);
    EXPECT_EQ(baseline.noniot_records, run.noniot_records);
  }
}

TEST(AnnotateDeterminismTest, ParallelRunReportsStageMetrics) {
  inet::PopulationConfig config;
  config.iot_per_day = 20;
  config.generic_per_day = 10;
  config.misconfig_per_day = 0;
  config.victims_per_day = 0;
  config.benign_per_day = 0;
  config.days = 1;
  config.seed = 7;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_annotate_workers = 4;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();
  const std::uint64_t published =
      pipe.metrics().counter_value("exiot_feed_records_published_total");
  EXPECT_EQ(pipe.metrics().counter_value("exiot_annotate_records_total"),
            published);
  EXPECT_EQ(pipe.metrics().gauge_value("exiot_annotate_inflight"), 0.0);
  EXPECT_EQ(pipe.metrics().gauge_value("exiot_annotate_workers"), 4.0);
  // The latency histogram (observed at commit) still covers every record.
  const obs::Histogram* h =
      pipe.metrics().find_histogram("exiot_annotate_latency_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), published);
}

TEST(AnnotateDeterminismTest, MidRunDestructionShutsDownCleanly) {
  // Destroying the pipeline without finish() — an aborted deployment —
  // must stop the annotate workers without deadlock or loss of committed
  // state (the destructor drains in-flight records before teardown).
  inet::PopulationConfig config;
  config.iot_per_day = 20;
  config.generic_per_day = 10;
  config.misconfig_per_day = 0;
  config.victims_per_day = 0;
  config.benign_per_day = 0;
  config.days = 1;
  config.seed = 11;
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(config, world);
  PipelineConfig pipe_config;
  pipe_config.num_annotate_workers = 4;
  pipe_config.annotate_queue_capacity = 4;
  {
    ExIotPipeline pipe(population, world, pipe_config);
    pipe.run_hours(0, 3);  // No finish(): probes still batched in flight.
  }
  SUCCEED();
}

}  // namespace
}  // namespace exiot::pipeline
