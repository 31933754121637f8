// Tests for annotation and commit on the pipeline's calling thread: the
// determinism matrix (feed export, email outbox and API responses must be
// byte-identical for any producers x shards x batch-size combination),
// the annotate metrics, the commit sequence the API cache keys on, and
// teardown mid-run.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <tuple>
#include <vector>

#include "api/server.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/exiot.h"

namespace exiot::pipeline {
namespace {

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

/// The small deterministic population every run here uses.
inet::PopulationConfig small_population() {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  return config;
}

/// Full pipeline run over the small deterministic population; returns
/// every externally visible artifact for byte comparison.
RunOutput run_pipeline(int producers, int shards, int batch_size = 512) {
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(small_population(), world);
  PipelineConfig pipe_config;
  pipe_config.num_detector_shards = shards;
  pipe_config.num_producer_threads = producers;
  pipe_config.buffer_capacity = 8;
  pipe_config.ingest_batch_size = 64;
  pipe_config.decode_batch_size = static_cast<std::size_t>(batch_size);
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
  const RunOutput baseline = run_pipeline(1, 1);
  EXPECT_GT(baseline.records_published, 0u);
  EXPECT_FALSE(baseline.outbox.empty());
  // Producers x shards x decode batch size: every externally visible
  // artifact — feed export, outbox, and API bodies — must be
  // byte-identical to the fully serial run. The batch dimension pins the
  // batch hot path: batching is an execution detail, never a semantic one.
  for (const auto& [producers, shards, batch] :
       {std::tuple{2, 2, 512}, std::tuple{2, 2, 64}, std::tuple{2, 2, 1024},
        std::tuple{1, 1, 1}, std::tuple{2, 2, 1}, std::tuple{4, 1, 512},
        std::tuple{1, 4, 512}}) {
    const RunOutput run = run_pipeline(producers, shards, batch);
    const std::string where = "producers=" + std::to_string(producers) +
                              " shards=" + std::to_string(shards) +
                              " batch=" + std::to_string(batch);
    EXPECT_EQ(baseline.feed, run.feed) << where;
    EXPECT_EQ(baseline.outbox, run.outbox) << where;
    EXPECT_EQ(baseline.records_api, run.records_api) << where;
    EXPECT_EQ(baseline.snapshot_api, run.snapshot_api) << where;
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
  ExIotPipeline pipe(population, world, PipelineConfig{});
  pipe.run_days(0, 1);
  pipe.finish();
  const std::uint64_t published =
      pipe.metrics().counter_value("exiot_feed_records_published_total");
  EXPECT_GT(published, 0u);
  EXPECT_EQ(pipe.metrics().counter_value("exiot_annotate_records_total"),
            published);
  // The latency histogram (observed at commit) covers every record.
  const obs::Histogram* h =
      pipe.metrics().find_histogram("exiot_annotate_latency_seconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), published);
}

TEST(AnnotateDeterminismTest, MidRunDestructionShutsDownCleanly) {
  // Destroying the pipeline without finish() — an aborted deployment —
  // must stop the producer and detector threads without deadlock.
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
  pipe_config.num_producer_threads = 2;
  pipe_config.num_detector_shards = 2;
  {
    ExIotPipeline pipe(population, world, pipe_config);
    pipe.run_hours(0, 3);  // No finish(): probes still batched in flight.
  }
  SUCCEED();
}

TEST(AnnotateCommitTest, CommitSequenceCountsPublishAndMarkEndedCommits) {
  // commit_sequence() keys the API response cache. It advances once per
  // publish or mark-ended commit, as soon as the commit lands; the WAL
  // counts the same commits plus one hour-end commit per hour.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "annotate_commit_seq";
  std::filesystem::remove_all(dir);
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(small_population(), world);
  PipelineConfig pipe_config;
  pipe_config.data_dir = dir;
  constexpr std::int64_t kHours = 24;
  {
    ExIotPipeline pipe(population, world, pipe_config);
    ASSERT_NE(pipe.durability(), nullptr);
    EXPECT_EQ(pipe.commit_sequence(), 0u);
    pipe.run_hours(0, kHours / 2);
    const std::uint64_t mid = pipe.commit_sequence();
    EXPECT_GT(mid, 0u);
    EXPECT_EQ(mid, pipe.durability()->commit_index() - kHours / 2);
    pipe.run_hours(kHours / 2, kHours);
    pipe.finish();
    EXPECT_GT(pipe.commit_sequence(), mid);
    EXPECT_GE(pipe.commit_sequence(),
              pipe.metrics().counter_value(
                  "exiot_feed_records_published_total"));
    EXPECT_EQ(pipe.commit_sequence(),
              pipe.durability()->commit_index() - kHours);
  }
  // A restart re-runs every commit, which durability suppresses; they
  // still count, so the sequence ends where the first run's did.
  ExIotPipeline again(population, world, pipe_config);
  ASSERT_NE(again.durability(), nullptr);
  again.run_hours(0, kHours);
  again.finish();
  EXPECT_EQ(again.commit_sequence(),
            again.durability()->commit_index() - kHours);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace exiot::pipeline
