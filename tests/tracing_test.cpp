// End-to-end tests for the observability layer riding the threaded
// pipeline: the feed must stay byte-identical with tracing off, sampled,
// or fully on (sampling is a pure function of record identity, never of
// thread interleaving); GET /v1/traces must cover every pipeline stage
// with processing time split from queue-wait time; /v1/health must flip
// to `stalled` within one watchdog deadline of an injected hang and back
// to `ok` on recovery; and API 4xx responses must land in the flight
// recorder ring served at /v1/flightrecorder.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>

#include "api/server.h"
#include "feed/export.h"
#include "feed/manager.h"
#include "inet/population.h"
#include "json/json.h"
#include "obs/flight_recorder.h"
#include "obs/watchdog.h"
#include "pipeline/exiot.h"

namespace exiot::pipeline {
namespace {

struct RunOutput {
  std::string feed;
  std::uint64_t records_published = 0;
  std::uint64_t iot_records = 0;
  std::uint64_t noniot_records = 0;
  std::uint64_t spans_recorded = 0;
};

/// Full pipeline run over the small deterministic population (the same
/// world annotate_test uses); returns the feed bytes for comparison plus
/// the span count so tests can assert tracing actually ran (or didn't).
RunOutput run_pipeline(int producers, int shards, double trace_sample) {
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
  pipe_config.trace_sample = trace_sample;
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();

  RunOutput out;
  const obs::MetricsRegistry& m = pipe.metrics();
  out.records_published =
      m.counter_value("exiot_feed_records_published_total");
  out.iot_records = m.counter_value("exiot_feed_records_by_label_total",
                                    {{"label", feed::kLabelIot}});
  out.noniot_records = m.counter_value("exiot_feed_records_by_label_total",
                                       {{"label", feed::kLabelNonIot}});
  out.spans_recorded = pipe.tracer().spans_recorded();
  std::ostringstream feed;
  feed::export_jsonl(pipe.feed(), feed);
  out.feed = feed.str();
  return out;
}

/// Authorized GET against a transport-independent ApiServer.
api::HttpResponse get(const api::ApiServer& server,
                      const std::string& target) {
  auto parsed = api::HttpRequest::parse(
      "GET " + target + " HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n");
  EXPECT_TRUE(parsed.has_value());
  return server.handle(*parsed);
}

json::Value parsed_body(const api::HttpResponse& response) {
  auto value = json::parse(response.body);
  EXPECT_TRUE(value.ok()) << response.body;
  return value.ok() ? std::move(value.value()) : json::Value();
}

// ------------------------------------------------ Determinism matrix ----

TEST(TracingDeterminismTest, FeedInvariantAcrossSamplingMatrix) {
  // Baseline: fully serial, tracing off. Every other combination — any
  // parallelism at 0%, 1%, or 100% sampling — must produce byte-identical
  // feed output: tracing observes records, it never touches them.
  const RunOutput baseline = run_pipeline(1, 1, 0.0);
  EXPECT_GT(baseline.records_published, 0u);
  EXPECT_EQ(baseline.spans_recorded, 0u);
  for (const auto& [producers, shards, sample] :
       {std::tuple{1, 1, 1.0}, std::tuple{2, 2, 0.0}, std::tuple{2, 2, 0.01},
        std::tuple{2, 2, 1.0}}) {
    const RunOutput run = run_pipeline(producers, shards, sample);
    EXPECT_EQ(baseline.feed, run.feed)
        << "producers=" << producers << " shards=" << shards
        << " sample=" << sample;
    EXPECT_EQ(baseline.records_published, run.records_published);
    EXPECT_EQ(baseline.iot_records, run.iot_records);
    EXPECT_EQ(baseline.noniot_records, run.noniot_records);
    if (sample == 0.0) {
      EXPECT_EQ(run.spans_recorded, 0u);
    } else if (sample == 1.0) {
      EXPECT_GT(run.spans_recorded, 0u);
    }
  }
}

// ---------------------------------------------------- /v1/traces ----

TEST(TracesEndpointTest, CoversEveryStageAndSplitsWaitFromWork) {
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
  pipe_config.num_detector_shards = 2;
  pipe_config.num_producer_threads = 2;
  pipe_config.trace_sample = 1.0;  // Trace everything.
  ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, 1);
  pipe.finish();

  api::ApiServer server(pipe.feed());
  server.add_token("t");
  server.attach_tracer(&pipe.tracer());

  const api::HttpResponse response = get(server, "/v1/traces");
  ASSERT_EQ(response.status, 200);
  const json::Value body = parsed_body(response);
  EXPECT_EQ(body.get_double("sample_rate"), 1.0);
  EXPECT_GT(body.get_int("spans_recorded"), 0);
  const json::Value* traces = body.find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->as_array().empty());

  // Every pipeline stage shows up across the rings, every span carries
  // both halves of the latency split, and at least one record trace runs
  // the full detect -> annotate -> commit -> publish path with a source.
  std::set<std::string> stages_seen;
  bool full_record_trace = false;
  for (const json::Value& trace : traces->as_array()) {
    const json::Value* spans = trace.find("spans");
    ASSERT_NE(spans, nullptr);
    std::set<std::string> trace_stages;
    for (const json::Value& span : spans->as_array()) {
      const std::string stage = span.get_string("stage");
      EXPECT_FALSE(stage.empty());
      trace_stages.insert(stage);
      stages_seen.insert(stage);
      EXPECT_NE(span.find("start_micros"), nullptr);
      EXPECT_NE(span.find("processing_micros"), nullptr);
      EXPECT_NE(span.find("queue_wait_micros"), nullptr);
    }
    if (trace_stages.count("detect") != 0u &&
        trace_stages.count("annotate") != 0u &&
        trace_stages.count("commit") != 0u &&
        trace_stages.count("publish") != 0u) {
      EXPECT_GT(trace.get_int("src"), 0);
      full_record_trace = true;
    }
  }
  EXPECT_TRUE(full_record_trace);
  for (const char* stage :
       {"produce", "ingest", "detect", "annotate", "commit", "publish"}) {
    EXPECT_EQ(stages_seen.count(stage), 1u) << stage;
  }

  // ?limit= bounds the response to the most recent traces.
  const json::Value limited =
      parsed_body(get(server, "/v1/traces?limit=1"));
  ASSERT_NE(limited.find("traces"), nullptr);
  EXPECT_EQ(limited.find("traces")->as_array().size(), 1u);
}

TEST(TracesEndpointTest, RequiresAttachmentAndAuth) {
  feed::FeedManager feed;
  api::ApiServer server(feed);
  server.add_token("t");
  // No tracer attached: the route 404s instead of faking an empty trace.
  EXPECT_EQ(get(server, "/v1/traces").status, 404);

  obs::Tracer tracer({.sample_rate = 1.0, .ring_capacity = 16});
  server.attach_tracer(&tracer);
  EXPECT_EQ(get(server, "/v1/traces").status, 200);
  // Traces expose source IPs: the endpoint sits behind bearer auth.
  auto anonymous = api::HttpRequest::parse("GET /v1/traces HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(anonymous.has_value());
  EXPECT_EQ(server.handle(*anonymous).status, 401);
}

// ---------------------------------------------------- /v1/health ----

TEST(WatchdogHealthTest, HealthFlipsToStalledWithinOneDeadline) {
  feed::FeedManager feed;
  api::ApiServer server(feed);
  obs::Watchdog dog({.deadline = std::chrono::milliseconds(600)});
  server.attach_watchdog(&dog);

  auto status = [&] {
    // /v1/health is unauthenticated by design (probes don't carry tokens).
    auto parsed = api::HttpRequest::parse("GET /v1/health HTTP/1.1\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    const api::HttpResponse response = server.handle(*parsed);
    EXPECT_EQ(response.status, 200);
    return parsed_body(response).get_string("status");
  };

  obs::Watchdog::Worker* worker = dog.register_worker("stage:0");
  worker->busy();
  EXPECT_EQ(status(), "ok");

  // Inject a hang: the worker goes silent while busy. Health is computed
  // on demand from beat ages, so one deadline after the last beat the
  // endpoint reports `stalled` — no monitor tick required.
  std::this_thread::sleep_for(std::chrono::milliseconds(750));
  EXPECT_EQ(status(), "stalled");
  const json::Value body = parsed_body(
      server.handle(*api::HttpRequest::parse("GET /v1/health HTTP/1.1\r\n\r\n")));
  const json::Value* watchdog = body.find("watchdog");
  ASSERT_NE(watchdog, nullptr);
  EXPECT_EQ(watchdog->get_int("stalled_workers"), 1);

  // Recovery: the next heartbeat clears the stall immediately.
  worker->beat();
  EXPECT_EQ(status(), "ok");

  // An idle worker (parked on an empty queue) never counts as stalled.
  worker->idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(750));
  EXPECT_EQ(status(), "ok");
}

// ---------------------------------------------- /v1/flightrecorder ----

TEST(FlightRecorderEndpointTest, ApiErrorsLandInTheRing) {
  feed::FeedManager feed;
  api::ApiServer server(feed);
  server.add_token("t");
  obs::FlightRecorder flight(32);
  server.attach_flight_recorder(&flight);

  EXPECT_EQ(get(server, "/v1/nope").status, 404);

  const api::HttpResponse response = get(server, "/v1/flightrecorder");
  ASSERT_EQ(response.status, 200);
  const json::Value body = parsed_body(response);
  EXPECT_GE(body.get_int("recorded"), 1);
  const json::Value* events = body.find("events");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const json::Value& event : events->as_array()) {
    if (event.get_string("category") == "api" &&
        event.get_string("detail").find("404 GET /v1/nope") !=
            std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << response.body;
}

}  // namespace
}  // namespace exiot::pipeline
