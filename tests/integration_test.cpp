// End-to-end integration tests: the full Figure 2 pipeline over synthetic
// telescope days — detection, probing, labeling, training, enrichment,
// publication, END_FLOW, latency accounting, and notifications.
#include <gtest/gtest.h>

#include "api/server.h"
#include "pipeline/exiot.h"

namespace exiot::pipeline {
namespace {

Cidr scope() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

/// A small but banner-rich population so the classifier trains quickly.
inet::PopulationConfig test_population(int days) {
  inet::PopulationConfig c;
  c.days = days;
  c.iot_per_day = 60;
  c.generic_per_day = 120;
  c.benign_per_day = 4;
  c.misconfig_per_day = 30;
  c.victims_per_day = 8;
  c.iot_banner_response = 0.5;  // Accelerate label accumulation for tests.
  c.iot_banner_textual_given_response = 0.8;
  c.generic_banner_response = 0.5;
  return c;
}

PipelineConfig test_config() {
  PipelineConfig config;
  config.telescope = scope();
  config.trainer.min_examples_per_class = 15;
  config.trainer.selection.search_iterations = 2;
  config.batcher.max_wait = minutes(30);
  return config;
}

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  /// A pipeline registry counter (0 when never registered).
  std::uint64_t counter(const std::string& name,
                        const obs::Labels& labels = {}) const {
    return pipeline_.metrics().counter_value(name, labels);
  }
  std::uint64_t by_label(const std::string& label) const {
    return counter("exiot_feed_records_by_label_total", {{"label", label}});
  }

  static constexpr int kDays = 2;
  PipelineIntegrationTest()
      : world_(inet::WorldModel::standard(scope())),
        pop_(inet::Population::generate(test_population(kDays), world_)),
        pipeline_(pop_, world_, test_config()) {
    pipeline_.notifications().subscribe("soc@example.org",
                                        *Cidr::parse("0.0.0.0/0"));
    pipeline_.run_days(0, kDays);
    pipeline_.finish();
  }

  inet::WorldModel world_;
  inet::Population pop_;
  ExIotPipeline pipeline_;
};

TEST_F(PipelineIntegrationTest, PublishesRecords) {
  EXPECT_GT(counter("exiot_detector_packets_processed_total"), 10000u);
  EXPECT_GT(counter("exiot_detector_scanners_detected_total"), 50u);
  const std::uint64_t published =
      counter("exiot_feed_records_published_total");
  EXPECT_GT(published, 50u);
  EXPECT_EQ(pipeline_.feed().total_records(), published);
}

TEST_F(PipelineIntegrationTest, DetectedSourcesAreTrueScanners) {
  // No misconfigured or victim source may produce a record.
  pipeline_.feed().latest_store().for_each(
      [&](const store::ObjectId&, const json::Value& doc) {
        auto src = Ipv4::parse(doc.get_string("src_ip"));
        ASSERT_TRUE(src.has_value());
        const inet::Host* host = pop_.find(*src);
        ASSERT_NE(host, nullptr);
        EXPECT_NE(host->cls, inet::HostClass::kMisconfigured)
            << src->to_string();
        EXPECT_NE(host->cls, inet::HostClass::kBackscatterVictim)
            << src->to_string();
      });
}

TEST_F(PipelineIntegrationTest, LatencyDominatedByCollection) {
  // Every record's publication must include the ~3.5 h collection delay;
  // the paper's end-to-end path lands around 5 hours.
  int checked = 0;
  for (const auto& record :
       pipeline_.feed().published_between(0, 100 * kMicrosPerDay)) {
    const TimeMicros latency = record.published_at - record.scan_start;
    EXPECT_GE(latency, hours(3.5)) << record.src.to_string();
    EXPECT_LE(latency, hours(12)) << record.src.to_string();
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PipelineIntegrationTest, BenignScannersLabeled) {
  int benign = 0;
  for (const auto& host : pop_.hosts()) {
    if (host.cls != inet::HostClass::kBenignScanner) continue;
    for (const auto& record : pipeline_.feed().records_for(host.addr)) {
      EXPECT_EQ(record.label, feed::kLabelBenign);
      ++benign;
    }
  }
  EXPECT_GT(benign, 0);
  EXPECT_EQ(by_label(feed::kLabelBenign),
            static_cast<std::uint64_t>(benign));
}

TEST_F(PipelineIntegrationTest, ModelTrainsAndLabelsFlow) {
  EXPECT_GE(pipeline_.classifier().models_trained(), 1u);
  EXPECT_GT(counter("exiot_trainer_labeled_examples_total"), 30u);
  // After the first model exists, records get IoT / non-IoT labels.
  EXPECT_GT(by_label(feed::kLabelIot) + by_label(feed::kLabelNonIot), 0u);
}

TEST_F(PipelineIntegrationTest, MiraiToolFingerprinted) {
  int mirai_tools = 0;
  pipeline_.feed().latest_store().for_each(
      [&](const store::ObjectId&, const json::Value& doc) {
        auto src = Ipv4::parse(doc.get_string("src_ip"));
        const inet::Host* host = pop_.find(*src);
        const inet::ScanBehavior* behavior = pop_.behavior_of(*host);
        if (behavior != nullptr && behavior->family == "mirai") {
          EXPECT_EQ(doc.get_string("tool"), "Mirai");
          ++mirai_tools;
        }
      });
  EXPECT_GT(mirai_tools, 0);
}

TEST_F(PipelineIntegrationTest, RecordsCarryEnrichment) {
  pipeline_.feed().latest_store().for_each(
      [&](const store::ObjectId&, const json::Value& doc) {
        EXPECT_FALSE(doc.get_string("country").empty());
        EXPECT_NE(doc.get_int("asn"), 0);
        EXPECT_FALSE(doc.get_string("organization").empty());
        EXPECT_FALSE(doc.get_string("sector").empty());
        EXPECT_GT(doc.get_double("scan_rate"), 0.0);
      });
}

TEST_F(PipelineIntegrationTest, FlowsEndViaEndFlowMessages) {
  EXPECT_GT(counter("exiot_feed_records_ended_total"), 0u);
  int inactive = 0;
  pipeline_.feed().latest_store().for_each(
      [&](const store::ObjectId&, const json::Value& doc) {
        if (!doc.get_bool("active", true)) {
          EXPECT_GT(doc.get_int("scan_end"), 0);
          ++inactive;
        }
      });
  EXPECT_GT(inactive, 0);
}

TEST_F(PipelineIntegrationTest, NotificationsReachSubscribers) {
  EXPECT_FALSE(pipeline_.outbox().empty());
  bool subscriber_mail = false;
  for (const auto& mail : pipeline_.outbox()) {
    if (mail.to == "soc@example.org") subscriber_mail = true;
  }
  EXPECT_TRUE(subscriber_mail);
}

TEST_F(PipelineIntegrationTest, ReportsFlowEverySecond) {
  EXPECT_GT(counter("exiot_pipeline_report_messages_total"), 1000u);
}

TEST_F(PipelineIntegrationTest, ApiServesTheFeed) {
  api::ApiServer server(pipeline_.feed());
  server.add_token("test-token");

  auto request = [&](const std::string& target) {
    auto parsed = api::HttpRequest::parse(
        "GET " + target +
        " HTTP/1.1\r\nAuthorization: Bearer test-token\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    return server.handle(*parsed);
  };

  auto stats = request("/v1/stats");
  EXPECT_EQ(stats.status, 200);
  auto body = json::parse(stats.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().get_int("total_records"),
            static_cast<std::int64_t>(pipeline_.feed().total_records()));

  auto records = request("/v1/records?label=IoT&limit=5");
  EXPECT_EQ(records.status, 200);
  auto records_body = json::parse(records.body);
  ASSERT_TRUE(records_body.ok());
  for (const auto& rec : records_body.value().find("records")->as_array()) {
    EXPECT_EQ(rec.get_string("label"), "IoT");
  }
}

TEST_F(PipelineIntegrationTest, MetricsCoverEveryStage) {
  const obs::MetricsRegistry& metrics = pipeline_.metrics();
  EXPECT_GE(metrics.family_count(), 12u);
  // Every stage exposes at least one histogram with observations.
  for (const char* name :
       {"exiot_organizer_sample_size", "exiot_scan_module_batch_fill",
        "exiot_scan_module_flush_latency_seconds",
        "exiot_annotate_latency_seconds",
        "exiot_trainer_retrain_duration_seconds",
        "exiot_feed_publish_latency_seconds"}) {
    const obs::Histogram* h = metrics.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }
}

TEST_F(PipelineIntegrationTest, MetricsAgreeWithLegacyStats) {
  const obs::MetricsRegistry& metrics = pipeline_.metrics();
  const std::uint64_t published =
      counter("exiot_feed_records_published_total");
  EXPECT_EQ(counter("exiot_trainer_models_trained_total"),
            pipeline_.classifier().models_trained());
  EXPECT_EQ(published, pipeline_.feed().total_records());
  // By-label counters partition the published records.
  EXPECT_EQ(by_label(feed::kLabelIot) + by_label(feed::kLabelNonIot) +
                by_label(feed::kLabelBenign) +
                by_label(feed::kLabelUnlabeled),
            published);
  // Every scanner entering the scan module got one probe outcome class.
  EXPECT_EQ(
      metrics.counter_value("exiot_probe_outcomes_total",
                            {{"class", "banner_iot"}}) +
          metrics.counter_value("exiot_probe_outcomes_total",
                                {{"class", "banner_noniot"}}) +
          metrics.counter_value("exiot_probe_outcomes_total",
                                {{"class", "banner_unmatched"}}) +
          metrics.counter_value("exiot_probe_outcomes_total",
                                {{"class", "no_banner"}}),
      metrics.counter_value("exiot_scan_module_probed_total"));
}

TEST_F(PipelineIntegrationTest, MetricsServedThroughApi) {
  api::ApiServer server(pipeline_.feed());
  server.attach_metrics(&pipeline_.metrics());
  auto parsed = api::HttpRequest::parse("GET /v1/metrics HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  auto res = server.handle(*parsed);
  EXPECT_EQ(res.status, 200);
  // Family count in the exposition matches the registry.
  std::size_t type_lines = 0;
  for (std::size_t pos = res.body.find("# TYPE");
       pos != std::string::npos; pos = res.body.find("# TYPE", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, pipeline_.metrics().family_count());
  // The published-records sample is present with its exact value.
  const std::string sample =
      "\nexiot_feed_records_published_total " +
      std::to_string(counter("exiot_feed_records_published_total")) + "\n";
  EXPECT_NE(res.body.find(sample), std::string::npos);
}

TEST_F(PipelineIntegrationTest, TunnelOutageDelaysButKeepsRecords) {
  // Re-run the same population with an outage covering the whole first
  // day's processing window; record count must not shrink.
  ExIotPipeline delayed(pop_, world_, test_config());
  delayed.tunnel().schedule_outage(hours(4), hours(9));
  delayed.run_days(0, kDays);
  delayed.finish();
  EXPECT_EQ(delayed.metrics().counter_value(
                "exiot_feed_records_published_total"),
            counter("exiot_feed_records_published_total"));
  // Records whose path crossed the outage published strictly later.
  std::uint64_t later = 0;
  for (const auto& record :
       delayed.feed().published_between(0, 100 * kMicrosPerDay)) {
    for (const auto& base :
         pipeline_.feed().records_for(record.src)) {
      if (base.scan_start == record.scan_start &&
          record.published_at > base.published_at) {
        ++later;
      }
    }
  }
  EXPECT_GT(later, 0u);
}

}  // namespace
}  // namespace exiot::pipeline
