// Quickstart: stand up the whole eX-IoT reproduction in ~30 lines of API.
//
// 1. Build a synthetic Internet (world model + scanner population).
// 2. Run the eX-IoT pipeline over one simulated day of /8 telescope traffic.
// 3. Query the resulting CTI feed through the REST API layer.
//
//   ./quickstart [scale]     (scale defaults to 0.2; 1.0 = ~757k-records/day
//                             paper composition at 1/100 size)
#include <cstdio>
#include <cstdlib>

#include "api/server.h"
#include "pipeline/exiot.h"

int main(int argc, char** argv) {
  using namespace exiot;
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.2;

  // The /8 darknet aperture and the world behind it.
  const Cidr telescope(Ipv4(44, 0, 0, 0), 8);
  auto world = inet::WorldModel::standard(telescope);
  auto population = inet::Population::generate(
      inet::PopulationConfig{}.scaled(scale), world);
  std::printf("population: %zu hosts (scale %.2f)\n",
              population.hosts().size(), scale);

  // The pipeline of Figure 2, on a virtual clock.
  pipeline::PipelineConfig config;
  config.telescope = telescope;
  pipeline::ExIotPipeline pipeline(population, world, config);
  pipeline.run_days(0, 1);
  pipeline.finish();

  const obs::MetricsRegistry& metrics = pipeline.metrics();
  auto counter = [&metrics](const char* name, const obs::Labels& labels = {}) {
    return static_cast<unsigned long long>(
        metrics.counter_value(name, labels));
  };
  auto by_label = [&counter](const char* label) {
    return counter("exiot_feed_records_by_label_total", {{"label", label}});
  };
  std::printf("processed %llu packets, detected %llu scanners, "
              "published %llu records\n",
              counter("exiot_detector_packets_processed_total"),
              counter("exiot_detector_scanners_detected_total"),
              counter("exiot_feed_records_published_total"));
  std::printf("labels: IoT=%llu non-IoT=%llu Benign=%llu unlabeled=%llu\n",
              by_label(feed::kLabelIot), by_label(feed::kLabelNonIot),
              by_label(feed::kLabelBenign), by_label(feed::kLabelUnlabeled));

  // Consume the feed the way a SOC would: through the API.
  api::ApiServer server(pipeline.feed());
  server.add_token("demo-token");
  server.attach_metrics(&pipeline.metrics());
  auto request = api::HttpRequest::parse(
      "GET /v1/records?label=IoT&limit=3 HTTP/1.1\r\n"
      "Authorization: Bearer demo-token\r\n\r\n");
  auto response = server.handle(*request);
  std::printf("\nGET /v1/records?label=IoT&limit=3 -> %d\n", response.status);
  auto body = json::parse(response.body);
  if (body.ok()) {
    for (const auto& record : body.value().find("records")->as_array()) {
      std::printf("  %s  %-22s %-12s score=%.2f tool=%s\n",
                  record.get_string("src_ip").c_str(),
                  (record.get_string("vendor").empty()
                       ? "(no banner)"
                       : (record.get_string("vendor") + " " +
                          record.get_string("model")))
                      .c_str(),
                  record.get_string("country_code").c_str(),
                  record.get_double("score"),
                  record.get_string("tool").c_str());
    }
  }

  // Ops view: the Prometheus endpoint needs no token (scraper-friendly).
  auto metrics_request = api::HttpRequest::parse(
      "GET /v1/metrics HTTP/1.1\r\n\r\n");
  auto metrics_response = server.handle(*metrics_request);
  std::printf("\nGET /v1/metrics -> %d (%zu metric families); sample:\n",
              metrics_response.status, pipeline.metrics().family_count());
  std::size_t shown = 0, pos = 0;
  while (shown < 6 && pos < metrics_response.body.size()) {
    const std::size_t eol = metrics_response.body.find('\n', pos);
    const std::string line = metrics_response.body.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      std::printf("  %s\n", line.c_str());
      ++shown;
    }
    pos = eol + 1;
  }
  return 0;
}
