// Telescope federation, in three tables:
//
//   coverage — marginal detection value per added aperture. The /8 is
//     split into 8 sub-apertures (/11 sites); activating k of them shows
//     how scanners detected / records published grow with coverage. The
//     paper's argument for a larger telescope is exactly this curve:
//     each added sensor buys detections at a diminishing rate because
//     fast scanners already hit every aperture.
//   outage — detection latency under per-site and global outage
//     profiles at 2 sites. A single-site outage only delays records for
//     sources sighted by that sensor (delivery waits for the slowest
//     sighted tunnel); a global outage delays everything.
//   merge — federated pipeline pps at 1/2/4/8 sites with every site
//     active. sites=1 exercises the single-site passthrough (must stay
//     at the unfederated baseline); the rest price the federation filter
//     on the hot path: one pass over each batch's rows setting each
//     row's site bit in its source's site mask, the input batch forwarded
//     as is. (The table keeps its historical "merge" key so the committed
//     baseline still gates it.)
//
//   ./bench_federation            (EXIOT_SCALE=0.2 EXIOT_SEED=42)
//
// The timed rows follow benchx::best_rate; one call is a whole pipeline
// day, so a coverage row is one run and a merge row the best of 3.
//
// Results go to BENCH_federation.json for the perf trajectory
// (tools/check_bench_regression.sh keys rows by "sites"/"coverage"/
// "profile", gates the records_per_s / pps values against a floor, and
// requires the deterministic packet, scanner, record and latency columns
// to equal the baseline).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"

using namespace exiot;

namespace {

struct Run {
  double seconds = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t scanners = 0;
  std::uint64_t records = 0;
  double mean_latency_h = 0.0;
  double max_latency_h = 0.0;
};

Run run_federated(const benchx::Sim& sim, int days,
                  pipeline::PipelineConfig config) {
  std::unique_ptr<pipeline::ExIotPipeline> pipe;
  const benchx::Timed timed = benchx::timed([&] {
    pipe = benchx::run_pipeline(sim, days, config);
    return pipe->metrics().counter_value(
        "exiot_detector_packets_processed_total");
  });
  Run run;
  run.seconds = timed.seconds;
  run.packets = timed.items;
  const obs::MetricsRegistry& m = pipe->metrics();
  run.scanners = m.counter_value("exiot_detector_scanners_detected_total");
  run.records = m.counter_value("exiot_feed_records_published_total");
  double sum_h = 0.0;
  std::uint64_t published = 0;
  for (const auto& record :
       pipe->feed().published_between(0, hours(24.0 * (days + 2)))) {
    const double latency_h =
        double(record.published_at - record.detect_time) / kMicrosPerHour;
    sum_h += latency_h;
    if (latency_h > run.max_latency_h) run.max_latency_h = latency_h;
    ++published;
  }
  run.mean_latency_h = published > 0 ? sum_h / double(published) : 0.0;
  return run;
}

struct OutageProfile {
  const char* name;
  bool global;  // applied to every site instead of site 1 only
  std::vector<std::pair<TimeMicros, TimeMicros>> outages;
};

}  // namespace

int main() {
  const double scale = benchx::env_double("EXIOT_SCALE", 0.2);
  const int days = 1;
  const benchx::Sim sim = benchx::make_sim(scale, days);

  json::Object doc;
  benchx::heading(
      "coverage: marginal detection value per added aperture (8 sites)");
  std::printf("%10s %12s %10s %10s %12s %14s\n", "active", "packets",
              "scanners", "records", "marginal", "records/s");
  json::Array coverage;
  std::uint64_t prev_records = 0;
  int prev_active = 0;
  for (int active : {1, 2, 4, 8}) {
    pipeline::PipelineConfig config;
    config.num_sites = 8;
    config.active_sites = active;
    Run run;
    const double rps = benchx::best_rate(
        [&] {
          run = run_federated(sim, days, config);
          return benchx::Timed{run.records, run.seconds};
        },
        1);
    // Records bought per newly-activated site relative to the previous row.
    const double marginal =
        double(run.records - prev_records) / double(active - prev_active);
    std::printf("%6d / 8 %12llu %10llu %10llu %12.1f %14.0f\n", active,
                static_cast<unsigned long long>(run.packets),
                static_cast<unsigned long long>(run.scanners),
                static_cast<unsigned long long>(run.records), marginal, rps);
    json::Object row{{"sites", 8},
                     {"coverage", active},
                     {"packets", benchx::integer(run.packets)},
                     {"scanners", benchx::integer(run.scanners)},
                     {"records", benchx::integer(run.records)},
                     {"marginal_records_per_site", benchx::fixed(marginal, 1)},
                     {"records_per_s", benchx::fixed(rps)}};
    coverage.emplace_back(std::move(row));
    prev_records = run.records;
    prev_active = active;
  }
  doc["coverage"] = std::move(coverage);

  benchx::heading("outage: detection latency by outage profile (2 sites)");
  const OutageProfile kProfiles[] = {
      {"clean", false, {}},
      {"brief", false, {{hours(6), hours(7)}}},
      {"flaky",
       false,
       {{hours(4), hours(4) + minutes(30)},
        {hours(8), hours(8) + minutes(30)},
        {hours(12), hours(12) + minutes(30)},
        {hours(16), hours(16) + minutes(30)}}},
      {"blackout", true, {{hours(4), hours(8)}}},
  };
  std::printf("%10s %10s %16s %16s\n", "profile", "records", "mean latency",
              "max latency");
  json::Array outage;
  for (const OutageProfile& profile : kProfiles) {
    pipeline::PipelineConfig config;
    config.num_sites = 2;
    config.site_specs.resize(2);
    for (int site = 0; site < 2; ++site) {
      if (profile.global || site == 1) {
        config.site_specs[site].outages = profile.outages;
      }
    }
    const Run run = run_federated(sim, days, config);
    std::printf("%10s %10llu %14.2f h %14.2f h\n", profile.name,
                static_cast<unsigned long long>(run.records),
                run.mean_latency_h, run.max_latency_h);
    json::Object row{{"sites", 2},
                     {"profile", profile.name},
                     {"records", benchx::integer(run.records)},
                     {"mean_latency_h", benchx::fixed(run.mean_latency_h, 3)},
                     {"max_latency_h", benchx::fixed(run.max_latency_h, 3)}};
    outage.emplace_back(std::move(row));
  }
  doc["outage"] = std::move(outage);

  benchx::heading(
      "merge: federation filter hot-path pps by site count (all active)");
  std::printf("%10s %12s %14s\n", "sites", "packets", "pps");
  json::Array merge;
  for (int sites : {1, 2, 4, 8}) {
    pipeline::PipelineConfig config;
    config.num_sites = sites;
    Run run;
    const double pps = benchx::best_rate(
        [&] {
          run = run_federated(sim, days, config);
          return benchx::Timed{run.packets, run.seconds};
        },
        3);
    std::printf("%10d %12llu %14.0f\n", sites,
                static_cast<unsigned long long>(run.packets), pps);
    json::Object row{{"sites", sites},
                     {"packets", benchx::integer(run.packets)},
                     {"pps", benchx::fixed(pps)}};
    merge.emplace_back(std::move(row));
  }
  doc["merge"] = std::move(merge);
  benchx::write_bench_json("BENCH_federation.json", "federation", scale,
                           std::move(doc));
  std::printf("\nexpected: coverage grows detections sub-linearly (fast "
              "scanners hit every aperture); a single-site outage only "
              "delays records sighted by that sensor; sites=1 pps matches "
              "the unfederated pipeline (passthrough).\n");
  return 0;
}
