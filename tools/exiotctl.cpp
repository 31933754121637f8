// exiotctl — operator command line for the eX-IoT reproduction.
//
//   exiotctl capture   --dir DIR [--scale S] [--hours H] [--seed N]
//       Synthesize telescope traffic into hourly trace files (the CAIDA
//       capture format).
//   exiotctl replay    --dir DIR
//       Replay captured hours through the batched capture->detect path
//       (trace decode -> ThreadedIngest), expiring idle flows at the end of
//       each file's hour, and print per-hour packets, scanners detected and
//       flows ended.
//   exiotctl simulate  [--scale S] [--days N] [--seed N]
//                      [--producers N] [--shards N] [--buffer N]
//                      [--batch-size N]
//                      [--sites N] [--active-sites K]
//                      [--site-outage IDX:FROM:TO] [--site-reconnect S]
//                      [--trace-sample R] [--watchdog-deadline MS]
//                      [--data-dir DIR] [--wal-segment-bytes N]
//                      [--snapshot-interval H] [--wal-fsync none|roll|always]
//                      [--jsonl FILE] [--csv FILE] [--dashboard FILE]
//       Run the full pipeline and export the resulting feed. --producers
//       synthesizes traffic on N producer threads and --shards runs the
//       capture->detect stage on N detector threads (output is identical
//       for any producers x shards combination); --buffer sets the
//       per-shard capture buffer capacity in batches and --batch-size the
//       rows per packet batch on the capture->detect hot path (any
//       value yields the identical feed). --trace-sample
//       span-traces that fraction of records/batches end to end and
//       --watchdog-deadline arms the stall watchdog (neither changes the
//       feed bytes). --data-dir makes the run crash-safe: every ordered
//       commit is appended to a write-ahead log under DIR, compacted
//       snapshots are taken every --snapshot-interval hours (default 24;
//       0 = final snapshot only), and a restart with the same flags
//       recovers from disk and resumes to a byte-identical feed.
//       --wal-segment-bytes caps segment size before rolling to a new
//       file; --wal-fsync picks the fsync policy (default roll: fsync on
//       segment roll and shutdown). --sites federates the telescope into
//       N sensor sites (a power of two up to 64; equal consecutive
//       sub-prefixes of the aperture), each with its own tunnel; the
//       merged feed is byte-identical for any --sites value.
//       --active-sites keeps only the first K sites capturing (a smaller
//       effective aperture); --site-outage IDX:FROM:TO (repeatable,
//       seconds) injects a tunnel outage at one site; --site-reconnect
//       sets every site's tunnel re-establishment delay in seconds
//       (default 5).
//   exiotctl query     --jsonl FILE --q EXPR
//       Evaluate a query-builder expression over an exported feed.
//   exiotctl fingerprint --banner TEXT
//       Match a banner against the rule database.
//   exiotctl metrics   [--scale S] [--days N] [--seed N]
//                      [--producers N] [--shards N] [--buffer N]
//                      [--trace-sample R] [--watchdog-deadline MS]
//                      [--format prom|json] [--out FILE]
//       Run the pipeline and dump its metrics registry — Prometheus text
//       exposition (what GET /v1/metrics serves) or the JSON snapshot.
//   exiotctl trace     [--scale S] [--days N] [--seed N] [--producers N]
//                      [--shards N]
//                      [--trace-sample R] [--limit N] [--format table|json]
//       Run the pipeline with span tracing on (default --trace-sample
//       0.01) and print the sampled end-to-end traces: per-stage
//       processing time vs queue-wait time for each sampled record/batch
//       (what GET /v1/traces serves).
//   exiotctl serve     [--scale S] [--days N] [--seed N] [--producers N]
//                      [--shards N]
//                      [--trace-sample R] [--watchdog-deadline MS]
//                      [--data-dir DIR] [--wal-segment-bytes N]
//                      [--snapshot-interval H] [--wal-fsync none|roll|always]
//                      [--port P] [--token T]
//                      [--api-workers N] [--api-timeout MS]
//                      [--api-event-loops N] [--api-cache-bytes N]
//                      [--api-rate-limit R]
//       Run the pipeline (crash-safe when --data-dir is set, recovering
//       any state a previous run left there), then serve the resulting feed
//       over the REST API
//       on 127.0.0.1:PORT until SIGINT/SIGTERM. --api-workers sizes the
//       worker pool (concurrent consumers), --api-event-loops the epoll
//       readiness loops owning the sockets, and --api-timeout sets the
//       per-connection read/write deadlines in milliseconds.
//       --api-cache-bytes bounds the sequence-keyed response cache for
//       /v1/snapshot and /v1/records (default 16 MiB; 0 disables — cached
//       responses carry a strong ETag and If-None-Match revalidation
//       answers 304). --api-rate-limit R throttles each bearer token to R
//       requests/second sustained (burst 10 or R, whichever is larger);
//       over-budget requests get 429 with a Retry-After header; 0 (the
//       default) disables throttling. Tracing and
//       the watchdog, when armed, are exposed at /v1/traces and /v1/health;
//       /v1/flightrecorder always serves the recent-event ring, and a
//       fatal signal dumps it to stderr.
//
// metrics, trace and serve also take every simulate flag that shapes the
// run (the population, threading, federation and durability flags).
// Each subcommand rejects, with exit code 2 and before doing any work, a
// flag it does not read, a flag without a value, a --port outside
// 0..65535 and an --api-timeout below 1.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/query.h"
#include "api/tcp.h"
#include "feed/export.h"
#include "fingerprint/rules.h"
#include "pipeline/exiot.h"
#include "pipeline/ingest.h"
#include "trace/trace.h"
#include "ui/dashboard.h"

namespace {

using namespace exiot;

/// Minimal --flag value argument scanner. Numeric accessors are strict: a
/// value that is not entirely numeric, or that overflows the target type,
/// is a usage error (exit 2) rather than a silent 0 the way atoi/atof
/// would have it — `--port 80x80` or `--days 999999999999` should stop the
/// run, not mangle it.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Exits 2 unless argv[2..] is a sequence of `--flag value` pairs whose
  /// every flag is in `known`, the flags `command` reads. Runs before the
  /// command does any work, so a misspelled flag cannot be ignored.
  void require_known(const std::string& command,
                     const std::vector<std::string_view>& known) const {
    for (int i = 2; i < argc_; i += 2) {
      const std::string_view flag = argv_[i];
      if (std::find(known.begin(), known.end(), flag) == known.end()) {
        std::fprintf(stderr, "exiotctl %s: unknown flag %s\n",
                     command.c_str(), argv_[i]);
        std::exit(2);
      }
      if (i + 1 == argc_) {
        std::fprintf(stderr, "exiotctl %s: %s expects a value\n",
                     command.c_str(), argv_[i]);
        std::exit(2);
      }
    }
  }

  std::string get(const std::string& flag, std::string fallback = "") const {
    for (int i = 2; i + 1 < argc_; i += 2) {
      if (flag == argv_[i]) return argv_[i + 1];
    }
    return fallback;
  }
  double get_double(const std::string& flag, double fallback) const {
    const std::string value = get(flag);
    if (value.empty()) return fallback;
    double parsed = 0.0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      std::fprintf(stderr, "exiotctl: %s expects a number, got \"%s\"\n",
                   flag.c_str(), value.c_str());
      std::exit(2);
    }
    return parsed;
  }
  int get_int(const std::string& flag, int fallback) const {
    const std::string value = get(flag);
    if (value.empty()) return fallback;
    int parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec == std::errc::result_out_of_range) {
      std::fprintf(stderr, "exiotctl: %s value out of range: \"%s\"\n",
                   flag.c_str(), value.c_str());
      std::exit(2);
    }
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      std::fprintf(stderr, "exiotctl: %s expects an integer, got \"%s\"\n",
                   flag.c_str(), value.c_str());
      std::exit(2);
    }
    return parsed;
  }
  /// get_int plus a >= 1 check, for thread/shard/capacity counts where
  /// zero or a negative would hang or crash the pipeline, and for run
  /// lengths (--days, --hours), where they would run nothing and exit 0.
  int get_positive_int(const std::string& flag, int fallback) const {
    const int value = get_int(flag, fallback);
    if (value < 1) {
      std::fprintf(stderr, "exiotctl: %s must be >= 1, got %d\n",
                   flag.c_str(), value);
      std::exit(2);
    }
    return value;
  }
  /// get_double plus a finite > 0 check, for the population --scale: a
  /// zero, negative or non-finite scale would clamp every host class to
  /// one host and still publish a feed.
  double get_positive_double(const std::string& flag,
                             double fallback) const {
    const double value = get_double(flag, fallback);
    if (!std::isfinite(value) || value <= 0.0) {
      std::fprintf(stderr, "exiotctl: %s must be a finite number > 0, "
                   "got \"%s\"\n", flag.c_str(), get(flag).c_str());
      std::exit(2);
    }
    return value;
  }
  /// Every value of a repeatable flag, in argv order (--site-outage can
  /// be given once per outage).
  std::vector<std::string> get_all(const std::string& flag) const {
    std::vector<std::string> values;
    for (int i = 2; i + 1 < argc_; i += 2) {
      if (flag == argv_[i]) values.push_back(argv_[i + 1]);
    }
    return values;
  }

 private:
  int argc_;
  char** argv_;
};

Cidr aperture() { return Cidr(Ipv4(44, 0, 0, 0), 8); }

/// `own` plus the flags every pipeline-running subcommand reads: the
/// population flags and those of apply_pipeline_flags.
std::vector<std::string_view> with_pipeline_flags(
    std::initializer_list<std::string_view> own) {
  std::vector<std::string_view> flags = {
      "--scale", "--days", "--seed",
      "--shards", "--producers", "--buffer", "--batch-size",
      "--trace-sample", "--watchdog-deadline",
      "--data-dir", "--wal-segment-bytes", "--snapshot-interval",
      "--wal-fsync",
      "--sites", "--active-sites", "--site-reconnect", "--site-outage"};
  flags.insert(flags.end(), own);
  return flags;
}

/// Threading + observability + durability flags shared by
/// simulate/metrics/trace/serve.
void apply_pipeline_flags(const Args& args,
                          pipeline::PipelineConfig& config) {
  config.num_detector_shards = args.get_positive_int("--shards", 1);
  config.num_producer_threads = args.get_positive_int("--producers", 1);
  config.buffer_capacity =
      static_cast<std::size_t>(args.get_positive_int("--buffer", 64));
  config.decode_batch_size = static_cast<std::size_t>(
      args.get_positive_int("--batch-size",
                            static_cast<int>(config.decode_batch_size)));
  config.trace_sample = args.get_double("--trace-sample", 0.0);
  config.watchdog_deadline =
      std::chrono::milliseconds(args.get_int("--watchdog-deadline", 0));
  config.data_dir = args.get("--data-dir");
  config.wal_segment_bytes = static_cast<std::size_t>(
      args.get_positive_int("--wal-segment-bytes",
                            static_cast<int>(config.wal_segment_bytes)));
  config.snapshot_interval_hours =
      args.get_int("--snapshot-interval", config.snapshot_interval_hours);
  const std::string fsync = args.get("--wal-fsync", "roll");
  if (fsync == "none") {
    config.wal_fsync = store::WalFsync::kNone;
  } else if (fsync == "roll") {
    config.wal_fsync = store::WalFsync::kOnRoll;
  } else if (fsync == "always") {
    config.wal_fsync = store::WalFsync::kEveryAppend;
  } else {
    std::fprintf(stderr,
                 "exiotctl: --wal-fsync must be none, roll, or always\n");
    std::exit(2);
  }

  // Telescope federation: carve the aperture into --sites sensor sites
  // (power of two), optionally capturing on only the first --active-sites
  // of them; the merged feed is byte-identical for any --sites value.
  config.num_sites = args.get_positive_int("--sites", 1);
  if (!telescope::is_power_of_two(config.num_sites) ||
      config.num_sites > pipeline::FederationStage::kMaxSites) {
    std::fprintf(stderr,
                 "exiotctl: --sites must be a power of two in 1..%d, got %d\n",
                 pipeline::FederationStage::kMaxSites, config.num_sites);
    std::exit(2);
  }
  config.active_sites = args.get_int("--active-sites", 0);
  if (config.active_sites < 0 || config.active_sites > config.num_sites) {
    std::fprintf(stderr,
                 "exiotctl: --active-sites must be in [0, --sites], got %d\n",
                 config.active_sites);
    std::exit(2);
  }
  config.site_specs.assign(static_cast<std::size_t>(config.num_sites),
                           pipeline::SiteSpec{});
  const double reconnect = args.get_double("--site-reconnect", 5.0);
  for (auto& spec : config.site_specs) {
    spec.reconnect_delay = seconds(reconnect);
  }
  // --site-outage IDX:FROM:TO (seconds, repeatable): inject a tunnel
  // outage at one site.
  for (const std::string& outage : args.get_all("--site-outage")) {
    const std::size_t c1 = outage.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : outage.find(':', c1 + 1);
    bool ok = c1 != std::string::npos && c2 != std::string::npos;
    int site = 0;
    double from = 0.0, to = 0.0;
    if (ok) {
      const std::string s0 = outage.substr(0, c1);
      const std::string s1 = outage.substr(c1 + 1, c2 - c1 - 1);
      const std::string s2 = outage.substr(c2 + 1);
      auto r0 = std::from_chars(s0.data(), s0.data() + s0.size(), site);
      auto r1 = std::from_chars(s1.data(), s1.data() + s1.size(), from);
      auto r2 = std::from_chars(s2.data(), s2.data() + s2.size(), to);
      ok = r0.ec == std::errc{} && r0.ptr == s0.data() + s0.size() &&
           r1.ec == std::errc{} && r1.ptr == s1.data() + s1.size() &&
           r2.ec == std::errc{} && r2.ptr == s2.data() + s2.size() &&
           site >= 0 && site < config.num_sites && to > from;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "exiotctl: --site-outage expects IDX:FROM:TO (seconds, "
                   "IDX < --sites, TO > FROM), got \"%s\"\n",
                   outage.c_str());
      std::exit(2);
    }
    config.site_specs[static_cast<std::size_t>(site)].outages.emplace_back(
        seconds(from), seconds(to));
  }
}

/// Post-construction durability report: recovery failures downgrade the
/// run to in-memory, which an operator asking for --data-dir should see.
void report_recovery(const pipeline::ExIotPipeline& pipe) {
  if (!pipe.recovery_error().empty()) {
    std::fprintf(stderr,
                 "warning: recovery failed (%s); running in-memory\n",
                 pipe.recovery_error().c_str());
    return;
  }
  const pipeline::Durability* durability = pipe.durability();
  if (durability == nullptr) return;
  const pipeline::RecoveryInfo& info = durability->recovery();
  if (info.recovered_index > 0) {
    std::printf("recovered %llu commits from disk (snapshot through %llu, "
                "replayed %llu)%s\n",
                static_cast<unsigned long long>(info.recovered_index),
                static_cast<unsigned long long>(info.snapshot_wal_index),
                static_cast<unsigned long long>(info.replayed_records),
                info.truncated_tail ? "; torn WAL tail truncated" : "");
  }
}

int cmd_capture(const Args& args) {
  const std::string dir = args.get("--dir");
  if (dir.empty()) {
    std::fprintf(stderr, "capture: --dir is required\n");
    return 2;
  }
  const double scale = args.get_positive_double("--scale", 0.1);
  const int hours_n = args.get_positive_int("--hours", 6);
  auto world = inet::WorldModel::standard(aperture());
  inet::PopulationConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  auto population =
      inet::Population::generate(config.scaled(scale), world);
  telescope::TrafficSynthesizer synth(population, aperture());
  auto manifest = telescope::capture_to_files(
      synth, 0, hours(hours_n), dir, telescope::CollectionModel{});
  if (!manifest.ok()) {
    std::fprintf(stderr, "capture failed: %s\n",
                 manifest.error().message.c_str());
    return 1;
  }
  std::size_t total = 0;
  for (const auto& hour : manifest.value()) {
    std::printf("  %s  %zu packets (available at %s)\n",
                hour.file.filename().string().c_str(), hour.packet_count,
                format_time(hour.ready_time).c_str());
    total += hour.packet_count;
  }
  std::printf("captured %zu packets over %d hours into %s\n", total,
              hours_n, dir.c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string dir = args.get("--dir");
  if (dir.empty()) {
    std::fprintf(stderr, "replay: --dir is required\n");
    return 2;
  }
  // Hourly trace files (HourlyTraceWriter::file_name), in hour order.
  std::map<std::int64_t, std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    std::int64_t hour = -1;
    const std::size_t dash = name.find('-');
    if (dash != std::string::npos) {
      std::from_chars(name.data() + dash + 1, name.data() + name.size(),
                      hour);
    }
    if (hour >= 0 && trace::HourlyTraceWriter::file_name(hour) == name) {
      files[hour] = entry.path();
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "replay: no trace files in %s\n", dir.c_str());
    return 1;
  }
  std::size_t scanners = 0;
  std::size_t flows_ended = 0;
  flow::DetectorEvents events;
  events.on_scanner = [&](const flow::FlowSummary&) { ++scanners; };
  events.on_flow_end = [&](const flow::FlowSummary&) { ++flows_ended; };
  pipeline::ThreadedIngest ingest(pipeline::IngestConfig{},
                                  flow::DetectorConfig{}, std::move(events));
  std::printf("%-26s %10s %10s %12s\n", "file", "packets", "scanners",
              "flows_ended");
  for (const auto& [hour, path] : files) {
    const std::string name = path.filename().string();
    const std::size_t scanners_before = scanners;
    const std::size_t ended_before = flows_ended;
    std::string error;
    // The file's hour moves through the production capture->detect path;
    // its idle flows expire at the end of that hour.
    const std::size_t n = ingest.run_hour_batched(
        [&](const pipeline::ThreadedIngest::BatchFn& fn) {
          auto read = trace::read_trace_file(path, fn);
          if (!read.ok()) error = read.error().message;
          return read.value_or(0);
        },
        (hour + 1) * kMicrosPerHour);
    if (!error.empty()) {
      std::fprintf(stderr, "replay: %s: %s\n", name.c_str(), error.c_str());
      return 1;
    }
    std::printf("%-26s %10zu %10zu %12zu\n", name.c_str(), n,
                scanners - scanners_before, flows_ended - ended_before);
  }
  ingest.finish();
  const flow::DetectorStats stats = ingest.stats();
  std::printf("total: %llu packets, %llu backscatter filtered, "
              "%llu scanners detected, %llu flows ended\n",
              static_cast<unsigned long long>(stats.packets_processed),
              static_cast<unsigned long long>(stats.backscatter_filtered),
              static_cast<unsigned long long>(stats.scanners_detected),
              static_cast<unsigned long long>(stats.flows_ended));
  return 0;
}

int cmd_simulate(const Args& args) {
  const double scale = args.get_positive_double("--scale", 0.2);
  const int days = args.get_positive_int("--days", 1);
  auto world = inet::WorldModel::standard(aperture());
  inet::PopulationConfig config;
  config.days = days;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  pipeline::PipelineConfig pipe_config;
  apply_pipeline_flags(args, pipe_config);
  auto population =
      inet::Population::generate(config.scaled(scale), world);
  pipeline::ExIotPipeline pipe(population, world, pipe_config);
  report_recovery(pipe);
  pipe.run_days(0, days);
  pipe.finish();
  std::printf("%s", ui::render_text_snapshot(pipe.feed(), {},
                                             &pipe.metrics()).c_str());

  if (const std::string path = args.get("--jsonl"); !path.empty()) {
    std::ofstream out(path);
    std::printf("wrote %zu records to %s\n",
                feed::export_jsonl(pipe.feed(), out), path.c_str());
  }
  if (const std::string path = args.get("--csv"); !path.empty()) {
    std::ofstream out(path);
    std::printf("wrote %zu records to %s\n",
                feed::export_csv(pipe.feed(), out), path.c_str());
  }
  if (const std::string path = args.get("--dashboard"); !path.empty()) {
    std::ofstream out(path);
    out << ui::render_html(pipe.feed(), {}, &pipe.metrics());
    std::printf("wrote dashboard to %s\n", path.c_str());
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  const double scale = args.get_positive_double("--scale", 0.2);
  const int days = args.get_positive_int("--days", 1);
  const std::string format = args.get("--format", "prom");
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "metrics: --format must be prom or json\n");
    return 2;
  }
  auto world = inet::WorldModel::standard(aperture());
  inet::PopulationConfig config;
  config.days = days;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  pipeline::PipelineConfig pipe_config;
  apply_pipeline_flags(args, pipe_config);
  auto population =
      inet::Population::generate(config.scaled(scale), world);
  pipeline::ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, days);
  pipe.finish();
  const std::string body = format == "json"
                               ? pipe.metrics().to_json().dump()
                               : pipe.metrics().render_prometheus();
  if (const std::string path = args.get("--out"); !path.empty()) {
    std::ofstream out(path);
    out << body;
    std::printf("wrote %zu metric families to %s\n",
                pipe.metrics().family_count(), path.c_str());
  } else {
    std::printf("%s", body.c_str());
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const double scale = args.get_positive_double("--scale", 0.2);
  const int days = args.get_positive_int("--days", 1);
  const std::string format = args.get("--format", "table");
  if (format != "table" && format != "json") {
    std::fprintf(stderr, "trace: --format must be table or json\n");
    return 2;
  }
  auto world = inet::WorldModel::standard(aperture());
  inet::PopulationConfig config;
  config.days = days;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  pipeline::PipelineConfig pipe_config;
  apply_pipeline_flags(args, pipe_config);
  auto population =
      inet::Population::generate(config.scaled(scale), world);
  if (args.get("--trace-sample").empty()) pipe_config.trace_sample = 0.01;
  pipeline::ExIotPipeline pipe(population, world, pipe_config);
  pipe.run_days(0, days);
  pipe.finish();

  const std::size_t limit =
      static_cast<std::size_t>(args.get_int("--limit", 20));
  if (format == "json") {
    std::printf("%s\n", pipe.tracer().to_json(limit).dump().c_str());
    return 0;
  }
  const json::Value body = pipe.tracer().to_json(limit);
  const json::Value* traces = body.find("traces");
  std::printf("%zu traces shown (%llu spans recorded, %llu dropped), "
              "sample rate %.4g\n",
              traces != nullptr ? traces->as_array().size() : 0,
              static_cast<unsigned long long>(pipe.tracer().spans_recorded()),
              static_cast<unsigned long long>(pipe.tracer().spans_dropped()),
              pipe.tracer().sample_rate());
  if (traces == nullptr) return 0;
  for (const json::Value& trace : traces->as_array()) {
    const std::int64_t src = trace.get_int("src");
    std::printf("trace %s", trace.get_string("trace_id").c_str());
    if (src != 0) {
      std::printf(" src %s",
                  Ipv4(static_cast<std::uint32_t>(src)).to_string().c_str());
    }
    std::printf("\n  %-10s %13s %14s %14s\n", "stage", "start_us",
                "processing_us", "queue_wait_us");
    const json::Value* spans = trace.find("spans");
    if (spans == nullptr) continue;
    for (const json::Value& span : spans->as_array()) {
      std::printf("  %-10s %13lld %14lld %14lld\n",
                  span.get_string("stage").c_str(),
                  static_cast<long long>(span.get_int("start_micros")),
                  static_cast<long long>(span.get_int("processing_micros")),
                  static_cast<long long>(span.get_int("queue_wait_micros")));
    }
  }
  return 0;
}

int cmd_query(const Args& args) {
  const std::string path = args.get("--jsonl");
  const std::string expression = args.get("--q");
  if (path.empty() || expression.empty()) {
    std::fprintf(stderr, "query: --jsonl and --q are required\n");
    return 2;
  }
  auto compiled = api::Query::compile(expression);
  if (!compiled.ok()) {
    std::fprintf(stderr, "query: %s\n", compiled.error().message.c_str());
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "query: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  std::size_t matched = 0, total = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = json::parse(line);
    if (!doc.ok()) continue;
    ++total;
    if (compiled.value().matches(doc.value())) {
      ++matched;
      if (matched <= 20) std::printf("%s\n", line.c_str());
    }
  }
  std::printf("-- %zu of %zu records matched%s\n", matched, total,
              matched > 20 ? " (first 20 shown)" : "");
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void on_serve_signal(int) { g_serve_stop.store(true); }

int cmd_serve(const Args& args) {
  const double scale = args.get_positive_double("--scale", 0.2);
  const int days = args.get_positive_int("--days", 1);
  // Every serve flag is checked here, before the pipeline runs.
  const int port = args.get_int("--port", 8080);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "serve: --port must be in 0..65535, got %d\n", port);
    return 2;
  }
  const int cache_bytes = args.get_int("--api-cache-bytes", 16 << 20);
  if (cache_bytes < 0) {
    std::fprintf(stderr, "serve: --api-cache-bytes must be >= 0, got %d\n",
                 cache_bytes);
    return 2;
  }
  const double rate_limit = args.get_double("--api-rate-limit", 0.0);
  if (rate_limit < 0.0) {
    std::fprintf(stderr, "serve: --api-rate-limit must be >= 0, got %g\n",
                 rate_limit);
    return 2;
  }
  api::TcpListenerOptions options;
  options.num_workers = args.get_positive_int("--api-workers", 4);
  options.num_event_loops = args.get_positive_int("--api-event-loops", 1);
  const int timeout_ms = args.get_positive_int("--api-timeout", 5000);
  options.read_timeout = std::chrono::milliseconds(timeout_ms);
  options.write_timeout = std::chrono::milliseconds(timeout_ms);
  auto world = inet::WorldModel::standard(aperture());
  inet::PopulationConfig config;
  config.days = days;
  config.seed = static_cast<std::uint64_t>(args.get_int("--seed", 42));
  pipeline::PipelineConfig pipe_config;
  apply_pipeline_flags(args, pipe_config);
  auto population =
      inet::Population::generate(config.scaled(scale), world);
  pipeline::ExIotPipeline pipe(population, world, pipe_config);
  report_recovery(pipe);
  pipe.run_days(0, days);
  pipe.finish();

  // A fatal signal while serving dumps the flight recorder to stderr.
  obs::install_crash_handler(&pipe.flight_recorder());

  const std::string token = args.get("--token", "exiot");
  api::ApiServer server(pipe.feed());
  server.add_token(token);
  server.attach_metrics(&pipe.metrics());
  server.attach_tracer(&pipe.tracer());
  server.attach_flight_recorder(&pipe.flight_recorder());
  if (pipe.watchdog() != nullptr) server.attach_watchdog(pipe.watchdog());

  // Response cache, keyed by the pipeline's commit sequence: a publish
  // invalidates exactly the responses it could have changed.
  api::ResponseCache cache(static_cast<std::size_t>(cache_bytes));
  if (cache_bytes > 0) {
    cache.instrument(pipe.metrics());
    server.attach_cache(&cache, [&pipe] { return pipe.commit_sequence(); });
  }
  api::TokenBucketLimiter limiter({rate_limit, std::max(10.0, rate_limit)});
  if (limiter.enabled()) {
    limiter.instrument(pipe.metrics());
    server.attach_rate_limiter(&limiter);
  }

  api::TcpListener listener(server, options);
  listener.instrument(pipe.metrics());
  if (pipe.watchdog() != nullptr) listener.set_watchdog(pipe.watchdog());
  auto bound = listener.start(static_cast<std::uint16_t>(port));
  if (!bound.ok()) {
    std::fprintf(stderr, "serve: %s\n", bound.error().message.c_str());
    return 1;
  }
  std::printf("serving http://127.0.0.1:%u (%d loops, %d workers, %d ms "
              "deadlines, %d cache bytes, %g req/s per token)\n",
              bound.value(), options.num_event_loops, options.num_workers,
              timeout_ms, cache_bytes, rate_limit);
  std::printf("  curl http://127.0.0.1:%u/v1/health\n", bound.value());
  std::printf("  curl -H 'Authorization: Bearer %s' "
              "'http://127.0.0.1:%u/v1/records?limit=10'\n",
              token.c_str(), bound.value());
  std::printf("Ctrl-C to drain and exit.\n");

  std::signal(SIGINT, on_serve_signal);
  std::signal(SIGTERM, on_serve_signal);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  std::printf("draining...\n");
  listener.stop();
  return 0;
}

int cmd_fingerprint(const Args& args) {
  const std::string banner = args.get("--banner");
  if (banner.empty()) {
    std::fprintf(stderr, "fingerprint: --banner is required\n");
    return 2;
  }
  auto db = fingerprint::RuleDb::standard();
  auto match = db.match(banner);
  if (!match.has_value()) {
    std::printf("no rule matched");
    if (fingerprint::looks_like_device_text(banner)) {
      std::printf(" (banner looks like device text — candidate for a new "
                  "rule)");
    }
    std::printf("\n");
    return 0;
  }
  std::printf("rule: %s\nlabel: %s\nvendor: %s\ntype: %s\n",
              match->rule_name.c_str(),
              match->label == fingerprint::BannerLabel::kIot ? "IoT"
                                                             : "non-IoT",
              match->vendor.c_str(), match->device_type.c_str());
  if (!match->model.empty()) std::printf("model: %s\n", match->model.c_str());
  if (!match->firmware.empty()) {
    std::printf("firmware: %s\n", match->firmware.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: exiotctl <capture|replay|simulate|trace|query|"
                 "fingerprint|metrics|serve> [flags]\n");
    return 2;
  }
  using Handler = int (*)(const Args&);
  const std::map<std::string,
                 std::pair<Handler, std::vector<std::string_view>>>
      commands = {
          {"capture",
           {cmd_capture, {"--dir", "--scale", "--hours", "--seed"}}},
          {"replay", {cmd_replay, {"--dir"}}},
          {"simulate",
           {cmd_simulate,
            with_pipeline_flags({"--jsonl", "--csv", "--dashboard"})}},
          {"trace", {cmd_trace, with_pipeline_flags({"--limit", "--format"})}},
          {"query", {cmd_query, {"--jsonl", "--q"}}},
          {"fingerprint", {cmd_fingerprint, {"--banner"}}},
          {"metrics", {cmd_metrics, with_pipeline_flags({"--format", "--out"})}},
          {"serve",
           {cmd_serve,
            with_pipeline_flags({"--port", "--token", "--api-workers",
                                 "--api-timeout", "--api-event-loops",
                                 "--api-cache-bytes", "--api-rate-limit"})}},
      };
  const Args args(argc, argv);
  const std::string command = argv[1];
  if (const auto it = commands.find(command); it != commands.end()) {
    args.require_known(command, it->second.second);
    return it->second.first(args);
  }
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return 2;
}
