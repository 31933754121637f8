// `replay`: the CAIDA-side detection program over captured hourly files.
//
// Set-up captures 8 hours, from 06:00 of day 1 on, from the seeded
// synthesizer into hourly trace files with the repository's trace encoder,
// with a seeded spoofed-source SYN flood (5% of packets, one packet per
// random source) mixed in. Packets are captured as their wire images, the
// way a telescope records them. Every captured hour holds the same number
// of packets (the first kHourPackets of its emission; hours with fewer are
// skipped), so an hour is the same amount of work whatever population the
// seed draws. The timed phase replays the captured hours in passes, each
// through fresh stage instances: every hour is read from its file, decoded
// with TraceDecoder::next_batch, fed through FederationStage::run_window
// at 4 sites, then ThreadedIngest::run_hour_batched at 1 shard.
//
// Gate: every hour's detector event stream (scanner, sample and flow-end
// events plus second reports) equals that of a 1-site reference fed the
// same packets without the trace codec.
//
// Traced run: after a warm-up pass, a fixed 6 passes alternate traced and
// untraced; the traced ones carry spans around next_batch, the federation
// stage and the ingest sink (layer times are their totals), and the pps of
// the two kinds gives the tracing overhead.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>

#include "pipeline/federation.h"
#include "pipeline/ingest.h"
#include "probe/prober.h"
#include "telescope/synthesizer.h"
#include "net/wire.h"
#include "trace/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using exiot::TimeMicros;

constexpr std::int64_t kFirstHour = 6;
constexpr std::size_t kCaptureHours = 8;
/// Packets per captured hour. At the replay population's scale the hours
/// from 06:00 on hold 230k-1M packets depending on the seed and the hour;
/// most hold more than this, so the capture rarely skips one.
constexpr std::size_t kHourPackets = 400'000;
/// Population scale of `replay`, fixed because the hour size is.
constexpr double kReplayScale = 0.2;
constexpr int kSites = 4;
constexpr double kFloodShare = 0.05;
constexpr std::size_t kBatchRows = 512;
/// Traced run: a warm-up pass, then traced and untraced passes alternating.
constexpr int kTracedPasses = 7;

/// Running digest of one hour's detector events.
class EventDigest {
 public:
  exiot::flow::DetectorEvents sink() {
    exiot::flow::DetectorEvents events;
    events.on_scanner = [this](const exiot::flow::FlowSummary& s) {
      mix(1);
      summary(s);
    };
    events.on_sample = [this](exiot::Ipv4 src,
                              const std::vector<exiot::net::Packet>& pkts) {
      mix(2);
      mix(src.value());
      for (const auto& p : pkts) packet(p);
    };
    events.on_flow_end = [this](const exiot::flow::FlowSummary& s) {
      mix(3);
      summary(s);
    };
    events.on_report = [this](const exiot::flow::SecondReport& r) {
      mix(4);
      for (std::uint64_t v : {static_cast<std::uint64_t>(r.second_start),
                              r.total, r.tcp, r.udp, r.icmp,
                              r.backscatter_filtered, r.new_scanners}) {
        mix(v);
      }
      std::vector<std::pair<std::uint16_t, std::uint64_t>> ports(
          r.per_port.begin(), r.per_port.end());
      std::sort(ports.begin(), ports.end());
      for (const auto& [port, n] : ports) {
        mix(port);
        mix(n);
      }
    };
    return events;
  }

  /// The digest so far; starts the next one.
  std::uint64_t take() {
    const std::uint64_t out = hash_;
    hash_ = fnv1a("");
    return out;
  }

 private:
  void mix(std::uint64_t v) {
    hash_ = fnv1a(std::string_view(reinterpret_cast<const char*>(&v),
                                   sizeof(v)),
                  hash_);
  }
  void summary(const exiot::flow::FlowSummary& s) {
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(s.src.value()),
          static_cast<std::uint64_t>(s.first_seen),
          static_cast<std::uint64_t>(s.detect_time),
          static_cast<std::uint64_t>(s.last_seen), s.total_packets}) {
      mix(v);
    }
  }
  void packet(const exiot::net::Packet& p) {
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(p.ts),
          static_cast<std::uint64_t>(p.src.value()),
          static_cast<std::uint64_t>(p.dst.value()),
          static_cast<std::uint64_t>(p.src_port) << 16 | p.dst_port,
          static_cast<std::uint64_t>(p.seq) << 32 | p.ack,
          static_cast<std::uint64_t>(p.flags) << 8 |
              static_cast<std::uint64_t>(p.proto),
          static_cast<std::uint64_t>(p.total_length) << 32 |
              static_cast<std::uint64_t>(p.ip_id) << 16 | p.window,
          static_cast<std::uint64_t>(p.ttl) << 16 |
              static_cast<std::uint64_t>(p.icmp_type_v) << 8 |
              p.icmp_code}) {
      mix(v);
    }
  }

  std::uint64_t hash_ = fnv1a("");
};

exiot::pipeline::ThreadedIngest make_ingest(EventDigest& digest,
                                            exiot::obs::MetricsRegistry* m) {
  return exiot::pipeline::ThreadedIngest(
      exiot::pipeline::IngestConfig{1, 64, kBatchRows},
      exiot::flow::DetectorConfig{}, digest.sink(),
      exiot::probe::table1_ports(), m);
}

/// The seeded capture: synthesized telescope traffic with the spoofed SYN
/// flood mixed in, emitted hour by hour as SoA batches.
class FloodedCapture {
 public:
  FloodedCapture(const Sim& sim, const Options& options)
      : synth_(sim.population, kAperture),
        flood_(options.seed, kFloodShare, kAperture) {
    out_.reserve(kBatchRows);
  }

  /// Calls fn(batch) for the first kHourPackets packets hour `h` emits;
  /// returns their count, which is kHourPackets unless the hour emits
  /// fewer. Hours must be emitted in increasing order, skipped ones too.
  template <typename Fn>
  std::size_t emit_hour(std::int64_t h, Fn&& fn) {
    const TimeMicros t0 = h * exiot::kMicrosPerHour;
    std::size_t count = 0, kept = 0;
    auto add = [&](const exiot::net::Packet& p) {
      if (kept == kHourPackets) return;
      ++kept;
      // The wire image defines the captured packet: header fields the
      // synthesizer leaves inconsistent with its options (total_length,
      // data_offset) read back as the wire carries them.
      wire_.clear();
      exiot::net::serialize_to(p, wire_);
      exiot::net::Packet& row = out_.append_slot();
      if (!exiot::net::parse_canonical(wire_, p.ts, row)) {
        auto parsed = exiot::net::parse(wire_, p.ts);
        if (!parsed.ok()) {
          throw std::runtime_error("unparseable synthesized packet: " +
                                   parsed.error().message);
        }
        row = parsed.value();
      }
      out_.commit_back();
      if (out_.size() == kBatchRows) {
        count += out_.size();
        fn(static_cast<const exiot::net::PacketBatch&>(out_));
        out_.clear();
      }
    };
    synth_.emit_batches(t0, t0 + exiot::kMicrosPerHour, kBatchRows,
                        [&](const exiot::net::PacketBatch& batch) {
                          for (std::size_t i = 0; i < batch.size(); ++i) {
                            flood_.pass(batch[i], add);
                          }
                        });
    if (!out_.empty()) {
      count += out_.size();
      fn(static_cast<const exiot::net::PacketBatch&>(out_));
      out_.clear();
    }
    return count;
  }

 private:
  exiot::telescope::TrafficSynthesizer synth_;
  SpoofedSynFlood flood_;
  exiot::net::PacketBatch out_;
  std::vector<std::uint8_t> wire_;
};

struct CapturedHour {
  std::int64_t hour = 0;
  fs::path file;
};

/// Writes the capture as hourly trace files named by hour: the first
/// kCaptureHours hours from kFirstHour on that emit at least kHourPackets
/// packets, each file holding the first kHourPackets of them. (The
/// benchmark encodes each window itself because HourlyTraceWriter routes
/// packets by timestamp and rewrites an hour's file when the stream steps
/// back into it, which the synthesizer's rare out-of-window packets
/// trigger.)
void capture(const Sim& sim, const Options& options, const fs::path& dir) {
  fs::create_directories(dir);
  FloodedCapture source(sim, options);
  exiot::trace::TraceEncoder encoder;
  std::size_t captured = 0;
  for (std::int64_t h = kFirstHour; captured < kCaptureHours; ++h) {
    if (h == kDays * 24) {
      throw std::runtime_error("too few hours hold " +
                               std::to_string(kHourPackets) + " packets");
    }
    const std::size_t n =
        source.emit_hour(h, [&](const exiot::net::PacketBatch& batch) {
          for (std::size_t i = 0; i < batch.size(); ++i) encoder.add(batch[i]);
        });
    const std::vector<std::uint8_t> bytes = encoder.finish();
    if (n < kHourPackets) continue;
    const fs::path file = dir / exiot::trace::HourlyTraceWriter::file_name(h);
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("cannot write " + file.string());
    ++captured;
  }
}

/// capture() in a child process: the encoder's hour-sized buffers would
/// otherwise set this process's peak RSS, which should measure the replay.
/// Returns the captured hours in order.
std::vector<CapturedHour> capture_in_child(const Sim& sim,
                                           const Options& options,
                                           const fs::path& dir) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      capture(sim, options, dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("capture failed");
  }
  std::vector<CapturedHour> hours;
  for (std::int64_t h = kFirstHour;
       h < kDays * 24 && hours.size() < kCaptureHours; ++h) {
    fs::path file = dir / exiot::trace::HourlyTraceWriter::file_name(h);
    if (fs::exists(file)) hours.push_back({h, std::move(file)});
  }
  if (hours.size() != kCaptureHours) {
    throw std::runtime_error("capture wrote too few hours");
  }
  return hours;
}

/// Per-hour event digests of the 1-site, codec-free reference fed the
/// captured hours' packets, plus the finish() digest last.
std::vector<std::uint64_t> reference_digests(
    const Sim& sim, const Options& options,
    const std::vector<CapturedHour>& hours) {
  EventDigest digest;
  exiot::obs::MetricsRegistry registry;
  auto ingest = make_ingest(digest, &registry);
  FloodedCapture source(sim, options);
  std::vector<std::uint64_t> out;
  std::size_t next = 0;
  for (std::int64_t h = kFirstHour; next < hours.size(); ++h) {
    if (h != hours[next].hour) {
      source.emit_hour(h, [](const exiot::net::PacketBatch&) {});
      continue;
    }
    ingest.run_hour_batched(
        [&](const exiot::pipeline::ThreadedIngest::BatchFn& fn) {
          return source.emit_hour(h, fn);
        },
        (h + 1) * exiot::kMicrosPerHour);
    out.push_back(digest.take());
    ++next;
  }
  ingest.finish();
  out.push_back(digest.take());
  return out;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return bytes;
}

struct Pass {
  std::vector<double> hour_ms;
  std::vector<std::uint64_t> digests;  // Per hour, then finish().
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  std::size_t tracked_peak = 0;
  double skew = 0.0;  // Max / min per-site captured packets.
  exiot::flow::DetectorStats stats;
  bool decode_ok = true;
};

/// One replay of the captured hours through fresh stage instances.
Pass run_pass(const std::vector<CapturedHour>& hours, SpanRecorder& spans,
              std::int64_t tag_base) {
  Pass pass;
  exiot::obs::MetricsRegistry registry;
  exiot::pipeline::FederationStage federation(
      exiot::pipeline::FederationConfig{kAperture, kSites, 0, {}}, &registry);
  EventDigest digest;
  auto ingest = make_ingest(digest, &registry);
  exiot::net::PacketBatch batch;
  batch.reserve(kBatchRows);
  const std::int64_t t_pass = now_ns();
  for (std::size_t i = 0; i < hours.size(); ++i) {
    const std::int64_t tag = tag_base + static_cast<std::int64_t>(i);
    const TimeMicros hour_end = (hours[i].hour + 1) * exiot::kMicrosPerHour;
    const std::int64_t t0 = now_ns();
    {
      SpanRecorder::Scope hour_span(spans, "replay.hour", tag);
      // Reading the file and releasing its buffer count as trace.read, so
      // the layer spans cover the hour.
      std::optional<exiot::trace::TraceDecoder> decoder;
      {
        SpanRecorder::Scope read(spans, "trace.read", tag);
        decoder.emplace(read_file(hours[i].file));
      }
      pass.decode_ok = pass.decode_ok && decoder->valid();
      {
        SpanRecorder::Scope detect(spans, "flow.run_hour_batched", tag);
        pass.packets += ingest.run_hour_batched(
            [&](const exiot::pipeline::ThreadedIngest::BatchFn& fn) {
              SpanRecorder::Scope fed(spans, "pipeline.run_window", tag);
              return federation.run_window(
                  [&](const exiot::pipeline::FederationStage::BatchFn& inner) {
                    std::size_t n = 0;
                    while (true) {
                      std::size_t got = 0;
                      {
                        SpanRecorder::Scope dec(spans, "trace.next_batch", tag);
                        batch.clear();
                        got = decoder->next_batch(batch, kBatchRows);
                      }
                      if (got == 0) break;
                      n += got;
                      inner(batch);
                    }
                    return n;
                  },
                  [&](const exiot::net::PacketBatch& b) {
                    SpanRecorder::Scope sink(spans, "flow.sink", tag);
                    fn(b);
                  });
            },
            hour_end);
      }
      pass.decode_ok = pass.decode_ok && decoder->last_error().empty();
      SpanRecorder::Scope release(spans, "trace.read", tag);
      decoder.reset();
    }
    pass.hour_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    pass.digests.push_back(digest.take());
    pass.tracked_peak = std::max(pass.tracked_peak, ingest.tracked_sources());
  }
  ingest.finish();
  pass.digests.push_back(digest.take());
  pass.stats = ingest.stats();
  pass.wall_s = static_cast<double>(now_ns() - t_pass) * 1e-9;
  double lo = 0.0, hi = 0.0;
  for (int s = 0; s < kSites; ++s) {
    const auto n = static_cast<double>(registry.counter_value(
        "exiot_federation_packets_total",
        {{"site", federation.site(static_cast<std::size_t>(s)).name}}));
    lo = s == 0 ? n : std::min(lo, n);
    hi = std::max(hi, n);
  }
  pass.skew = ratio(hi, lo);
  return pass;
}

}  // namespace

RunResult run_replay(const Options& options) {
  RunResult result;
  const fs::path root = options.work_dir / "replay";
  fs::remove_all(root);

  // Set-up: population + capture to hourly files, repeated.
  std::vector<double> setup_s;
  std::unique_ptr<Sim> sim;
  std::vector<CapturedHour> hours;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    sim.reset();
    if (!hours.empty()) fs::remove_all(hours.front().file.parent_path());
    const std::int64_t t0 = now_ns();
    sim = make_sim(options, kReplayScale);
    hours = capture_in_child(*sim, options,
                             root / ("capture-" + std::to_string(rep)));
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  SpanRecorder spans(options.trace);
  SpanRecorder untraced(false);
  std::vector<Pass> passes;
  std::vector<bool> traced, warm_ups;
  std::vector<double> hour_ms;
  const std::size_t min_hours = min_samples_for_tail(0.85);
  const std::int64_t t_start = now_ns();
  while (true) {
    const bool trace_this = options.trace && passes.size() % 2 == 1;
    const bool warm_up = options.trace && passes.empty();
    passes.push_back(run_pass(hours, trace_this ? spans : untraced,
                              static_cast<std::int64_t>(passes.size() *
                                                        kCaptureHours)));
    traced.push_back(trace_this);
    warm_ups.push_back(warm_up);

    hour_ms.insert(hour_ms.end(), passes.back().hour_ms.begin(),
                   passes.back().hour_ms.end());
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if (options.trace ? passes.size() >= kTracedPasses
                      : elapsed >= options.seconds &&
                            hour_ms.size() >= min_hours) {
      break;
    }
  }
  const double peak_mib = peak_rss_mib();

  const std::vector<std::uint64_t> reference =
      reference_digests(*sim, options, hours);
  std::uint64_t packets = 0;
  double wall_s = 0.0;
  for (const Pass& pass : passes) {
    packets += pass.packets;
    wall_s += pass.wall_s;
    for (std::size_t i = 0; i < pass.digests.size(); ++i) {
      result.check(pass.decode_ok && pass.digests[i] == reference[i],
                   "replayed hour " + std::to_string(i) +
                       " differs from the codec-free reference");
    }
  }
  std::string captured;
  for (const CapturedHour& h : hours) {
    captured += (captured.empty() ? "" : ",") + std::to_string(h.hour);
  }
  std::printf(
      "replay: %zu passes x %zu hours (%s) of %zu packets, %llu packets, "
      "%.3f s timed\n",
      passes.size(), kCaptureHours, captured.c_str(), kHourPackets,
      static_cast<unsigned long long>(packets), wall_s);

  if (options.trace) {
    LayerReport layers;
    const auto self = spans.self_seconds_by_name();
    auto get = [&self](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    layers.set("trace.read_s", get("trace.read"));
    layers.set("trace.decode_s", get("trace.next_batch"));
    layers.set("pipeline.federation_s", get("pipeline.run_window"));
    layers.set("flow.detect_s",
               get("flow.run_hour_batched") + get("flow.sink"));
    // Self check: the layer spans cover each hour span.
    const std::vector<std::int64_t> self_ns = spans.self_ns();
    double coverage = 100.0;
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      const SpanRecorder::Span& s = spans.spans()[i];
      if (std::string_view(s.name) != "replay.hour") continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      coverage = std::min(
          coverage,
          100.0 * (1.0 - ratio(static_cast<double>(self_ns[i]), dur)));
    }
    result.check(coverage >= 95.0, "layer spans cover under 95% of an hour");
    layers.set("trace.coverage_pct", coverage);
    std::vector<double> traced_pps, untraced_pps;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      if (warm_ups[i]) continue;
      const double pps =
          static_cast<double>(passes[i].packets) / passes[i].wall_s;
      (traced[i] ? traced_pps : untraced_pps).push_back(pps);
    }
    layers.set("trace.overhead_pct",
               100.0 * (ratio(median(untraced_pps), median(traced_pps)) -
                        1.0));
    const Pass& last = passes.back();
    layers.set("flow.tracked_sources_peak",
               static_cast<double>(last.tracked_peak));
    layers.set("pipeline.federation_skew", last.skew);
    const auto pass_packets = static_cast<double>(last.stats.packets_processed);
    layers.set("flow.packets", pass_packets);
    layers.set("flow.scanners",
               static_cast<double>(last.stats.scanners_detected));
    layers.set("flow.backscatter_ratio",
               ratio(static_cast<double>(last.stats.backscatter_filtered),
                     pass_packets));
    spans.write_jsonl(
        (options.trace_dir / ("replay-seed" + std::to_string(options.seed) +
                              ".spans.jsonl"))
            .string());
    layers.emit_into(result);
  } else {
    const Percentile p50 = percentile(hour_ms, 0.5);
    const Percentile p85 = percentile(hour_ms, 0.85);
    result.check(p85.beyond >= 10, "too few hours for p85");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_mib, "MiB");
    // Median over passes: every pass is the same work, so a burst of host
    // contention during one pass moves this less than the mean.
    std::vector<double> pass_pps;
    for (const Pass& pass : passes) {
      pass_pps.push_back(static_cast<double>(pass.packets) / pass.wall_s);
    }
    result.add("throughput_per_s", median(pass_pps), "1/s");
    result.add("latency_p50_ms", p50.value, "ms");
    result.add("latency_tail_ms", p85.value, "ms");
  }
  fs::remove_all(root);
  return result;
}

}  // namespace perfbench
