// Workload-independent pieces of the benchmark: seeded input generation,
// percentiles, span recording with self-time arithmetic, an incremental
// HTTP/1.1 response reader (Content-Length and chunked framing), the
// per-run environment record, and the result line run.py checks.
// Everything here is benchmark code; the program under test is reached
// only through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/packet.h"

namespace perfbench {

// ---------------------------------------------------------------- inputs

/// SplitMix64: the benchmark's own generator, so its inputs (flood
/// packets, request sequences) do not change when the program's RNG does.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mixes a spoofed-source SYN flood into a time-ordered packet stream:
/// after each input packet, with probability share / (1 - share), one SYN
/// from a random source outside `aperture` to a random aperture address is
/// emitted at the same timestamp — so floods make up `share` of the output
/// in expectation and the stream stays in non-decreasing time order. Every
/// flood source is drawn fresh: one packet per source, the shape that grows
/// a detector's source table fastest.
class SpoofedSynFlood {
 public:
  SpoofedSynFlood(std::uint64_t seed, double share, exiot::Cidr aperture);

  /// Calls sink(pkt), then sink(flood packet) when one is due.
  template <typename Sink>
  void pass(const exiot::net::Packet& pkt, Sink&& sink) {
    sink(pkt);
    if (rng_.unit() < insert_prob_) sink(make(pkt.ts));
  }

  std::uint64_t emitted() const { return emitted_; }

 private:
  exiot::net::Packet make(exiot::TimeMicros ts);

  SeededRng rng_;
  double insert_prob_;
  exiot::Cidr aperture_;
  std::uint64_t emitted_ = 0;
};

// ---------------------------------------------------------- percentiles

/// Nearest-rank percentile of `samples` (q in (0, 1]) together with how
/// many samples lie beyond its rank. A tail percentile is reportable only
/// when at least ten samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
};
Percentile percentile(std::vector<double> samples, double q);

/// Smallest sample count for which `q` has ten samples beyond its rank.
std::size_t min_samples_for_tail(double q);

/// Median (nearest rank) of `samples`; 0 when empty.
double median(std::vector<double> samples);

// ---------------------------------------------------------------- spans

/// Spans recorded by the benchmark around calls into the program. Kept in
/// memory (one vector, single recording thread) and written out at the
/// end. A disabled recorder records nothing; begin() returns -1.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // Index of the enclosing span, -1 = root.
    std::int64_t tag = -1;     // Hour index or request id.
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open span. `name` must outlive the
  /// recorder (string literals).
  std::int32_t begin(const char* name, std::int64_t tag = -1);
  void end(std::int32_t id);

  /// RAII span; a no-op when the recorder is disabled.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t tag = -1)
        : rec_(rec), id_(rec.begin(name, tag)) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int32_t id_;
  };

  /// Test hook: records a finished span with explicit times.
  std::int32_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::int64_t tag = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the durations of its direct children.
  std::vector<std::int64_t> self_ns() const;
  /// Self time summed per span name, in seconds.
  std::map<std::string, double> self_seconds_by_name() const;
  /// Duration summed per span name, in seconds.
  std::map<std::string, double> total_seconds_by_name() const;
  /// Writes one JSON object per span.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

std::int64_t now_ns();

// ------------------------------------------------------------ HTTP wire

/// Decodes a chunked body from `in`. Returns 1 when the terminating chunk
/// (and trailer) is complete — `body` holds the reassembled bytes and
/// `consumed` the framing length — 0 when more bytes are needed, and -1 on
/// malformed framing.
int decode_chunked(std::string_view in, std::string* body,
                   std::size_t* consumed);

struct WireResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // Keys lower.
  std::string body;  // Chunked bodies reassembled.
  bool chunked = false;
  bool close = false;        // Connection: close.
  std::size_t wire_bytes = 0;
};

/// Incremental reader for the responses of one keep-alive connection.
class ResponseReader {
 public:
  enum class State { kNeedMore, kDone, kError };

  /// Appends received bytes and tries to complete the current response.
  State feed(std::string_view bytes);
  /// The completed response (valid after kDone until the next take()).
  WireResponse take();
  bool idle() const { return buffer_.empty(); }

 private:
  State parse();

  std::string buffer_;
  WireResponse current_;
  bool done_ = false;
};

/// Parses one complete serialized response (the in-process side of the
/// comparison). Returns false on malformed input.
bool parse_response(std::string_view raw, WireResponse* out);

/// Transport-independent form of a response for byte comparison: status,
/// handler headers (Date and the framing/connection headers dropped,
/// sorted) and the reassembled body.
std::string normalized(const WireResponse& response);

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull);

// -------------------------------------------------------- run reporting

/// Host and process facts written beside every run's metrics, so a
/// noisy-neighbour run can be recognised.
struct EnvRecord {
  std::uint64_t steal_jiffies = 0;  // Host-wide, during the run.
  double cpu_s = 0.0;               // This process, user + system.
  unsigned nproc = 0;
};
/// Host-wide steal jiffies so far (/proc/stat), 0 when unreadable.
std::uint64_t steal_jiffies_now();
double process_cpu_seconds();
/// CPU seconds of the calling thread.
double thread_cpu_seconds();
/// VmHWM of this process in MiB.
double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a false check is a failure.
  void check(bool ok, const std::string& what);
};

/// The result object, on one line.
std::string result_json(const RunResult& result);
std::string env_json(const EnvRecord& env);

}  // namespace perfbench
