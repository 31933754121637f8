#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

SpoofedSynFlood::SpoofedSynFlood(std::uint64_t seed, double share,
                                 exiot::Cidr aperture)
    : rng_(seed ^ 0x5F100D5EEDull),
      insert_prob_(share / (1.0 - share)),
      aperture_(aperture) {}

exiot::net::Packet SpoofedSynFlood::make(exiot::TimeMicros ts) {
  std::uint32_t src = 0;
  do {
    src = static_cast<std::uint32_t>(rng_.next());
  } while (aperture_.contains(exiot::Ipv4(src)) || (src >> 24) == 0);
  const std::uint32_t host_bits =
      aperture_.prefix_len() >= 32
          ? 0
          : static_cast<std::uint32_t>(rng_.next()) &
                (0xFFFFFFFFu >> aperture_.prefix_len());
  const exiot::Ipv4 dst(aperture_.network().value() | host_bits);
  const auto src_port = static_cast<std::uint16_t>(1024 + rng_.below(64512));
  static constexpr std::uint16_t kPorts[] = {23, 80, 443, 22, 8080, 445,
                                             3389, 2323, 5555, 7547};
  const std::uint16_t dst_port = kPorts[rng_.below(std::size(kPorts))];
  ++emitted_;
  return exiot::net::make_syn(ts, exiot::Ipv4(src), dst, src_port, dst_port,
                              static_cast<std::uint32_t>(rng_.next()));
}

// ---------------------------------------------------------- percentiles

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it (1-based rank ceil(q*n)); the 1e-9 guards q*n landing a hair
  // above an integer through floating-point error.
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

std::size_t min_samples_for_tail(double q) {
  std::size_t n = 1;
  while (percentile(std::vector<double>(n, 0.0), q).beyond < 10) ++n;
  return n;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

// ---------------------------------------------------------------- spans

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t SpanRecorder::begin(const char* name, std::int64_t tag) {
  if (!enabled_) return -1;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back(), tag});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close innermost-first (RAII scopes); tolerate an out-of-order
  // close by dropping everything above it.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::int32_t SpanRecorder::add(const char* name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int32_t parent,
                               std::int64_t tag) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, tag});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_name() const {
  const std::vector<std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

std::map<std::string, double> SpanRecorder::total_seconds_by_name() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    out[span.name] += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"tag\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.tag));
  }
  return std::fclose(out) == 0;
}

// ------------------------------------------------------------ HTTP wire

namespace {

std::string lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Parses the head (status line + headers) ending at `head_end`.
bool parse_head(std::string_view head, WireResponse* out) {
  std::size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  if (status_line.substr(0, 9) != "HTTP/1.1 " || status_line.size() < 12) {
    return false;
  }
  out->status = 0;
  for (char c : status_line.substr(9, 3)) {
    if (c < '0' || c > '9') return false;
    out->status = out->status * 10 + (c - '0');
  }
  out->headers.clear();
  while (line_end != std::string_view::npos) {
    const std::size_t start = line_end + 2;
    line_end = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, line_end == std::string_view::npos ? head.npos
                                                  : line_end - start);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    out->headers.emplace_back(lower(trim(line.substr(0, colon))),
                              std::string(trim(line.substr(colon + 1))));
  }
  return true;
}

const std::string* find_header(const WireResponse& r, std::string_view key) {
  for (const auto& [name, value] : r.headers) {
    if (name == key) return &value;
  }
  return nullptr;
}

}  // namespace

int decode_chunked(std::string_view in, std::string* body,
                   std::size_t* consumed) {
  body->clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t line_end = in.find("\r\n", pos);
    if (line_end == std::string_view::npos) {
      return in.size() - pos > 32 ? -1 : 0;  // A size line is short.
    }
    std::string_view size_text = in.substr(pos, line_end - pos);
    if (const std::size_t semi = size_text.find(';');
        semi != std::string_view::npos) {
      size_text = size_text.substr(0, semi);  // Chunk extension.
    }
    size_text = trim(size_text);
    if (size_text.empty() || size_text.size() > 15) return -1;
    std::size_t size = 0;
    for (char c : size_text) {
      int digit = -1;
      if (c >= '0' && c <= '9') digit = c - '0';
      if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      if (digit < 0) return -1;
      size = size * 16 + static_cast<std::size_t>(digit);
    }
    pos = line_end + 2;
    if (size == 0) {
      // Trailer section: header lines until an empty line.
      while (true) {
        const std::size_t end = in.find("\r\n", pos);
        if (end == std::string_view::npos) return 0;
        const bool empty = end == pos;
        pos = end + 2;
        if (empty) {
          *consumed = pos;
          return 1;
        }
      }
    }
    if (in.size() - pos < size + 2) return 0;
    if (in.substr(pos + size, 2) != "\r\n") return -1;
    body->append(in.substr(pos, size));
    pos += size + 2;
  }
}

ResponseReader::State ResponseReader::feed(std::string_view bytes) {
  buffer_.append(bytes);
  return parse();
}

ResponseReader::State ResponseReader::parse() {
  if (done_) return State::kDone;
  const std::size_t head_end = buffer_.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return buffer_.size() > (64u << 10) ? State::kError : State::kNeedMore;
  }
  WireResponse r;
  if (!parse_head(std::string_view(buffer_).substr(0, head_end), &r)) {
    return State::kError;
  }
  const std::size_t body_start = head_end + 4;
  const std::string* te = find_header(r, "transfer-encoding");
  const std::string* cl = find_header(r, "content-length");
  std::size_t total = 0;
  if (te != nullptr) {
    if (lower(*te) != "chunked") return State::kError;
    std::size_t consumed = 0;
    const int rc = decode_chunked(std::string_view(buffer_).substr(body_start),
                                  &r.body, &consumed);
    if (rc < 0) return State::kError;
    if (rc == 0) return State::kNeedMore;
    r.chunked = true;
    total = body_start + consumed;
  } else {
    std::size_t length = 0;
    if (cl != nullptr) {
      if (cl->empty() || cl->size() > 12) return State::kError;
      for (char c : *cl) {
        if (c < '0' || c > '9') return State::kError;
        length = length * 10 + static_cast<std::size_t>(c - '0');
      }
    }
    if (buffer_.size() - body_start < length) return State::kNeedMore;
    r.body = buffer_.substr(body_start, length);
    total = body_start + length;
  }
  const std::string* conn = find_header(r, "connection");
  r.close = conn != nullptr && lower(*conn) == "close";
  r.wire_bytes = total;
  buffer_.erase(0, total);
  current_ = std::move(r);
  done_ = true;
  return State::kDone;
}

WireResponse ResponseReader::take() {
  done_ = false;
  return std::move(current_);
}

bool parse_response(std::string_view raw, WireResponse* out) {
  ResponseReader reader;
  if (reader.feed(raw) != ResponseReader::State::kDone) return false;
  *out = reader.take();
  return reader.idle();
}

std::string normalized(const WireResponse& response) {
  std::vector<std::pair<std::string, std::string>> headers;
  for (const auto& header : response.headers) {
    if (header.first == "date" || header.first == "connection" ||
        header.first == "content-length" ||
        header.first == "transfer-encoding") {
      continue;
    }
    headers.push_back(header);
  }
  std::sort(headers.begin(), headers.end());
  std::string out = std::to_string(response.status) + "\n";
  for (const auto& [name, value] : headers) out += name + ": " + value + "\n";
  out += "\n";
  out += response.body;
  return out;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// -------------------------------------------------------- run reporting

std::uint64_t steal_jiffies_now() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0;
  for (auto& field : fields) {
    if (!(stat >> field)) return 0;
  }
  return fields[7];  // user nice system idle iowait irq softirq steal
}

namespace {

double rusage_seconds(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

double process_cpu_seconds() { return rusage_seconds(RUSAGE_SELF); }

double thread_cpu_seconds() { return rusage_seconds(RUSAGE_THREAD); }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const Metric& m : result.metrics) {
    // %.17g keeps every digit the measurement has.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

std::string env_json(const EnvRecord& env) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"env\": {\"steal_jiffies\": %llu, \"cpu_s\": %.6f, "
                "\"nproc\": %u}}",
                static_cast<unsigned long long>(env.steal_jiffies), env.cpu_s,
                env.nproc);
  return buf;
}

}  // namespace perfbench
