#include "trace/trace.h"

#include <cstdio>
#include <fstream>

#include "net/wire.h"

namespace exiot::trace {
namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'X', 'T', '1'};

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(const std::vector<std::uint8_t>& in, std::size_t& pos,
                std::uint64_t& out) {
  out = 0;
  int shift = 0;
  while (pos < in.size() && shift < 64) {
    std::uint8_t b = in[pos++];
    out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if (!(b & 0x80)) return true;
    shift += 7;
  }
  return false;
}

/// ZigZag maps signed deltas to unsigned varints (timestamps can regress
/// slightly across merge boundaries).
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

TraceEncoder::TraceEncoder() {
  buffer_.assign(std::begin(kMagic), std::end(kMagic));
}

void TraceEncoder::add(const net::Packet& pkt) {
  put_varint(buffer_, zigzag(pkt.ts - last_ts_));
  last_ts_ = pkt.ts;
  scratch_.clear();
  const std::size_t wire_len = net::serialize_to(pkt, scratch_);
  put_varint(buffer_, wire_len);
  buffer_.insert(buffer_.end(), scratch_.begin(), scratch_.end());
}

std::vector<std::uint8_t> TraceEncoder::finish() {
  // End-of-stream marker: a zero delta and a zero length. No real record
  // can have length 0 (the minimum wire image is 28 bytes), so decoders
  // can tell a complete stream from a torn tail.
  put_varint(buffer_, 0);
  put_varint(buffer_, 0);
  std::vector<std::uint8_t> out = std::move(buffer_);
  buffer_.assign(std::begin(kMagic), std::end(kMagic));
  last_ts_ = 0;
  return out;
}

TraceDecoder::TraceDecoder(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  valid_ = bytes_.size() >= 4 && std::equal(std::begin(kMagic),
                                            std::end(kMagic), bytes_.begin());
  pos_ = 4;
  if (!valid_) last_error_ = "bad trace magic";
}

int TraceDecoder::next_record(TimeMicros* ts,
                              std::span<const std::uint8_t>* body) {
  if (!valid_ || finished_) return 0;
  if (pos_ >= bytes_.size()) {
    // The stream just stops — even exactly on a record boundary this is a
    // torn tail (the writer died before sealing), same as the WAL.
    last_error_ = "truncated trace tail: missing end-of-stream marker";
    valid_ = false;
    return -1;
  }
  std::uint64_t delta_zz = 0;
  std::uint64_t len = 0;
  if (!get_varint(bytes_, pos_, delta_zz) ||
      !get_varint(bytes_, pos_, len)) {
    last_error_ = "truncated record header";
    valid_ = false;
    return -1;
  }
  if (len == 0) {
    finished_ = true;
    if (pos_ < bytes_.size()) {
      last_error_ = "trailing bytes after end-of-stream marker";
      valid_ = false;
      return -1;
    }
    return 0;
  }
  // Compared against the bytes left, not as pos_ + len: a corrupt
  // ten-byte length varint can come close to 2^64 and wrap the sum.
  if (len > bytes_.size() - pos_) {
    last_error_ = "truncated packet body";
    valid_ = false;
    return -1;
  }
  *ts = last_ts_ + unzigzag(delta_zz);
  *body = std::span<const std::uint8_t>(bytes_.data() + pos_, len);
  pos_ += len;
  return 1;
}

std::size_t TraceDecoder::next_batch(net::PacketBatch& batch,
                                     std::size_t max) {
  std::size_t n = 0;
  TimeMicros ts = 0;
  std::span<const std::uint8_t> body;
  while (n < max) {
    if (next_record(&ts, &body) <= 0) break;
    net::Packet& slot = batch.append_slot();
    if (net::parse_canonical(body, ts, slot)) {
      batch.commit_back();
    } else {
      // Non-canonical or invalid record: the general parse either accepts
      // it (unusual but well-formed image) or words the error.
      batch.abandon_back();
      auto parsed = net::parse(body, ts);
      if (!parsed.ok()) {
        last_error_ = parsed.error().message;
        valid_ = false;
        break;
      }
      batch.push_back(std::move(parsed).take());
    }
    last_ts_ = ts;
    ++n;
  }
  return n;
}

HourlyTraceWriter::HourlyTraceWriter(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

HourlyTraceWriter::~HourlyTraceWriter() { (void)close(); }

std::string HourlyTraceWriter::file_name(std::int64_t hour_index) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "telescope-%06lld.ext",
                static_cast<long long>(hour_index));
  return buf;
}

Status HourlyTraceWriter::add(const net::Packet& pkt) {
  const std::int64_t hour = pkt.ts / kMicrosPerHour;
  if (hour < current_hour_ || (hour == current_hour_ && !open_)) {
    // The hour's file is already written: reopening it would truncate it
    // to the stray packets, so refuse instead.
    return make_error("trace_order",
                      "packet at hour " + std::to_string(hour) +
                          " arrived after hour " +
                          std::to_string(current_hour_) + " was started");
  }
  if (hour != current_hour_) {
    if (auto s = rotate_to(hour); !s.ok()) return s;
  }
  encoder_.add(pkt);
  return Ok{};
}

Status HourlyTraceWriter::rotate_to(std::int64_t hour_index) {
  if (auto s = close(); !s.ok()) return s;
  current_hour_ = hour_index;
  open_ = true;
  return Ok{};
}

Status HourlyTraceWriter::close() {
  if (!open_) return Ok{};
  auto bytes = encoder_.finish();
  auto path = dir_ / file_name(current_hour_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error("trace_io", "cannot open " + path.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return make_error("trace_io", "write failed: " + path.string());
  }
  open_ = false;
  return Ok{};
}

Result<std::size_t> read_trace_file(
    const std::filesystem::path& file,
    const std::function<void(const net::PacketBatch&)>& fn) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return make_error("trace_io", "cannot open " + file.string());
  TraceDecoder dec(std::vector<std::uint8_t>(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
  if (!dec.valid()) return make_error("trace_io", dec.last_error());
  std::size_t n = 0;
  net::PacketBatch batch;
  batch.reserve(kReadBatchRows);
  while (true) {
    batch.clear();
    const std::size_t got = dec.next_batch(batch, kReadBatchRows);
    if (got == 0) break;
    fn(batch);
    n += got;
  }
  if (!dec.last_error().empty()) {
    return make_error("trace_io", dec.last_error());
  }
  return n;
}

}  // namespace exiot::trace
