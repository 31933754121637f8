#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/log.h"

namespace exiot::store {
namespace {

constexpr std::array<char, 8> kSegmentMagic = {'E', 'X', 'W', 'A',
                                               'L', '\x01', 0, 0};
constexpr std::size_t kHeaderBytes = 16;  // magic + u64 start_index LE.
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 1;  // len + crc + type.
// A frame longer than this is corruption, not data: the largest real
// payload (a publish record with 120 feature doubles) is a few KB.
constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

void put_u32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

void put_u64(char* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(in[3]))
          << 24);
}

std::uint64_t get_u64(const char* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Parsed result of one on-disk segment.
struct SegmentScan {
  std::uint64_t start_index = 0;
  std::vector<WalRecord> records;
  std::size_t valid_bytes = 0;  // Offset just past the last whole record.
  bool torn = false;            // A partial/corrupt frame followed.
};

/// Reads one segment file fully. A bad frame is reported as `torn` at the
/// offset it starts — the caller decides whether that is legal (final
/// segment) or fatal (earlier segment).
Result<SegmentScan> scan_segment(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error("wal_io", "cannot open segment " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kSegmentMagic.data(),
                  kSegmentMagic.size()) != 0) {
    return make_error("wal_corrupt",
                      "bad segment header in " + path.string());
  }
  SegmentScan scan;
  scan.start_index = get_u64(bytes.data() + kSegmentMagic.size());
  std::size_t off = kHeaderBytes;
  std::uint64_t index = scan.start_index;
  while (off < bytes.size()) {
    if (bytes.size() - off < kFrameHeaderBytes) {
      scan.torn = true;
      break;
    }
    const std::uint32_t len = get_u32(bytes.data() + off);
    const std::uint32_t crc = get_u32(bytes.data() + off + 4);
    if (len > kMaxPayloadBytes ||
        bytes.size() - off - kFrameHeaderBytes < len) {
      scan.torn = true;
      break;
    }
    // CRC covers type byte + payload, so a flipped type is also caught.
    const char* body = bytes.data() + off + 8;
    if (crc32(body, 1 + len) != crc) {
      scan.torn = true;
      break;
    }
    WalRecord record;
    record.index = index++;
    record.type = static_cast<std::uint8_t>(
        static_cast<unsigned char>(body[0]));
    record.payload.assign(body + 1, len);
    scan.records.push_back(std::move(record));
    off += kFrameHeaderBytes + len;
    scan.valid_bytes = off;
  }
  if (scan.valid_bytes == 0) scan.valid_bytes = kHeaderBytes;
  return scan;
}

/// Segment files in the directory, sorted by start index.
Result<std::vector<std::pair<std::uint64_t, std::filesystem::path>>>
list_segments(const std::filesystem::path& dir) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 4 + 20 + 4 || name.rfind("wal-", 0) != 0 ||
        name.substr(name.size() - 4) != ".seg") {
      continue;
    }
    const std::string digits = name.substr(4, 20);
    if (digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10),
                     entry.path());
  }
  if (ec) {
    return make_error("wal_io", "cannot list " + dir.string() + ": " +
                                    ec.message());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto& table = crc_table();
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string wal_segment_name(std::uint64_t start_index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(start_index));
  return buf;
}

Result<WalScan> read_wal(const std::filesystem::path& dir,
                         std::uint64_t from) {
  auto segments = list_segments(dir);
  if (!segments.ok()) return segments.error();

  WalScan out;
  const auto& files = segments.value();
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto scan = scan_segment(files[i].second);
    if (!scan.ok()) return scan.error();
    const SegmentScan& seg = scan.value();
    if (seg.start_index != files[i].first) {
      return make_error("wal_corrupt",
                        "segment " + files[i].second.string() +
                            " header start index does not match its name");
    }
    const std::uint64_t seg_end = seg.start_index + seg.records.size();
    if (i + 1 < files.size()) {
      if (seg.torn) {
        return make_error("wal_corrupt",
                          "corrupt record inside non-final segment " +
                              files[i].second.string());
      }
      if (seg_end != files[i + 1].first) {
        return make_error(
            "wal_corrupt",
            "index gap between " + files[i].second.string() + " and " +
                files[i + 1].second.string());
      }
    } else {
      out.truncated_tail = seg.torn;
    }
    for (const WalRecord& record : seg.records) {
      if (record.index >= from) out.records.push_back(record);
    }
    out.next_index = seg_end;
  }
  return out;
}

WalWriter::WalWriter(std::filesystem::path dir, WalOptions options,
                     obs::MetricsRegistry* metrics)
    : dir_(std::move(dir)), options_(options) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  appends_c_ = &reg.counter("exiot_wal_appends_total",
                            "Records appended to the write-ahead log");
  bytes_c_ = &reg.counter("exiot_wal_bytes_written_total",
                          "Bytes written to WAL segments (frames+headers)");
  fsync_c_ = &reg.counter("exiot_wal_fsync_total", "WAL fsync(2) calls");
  fsync_micros_c_ =
      &reg.counter("exiot_wal_fsync_micros_total",
                   "Cumulative wall time spent in WAL fsync, microseconds");
  torn_c_ = &reg.counter("exiot_wal_torn_tail_truncated_total",
                         "Torn WAL tails truncated during open");
  segments_g_ = &reg.gauge("exiot_wal_segments", "Live WAL segment files");
  next_index_g_ =
      &reg.gauge("exiot_wal_next_index", "Index the next WAL append gets");
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (options_.fsync != WalFsync::kNone) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::open(
    const std::filesystem::path& dir, WalOptions options,
    obs::MetricsRegistry* metrics) {
  if (options.segment_bytes < kHeaderBytes + kFrameHeaderBytes) {
    return make_error("wal_config", "segment_bytes too small");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return make_error("wal_io", "cannot create " + dir.string() + ": " +
                                    ec.message());
  }
  // Validate the existing log end to end first — recovery must fail loudly
  // on real corruption before any writer touches the directory.
  auto existing = read_wal(dir);
  if (!existing.ok()) return existing.error();

  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, options, metrics));
  auto segments = list_segments(dir);
  if (!segments.ok()) return segments.error();
  const auto& files = segments.value();

  if (files.empty()) {
    writer->next_index_ = 0;
    Status opened = writer->open_segment(0, /*append_existing=*/false);
    if (!opened.ok()) return opened.error();
    writer->segments_ = 1;
  } else {
    const WalScan& scan = existing.value();
    writer->next_index_ = scan.next_index;
    writer->segments_ = files.size();
    const std::filesystem::path& last = files.back().second;
    if (scan.truncated_tail) {
      // Physically drop the torn frame so the next append starts on a
      // clean boundary instead of interleaving with garbage.
      auto tail = scan_segment(last);
      if (!tail.ok()) return tail.error();
      EXIOT_LOG(LogLevel::kWarn, "wal",
                "truncating torn tail of " + last.filename().string() +
                    " at byte " + std::to_string(tail.value().valid_bytes));
      if (::truncate(last.c_str(),
                     static_cast<off_t>(tail.value().valid_bytes)) != 0) {
        return make_error("wal_io", "cannot truncate torn tail of " +
                                        last.string() + ": " +
                                        std::strerror(errno));
      }
      writer->torn_c_->inc();
    }
    Status opened =
        writer->open_segment(files.back().first, /*append_existing=*/true);
    if (!opened.ok()) return opened.error();
  }
  writer->segments_g_->set(static_cast<double>(writer->segments_));
  writer->next_index_g_->set(static_cast<double>(writer->next_index_));
  return writer;
}

Status WalWriter::open_segment(std::uint64_t start_index,
                               bool append_existing) {
  const std::filesystem::path path = dir_ / wal_segment_name(start_index);
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return make_error("wal_io", "cannot open " + path.string() + ": " +
                                    std::strerror(errno));
  }
  segment_start_ = start_index;
  if (append_existing) {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    segment_bytes_used_ = end > 0 ? static_cast<std::size_t>(end) : 0;
    return Ok{};
  }
  char header[kHeaderBytes];
  std::memcpy(header, kSegmentMagic.data(), kSegmentMagic.size());
  put_u64(header + kSegmentMagic.size(), start_index);
  if (::write(fd_, header, sizeof(header)) !=
      static_cast<ssize_t>(sizeof(header))) {
    return make_error("wal_io", "cannot write header of " + path.string() +
                                    ": " + std::strerror(errno));
  }
  segment_bytes_used_ = kHeaderBytes;
  bytes_c_->inc(kHeaderBytes);
  return Ok{};
}

Status WalWriter::fsync_current() {
  const auto start = std::chrono::steady_clock::now();
  if (::fsync(fd_) != 0) {
    return make_error("wal_io",
                      std::string("fsync failed: ") + std::strerror(errno));
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  fsync_c_->inc();
  fsync_micros_c_->inc(static_cast<std::uint64_t>(micros));
  return Ok{};
}

Status WalWriter::roll() {
  if (options_.fsync == WalFsync::kOnRoll) {
    Status synced = fsync_current();
    if (!synced.ok()) return synced;
  }
  ::close(fd_);
  fd_ = -1;
  Status opened = open_segment(next_index_, /*append_existing=*/false);
  if (!opened.ok()) return opened;
  ++segments_;
  segments_g_->set(static_cast<double>(segments_));
  return Ok{};
}

Result<std::uint64_t> WalWriter::append(std::uint8_t type,
                                        std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return make_error("wal_closed", "WAL writer is closed");
  if (payload.size() > kMaxPayloadBytes) {
    return make_error("wal_config", "WAL payload exceeds 16MB frame limit");
  }
  const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();
  if (segment_bytes_used_ + frame_bytes > options_.segment_bytes &&
      segment_bytes_used_ > kHeaderBytes) {
    Status rolled = roll();
    if (!rolled.ok()) return rolled.error();
  }
  // One buffer, one write(2): a SIGKILL cannot leave half a frame behind
  // (the kernel applies each append atomically to the page cache).
  std::string frame;
  frame.resize(frame_bytes);
  put_u32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  frame[8] = static_cast<char>(type);
  std::memcpy(frame.data() + 9, payload.data(), payload.size());
  put_u32(frame.data() + 4,
          crc32(frame.data() + 8, 1 + payload.size()));
  const char* out = frame.data();
  std::size_t remaining = frame.size();
  while (remaining > 0) {
    const ssize_t wrote = ::write(fd_, out, remaining);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return make_error("wal_io", std::string("WAL write failed: ") +
                                      std::strerror(errno));
    }
    out += wrote;
    remaining -= static_cast<std::size_t>(wrote);
  }
  segment_bytes_used_ += frame_bytes;
  const std::uint64_t index = next_index_++;
  if (options_.fsync == WalFsync::kEveryAppend) {
    Status synced = fsync_current();
    if (!synced.ok()) return synced.error();
  }
  appends_c_->inc();
  bytes_c_->inc(frame_bytes);
  next_index_g_->set(static_cast<double>(next_index_));
  return index;
}

Status WalWriter::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return make_error("wal_closed", "WAL writer is closed");
  return fsync_current();
}

std::size_t WalWriter::prune(std::uint64_t upto) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto segments = list_segments(dir_);
  if (!segments.ok()) return 0;
  const auto& files = segments.value();
  std::size_t removed = 0;
  // Segment i's records end where segment i+1 begins; the last segment is
  // the active tail and is never deleted.
  for (std::size_t i = 0; i + 1 < files.size(); ++i) {
    if (files[i + 1].first <= upto) {
      std::error_code ec;
      if (std::filesystem::remove(files[i].second, ec) && !ec) ++removed;
    }
  }
  segments_ -= removed;
  segments_g_->set(static_cast<double>(segments_));
  return removed;
}

std::uint64_t WalWriter::next_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_index_;
}

}  // namespace exiot::store
