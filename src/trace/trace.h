// A pcap-like packet trace format with hourly rotation, mirroring the role
// libtrace + CAIDA's hourly compressed captures play in the paper. Records
// are framed with varint-delta timestamps (a light, dependency-free
// compression that exploits the near-monotone arrival clock).
//
// Stream framing: 4-byte magic, then per-record [zigzag-varint ts delta]
// [varint wire length][wire bytes], terminated by an end-of-stream marker
// (varint 0, varint 0 — a record length of 0 is impossible, the minimum
// wire image is 28 bytes). The marker gives truncation the same semantics
// the WAL's torn-tail handling has: a stream that simply stops — even
// exactly on a record boundary — is a hard decode error, not a silent
// short read; only a stream closing with the marker is complete.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/batch.h"
#include "net/packet.h"

namespace exiot::trace {

/// In-memory encoder producing the trace byte stream.
class TraceEncoder {
 public:
  TraceEncoder();

  /// Appends one packet (wire-serialized into a reused scratch buffer; no
  /// per-packet allocation) to the stream.
  void add(const net::Packet& pkt);

  /// Appends the end-of-stream marker, releases the encoded stream, and
  /// resets the encoder.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> buffer_;
  std::vector<std::uint8_t> scratch_;
  TimeMicros last_ts_ = 0;
};

/// Streaming decoder over a trace byte stream.
class TraceDecoder {
 public:
  explicit TraceDecoder(std::vector<std::uint8_t> bytes);

  /// True if the stream header was valid.
  bool valid() const { return valid_; }

  /// Appends up to `max` packets to `batch` and returns the number
  /// appended; 0 means end of stream. Decode errors — including a stream
  /// that ends without the end-of-stream marker (torn tail) — surface
  /// through last_error() and also end the stream; the packets before the
  /// bad record are still appended. The happy path overlays the canonical
  /// fixed header layout with no per-packet Result; non-canonical or
  /// corrupt records fall back to net::parse, which decides accept/reject
  /// and words the error.
  std::size_t next_batch(net::PacketBatch& batch, std::size_t max);

  const std::string& last_error() const { return last_error_; }

 private:
  /// Reads one record header + body span. Returns:
  ///  1 — record available (*ts/*body set),
  ///  0 — clean end of stream (marker seen, no trailing bytes),
  /// -1 — error (last_error_ set, stream invalidated).
  int next_record(TimeMicros* ts, std::span<const std::uint8_t>* body);

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  TimeMicros last_ts_ = 0;
  bool valid_ = false;
  bool finished_ = false;  // End-of-stream marker consumed.
  std::string last_error_;
};

/// Writes packets into hour-aligned trace files under a directory, the way
/// CAIDA publishes the telescope capture. File names are
/// "telescope-<hour_index>.ext" where hour_index = ts / 1h.
class HourlyTraceWriter {
 public:
  explicit HourlyTraceWriter(std::filesystem::path dir);
  ~HourlyTraceWriter();

  HourlyTraceWriter(const HourlyTraceWriter&) = delete;
  HourlyTraceWriter& operator=(const HourlyTraceWriter&) = delete;

  /// Packets must be fed in non-decreasing hour order (within an hour,
  /// arbitrary order is fine — the real capture is merge-sorted upstream).
  /// A packet of an earlier hour (or of the current one after close()) is
  /// refused with an error; the files already written are left intact.
  Status add(const net::Packet& pkt);

  /// Flushes and closes the current hour file, if any.
  Status close();

  static std::string file_name(std::int64_t hour_index);

 private:
  Status rotate_to(std::int64_t hour_index);

  std::filesystem::path dir_;
  TraceEncoder encoder_;
  std::int64_t current_hour_ = -1;
  bool open_ = false;
};

/// Reads one hour file and hands its packets to `fn` in arrival order, in
/// batches of up to kReadBatchRows rows. Returns the packet count, or an
/// error if the file is missing/corrupt/torn; the packets decoded before a
/// bad record have been delivered by then.
inline constexpr std::size_t kReadBatchRows = 1024;
Result<std::size_t> read_trace_file(
    const std::filesystem::path& file,
    const std::function<void(const net::PacketBatch&)>& fn);

}  // namespace exiot::trace
