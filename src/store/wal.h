// A segmented append-only write-ahead log. The pipeline's calling thread is
// the single producer: every record it commits (publication, END_FLOW,
// hour boundary) is framed and appended here *before* its side effects
// run, so a crash can lose at most the in-flight tail — never misorder or
// corrupt what it already acknowledged.
//
// Durability contract:
//   - Records are CRC-framed ([len][crc32][type][payload]); a torn or
//     bit-flipped tail in the final segment is *truncated* on open, never
//     misparsed. Corruption before the final segment is a hard error (the
//     middle of the log cannot tear under append-only writes).
//   - Each frame is a single write(2), so a SIGKILL between appends leaves
//     a clean tail; only power loss can tear one, and the CRC catches it.
//   - fsync policy is configurable: none (page cache only), on segment
//     roll (the default — bounded loss of one segment), or every append
//     (group-commit durability, measured in bench_wal_overhead).
//   - Segments are named by the index of their first record
//     ("wal-<start_index>.seg"); snapshot compaction prunes every segment
//     whose records are all covered by the snapshot, always keeping the
//     active tail segment so the next index survives an empty restart.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace exiot::store {

/// CRC-32 (IEEE 802.3) over `len` bytes; chainable via `seed`.
std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t seed = 0);

enum class WalFsync {
  kNone,        // write(2) only; survives SIGKILL, not power loss.
  kOnRoll,      // fsync a segment before rolling to the next (default).
  kEveryAppend  // fsync after every record (fsync-per-commit).
};

struct WalOptions {
  std::size_t segment_bytes = 4u << 20;
  WalFsync fsync = WalFsync::kOnRoll;
};

/// One decoded log record.
struct WalRecord {
  std::uint64_t index = 0;  // Position in the global commit log.
  std::uint8_t type = 0;
  std::string payload;
};

/// What a directory scan found.
struct WalScan {
  std::vector<WalRecord> records;  // In index order, from `from` on.
  std::uint64_t next_index = 0;    // Index the next append would get.
  bool truncated_tail = false;     // Final segment ended in a torn record.
};

/// Reads every valid record with index >= `from`. A torn tail in the final
/// segment stops the scan (flagged, not an error); a malformed record in
/// any earlier segment, a bad header, or an index gap between segments is
/// an error.
Result<WalScan> read_wal(const std::filesystem::path& dir,
                         std::uint64_t from = 0);

/// The append side. `open` recovers the tail: it validates existing
/// segments, physically truncates a torn final record, and positions after
/// the last valid one. Appends are mutex-guarded; in the pipeline every
/// append (commits and hour-boundary records alike) comes from its
/// calling thread, in commit order.
class WalWriter {
 public:
  static Result<std::unique_ptr<WalWriter>> open(
      const std::filesystem::path& dir, WalOptions options,
      obs::MetricsRegistry* metrics = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record and returns its index. Rolls (and per policy
  /// fsyncs) the segment when it would exceed segment_bytes.
  Result<std::uint64_t> append(std::uint8_t type, std::string_view payload);

  /// fsyncs the active segment regardless of policy.
  Status sync();

  /// Deletes segments whose records all have index < `upto` (covered by a
  /// snapshot). The newest segment is always kept. Returns segments
  /// removed.
  std::size_t prune(std::uint64_t upto);

  std::uint64_t next_index() const;

 private:
  WalWriter(std::filesystem::path dir, WalOptions options,
            obs::MetricsRegistry* metrics);

  Status open_segment(std::uint64_t start_index, bool append_existing);
  Status roll();
  Status fsync_current();

  std::filesystem::path dir_;
  WalOptions options_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::uint64_t next_index_ = 0;
  std::uint64_t segment_start_ = 0;  // First index of the active segment.
  std::size_t segment_bytes_used_ = 0;
  std::size_t segments_ = 0;

  obs::Counter* appends_c_ = nullptr;
  obs::Counter* bytes_c_ = nullptr;
  obs::Counter* fsync_c_ = nullptr;
  obs::Counter* fsync_micros_c_ = nullptr;
  obs::Counter* torn_c_ = nullptr;
  obs::Gauge* segments_g_ = nullptr;
  obs::Gauge* next_index_g_ = nullptr;
};

/// "wal-<start_index, zero padded>.seg"
std::string wal_segment_name(std::uint64_t start_index);

}  // namespace exiot::store
