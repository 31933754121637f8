// Snapshot files for the durability layer: each snapshot is one JSON
// document capturing the full pipeline state as of a WAL index, written
// atomically (tmp + fsync + rename) so a crash mid-snapshot leaves the
// previous one intact. Recovery loads the newest snapshot whose WAL index
// is at or before the replay target and replays the WAL tail from there;
// compaction then prunes WAL segments the snapshot already covers.
//
// File layout inside a data directory (shared with the WAL):
//   snapshot-<wal_index, zero padded>.json   {"version":1,"wal_index":N,...}
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "json/json.h"

namespace exiot::store {

/// One snapshot file on disk.
struct SnapshotFile {
  std::uint64_t wal_index = 0;  // First WAL index NOT covered.
  std::filesystem::path path;
};

/// A loaded snapshot.
struct LoadedSnapshot {
  std::uint64_t wal_index = 0;
  json::Value state;
};

class SnapshotDirectory {
 public:
  explicit SnapshotDirectory(std::filesystem::path dir);

  /// Writes `state` as the snapshot covering WAL indexes [0, wal_index).
  /// Atomic: the file appears fully written or not at all. The state's
  /// "version" and "wal_index" fields are stamped here.
  Status save(std::uint64_t wal_index, json::Value state) const;

  /// Snapshot files present, ascending by WAL index. Files that do not
  /// match the naming scheme are ignored.
  std::vector<SnapshotFile> list() const;

  /// Loads the newest snapshot with wal_index <= `limit`, skipping (with a
  /// warning) files that fail to parse or whose version is unknown —
  /// recovery falls back to an older snapshot plus a longer WAL replay
  /// rather than refusing to start. nullopt when none qualifies.
  Result<std::optional<LoadedSnapshot>> load_latest(
      std::uint64_t limit = std::uint64_t(-1)) const;

  /// Deletes all but the newest `keep` snapshots. Returns files removed.
  std::size_t prune(std::size_t keep = 2) const;

 private:
  std::filesystem::path dir_;
};

/// "snapshot-<wal_index, zero padded>.json"
std::string snapshot_file_name(std::uint64_t wal_index);

}  // namespace exiot::store
