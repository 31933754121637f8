// The durability layer: makes the feed crash-safe by logging the
// pipeline's ordered commit stream to a write-ahead log and periodically
// compacting it into snapshots.
//
// The commit stream IS the WAL. Every state mutation is a commit the
// pipeline driver makes in a deterministic, totally ordered sequence:
// publications (which carry the trainer example and trigger notifications),
// END_FLOW mark-ended ops, and the hour-end boundary (retrain + expiry).
// Each commit is framed and appended to the WAL *before* its side effects
// run, so the log always dominates the in-memory state.
//
// Recovery = snapshot + WAL tail + deterministic re-run:
//   1. Load the newest valid snapshot and restore FeedManager /
//      UpdateClassifier / outbox state from it (targets must be empty).
//   2. Replay the WAL tail from the snapshot's index through the same
//      commit code the live path uses (no divergent re-implementation).
//   3. The pipeline then re-runs its deterministic ingest from hour 0;
//      log_*() returns false for every commit whose index is below the
//      recovered index, telling the caller to skip side effects already
//      reflected in the recovered state. Once the re-run catches up, the
//      log resumes appending and commits apply normally — the run
//      continues exactly where the crash cut it off, byte-identical to an
//      uninterrupted run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "feed/manager.h"
#include "feed/notify.h"
#include "ml/features.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pipeline/update_classifier.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace exiot::pipeline {

enum class WalRecordType : std::uint8_t {
  kPublish = 1,    // One annotated record: feed insert + trainer example +
                   // notification, all derived from this payload.
  kMarkEnded = 2,  // END_FLOW for an already-published record.
  kHourEnd = 3,    // Hour boundary: retrain attempt + historical expiry.
};

/// One annotated record, ready to commit: the publish payload of the WAL.
struct AnnotateResult {
  feed::CtiRecord record;
  ml::FeatureVector features;
  int training_label = -1;        // 1 / 0 feed the trainer; -1 = none.
  TimeMicros annotate_start = 0;  // max(probe done, sample ready).
  TimeMicros published = 0;
  bool ended = false;
  TimeMicros end_ts = 0;
  /// The record's trace, handed to feed publish; never serialized.
  obs::TraceContext trace;
};

struct DurabilityConfig {
  std::filesystem::path data_dir;
  std::size_t wal_segment_bytes = 4u << 20;
  store::WalFsync wal_fsync = store::WalFsync::kOnRoll;
  /// A compacted snapshot every this many processed hours; 0 disables
  /// periodic snapshots (one is still written by finish()).
  int snapshot_interval_hours = 24;
};

/// What recovery found on disk.
struct RecoveryInfo {
  std::uint64_t snapshot_wal_index = 0;  // 0 = no snapshot, cold replay.
  std::uint64_t replayed_records = 0;    // WAL records applied.
  std::uint64_t recovered_index = 0;     // Commits below this are on disk.
  bool truncated_tail = false;           // A torn WAL tail was dropped.
};

/// Mutable state captured by snapshots and targeted by recovery. All
/// references must outlive the Durability instance.
struct DurableState {
  feed::FeedManager& feed;
  UpdateClassifier& trainer;
  std::vector<feed::EmailMessage>& outbox;
};

/// How replayed WAL records are applied. The hooks must be the *same*
/// code the live commit path runs (the pipeline passes its own commit
/// methods), so replay cannot drift from normal operation.
struct ReplayHooks {
  std::function<void(AnnotateResult&)> apply_publish;
  std::function<void(Ipv4 src, TimeMicros scan_end, TimeMicros at)>
      apply_mark_ended;
  std::function<void(std::int64_t hour, TimeMicros processing_end)>
      apply_hour_end;
};

/// WAL payload codecs, exposed for tests.
std::string encode_publish_payload(const AnnotateResult& result);
Result<AnnotateResult> decode_publish_payload(const std::string& payload);

class Durability {
 public:
  Durability(DurabilityConfig config, DurableState state,
             ReplayHooks hooks, obs::MetricsRegistry* metrics = nullptr);

  /// Restores state from disk (snapshot + WAL tail) and opens the log for
  /// appending. Must be called exactly once, before any log_*() call, with
  /// the DurableState targets still empty. On error the data directory is
  /// left unmodified (beyond torn-tail truncation) and no writer is open —
  /// the caller should disable durability rather than risk divergence.
  Result<RecoveryInfo> recover();

  /// Commit-side logging, called by the pipeline driver in exact commit
  /// order. Returns true when the caller should run the commit's side
  /// effects; false when this commit index is already covered by the
  /// recovered state (deterministic re-run after a restart) and must be
  /// skipped.
  bool log_publish(const AnnotateResult& result);
  bool log_mark_ended(Ipv4 src, TimeMicros scan_end, TimeMicros at);
  bool log_hour_end(std::int64_t hour, TimeMicros processing_end);

  /// Writes a snapshot at the hour boundary when the configured interval
  /// elapsed, then prunes covered WAL segments and old snapshots. No-op
  /// while the re-run is still behind the recovered state.
  void maybe_snapshot(std::int64_t hour);

  /// Final snapshot + WAL sync at end of deployment.
  void finish();

  /// Test hook: invoked with the commit index right after each live WAL
  /// append, before the commit's side effects run — the point where a
  /// crash leaves an acknowledged-but-unapplied record.
  void set_commit_probe(std::function<void(std::uint64_t)> probe) {
    commit_probe_ = std::move(probe);
  }

  const RecoveryInfo& recovery() const { return recovery_; }
  std::uint64_t commit_index() const { return commit_index_; }
  bool caught_up() const { return commit_index_ >= recovery_.recovered_index; }

 private:
  /// True → append this commit and run its effects; false → suppressed.
  bool advance_or_append(WalRecordType type, const std::string& payload);
  void snapshot_now();
  Status apply_record(const store::WalRecord& record);

  DurabilityConfig config_;
  DurableState state_;
  ReplayHooks hooks_;
  store::SnapshotDirectory snapshots_;
  std::unique_ptr<store::WalWriter> wal_;
  RecoveryInfo recovery_;
  std::uint64_t commit_index_ = 0;  // Commits seen this run (incl. skipped).
  bool append_failed_ = false;      // Log-once latch for append errors.
  std::function<void(std::uint64_t)> commit_probe_;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* replayed_g_ = nullptr;
  obs::Counter* snapshot_writes_c_ = nullptr;
  obs::Gauge* snapshot_index_g_ = nullptr;
};

}  // namespace exiot::pipeline
