// The telescope traffic synthesizer: merges every simulated host's probe /
// backscatter / misconfiguration stream into one time-ordered packet stream
// as observed by the /8 darknet aperture. This is the substitute for the
// CAIDA capture: downstream modules consume exactly what they would consume
// from the real telescope (decoded packets in arrival order).
//
// The merge core (`emit_window_rows`) is shared with the multi-threaded
// producer stage (pipeline/producer.h): it emits the packets of one time
// window from an arbitrary subset of streams in (ts, host_index) order,
// keeps a compacted live-stream list so exhausted hosts are never
// rescanned, and works host-major: each ~4 s slice of the window is
// synthesized one host at a time (a host's state stays hot while it emits
// all of its packets in the slice), then radix-sorted into arrival order.
// A packet-at-a-time merge would touch a different host's state for almost
// every packet — the cost this stage must not pay at ~1M pps.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "inet/population.h"
#include "net/batch.h"
#include "net/packet.h"

namespace exiot::telescope {

/// Streams the packets of one host (all sessions, in order).
class HostStream {
 public:
  HostStream(const inet::Population& pop, const inet::Host& host,
             Cidr aperture);

  /// Fills `out` in place with the next packet (every field is reset, so
  /// the slot can be shared across streams) and returns false when the
  /// host is done.
  bool next_into(net::Packet& out);

  /// Timestamp of the packet `next_into()` would fill (kNever when done).
  /// Never decreases: the stream is time-ordered.
  TimeMicros peek_ts() const { return next_ts_; }

  /// True once every session has been exhausted.
  bool done() const { return next_ts_ == kNever; }

  static constexpr TimeMicros kNever =
      std::numeric_limits<TimeMicros>::max();

 private:
  /// Moves `next_ts_` to the host's next packet, never before `floor`.
  void advance(TimeMicros floor);
  void fill_packet(TimeMicros ts, net::Packet& out);
  TimeMicros draw_iat();

  const inet::Population& pop_;
  const inet::Host& host_;
  Cidr aperture_;
  Rng rng_;
  std::optional<inet::PacketSynthesizer> synth_;
  std::size_t session_idx_ = 0;
  TimeMicros next_ts_ = kNever;
  double iat_regularity_ = 0.0;
  // Backscatter victims reply from a fixed attacked service port with a
  // fixed reply style chosen per victim.
  std::uint16_t victim_service_port_ = 80;
  std::uint8_t victim_reply_flags_ = 0;
  // Misconfigured hosts hammer one fixed telescope destination.
  Ipv4 misconfig_dst_;
  std::uint16_t misconfig_port_ = 0;
};

/// Field widths of one slice's sort keys. A key packs, high to low, the
/// row's timestamp offset inside its slice (SliceMerge::kSliceBits bits),
/// its global host index (`host_bits`) and its staged row index
/// (`row_bits`). The widths come from the largest host index and the
/// slice's row count, so no field can spill into another; ordering keys by
/// their two upper fields orders rows by (ts, host), and the row field is
/// the payload that finds the row again.
struct SliceKeyLayout {
  unsigned host_bits = 0;
  unsigned row_bits = 0;

  /// Widths for host indices <= `max_host` and `rows` staged rows (>= 1).
  /// Throws std::length_error when the key would need more than 64 bits
  /// (or the row count more than 32 bits).
  static SliceKeyLayout make(std::uint32_t max_host, std::size_t rows);

  std::uint64_t pack(std::uint64_t offset, std::uint32_t host,
                     std::size_t row) const {
    return (((offset << host_bits) | host) << row_bits) | row;
  }
  std::uint32_t host(std::uint64_t key) const {
    return static_cast<std::uint32_t>((key >> row_bits) &
                                      ((std::uint64_t{1} << host_bits) - 1));
  }
  std::size_t row(std::uint64_t key) const {
    return static_cast<std::size_t>(key &
                                    ((std::uint64_t{1} << row_bits) - 1));
  }
};

/// Sorts packed slice keys by (offset, host): a stable LSD radix sort over
/// the two fields, 8 bits per pass, skipping passes in which every key
/// shares the digit. `tmp` is reused scratch.
void sort_slice_keys(std::span<std::uint64_t> keys,
                     std::vector<std::uint64_t>& tmp,
                     const SliceKeyLayout& layout);

/// The window merge of emit_window_rows and its scratch, owned by the
/// caller next to its streams (TrafficSynthesizer, each ParallelProducer
/// partition) and reused across windows. Two threads must not share one.
///
/// A window is emitted slice by slice on a fixed grid of 2^kSliceBits µs:
///   1. every live stream is filed under the slice holding its next packet
///      (a calendar of intrusive per-slice lists through `next_`, so the
///      memory is one index per stream plus a fixed ring of list heads);
///   2. every stream due in the slice is drained, one host at a time, of
///      its packets in that slice into the staged rows, then re-filed
///      under the slice of its next packet;
///   3. the staged rows' keys are radix-sorted by (ts, global host index).
/// Each host's packets depend only on its own RNG, so the rows, their
/// order and every RNG draw are those of a packet-at-a-time merge; only
/// the order in which streams are visited differs.
class SliceMerge {
 public:
  static constexpr unsigned kSliceBits = 22;  // 2^22 µs ≈ 4.2 s.

  /// Window entry: skips each live stream's packets before t0, drops
  /// exhausted streams from `live` (compacting in place, order kept; their
  /// count accumulates into `pruned`) and files every stream with a packet
  /// before t1. `streams` and `hosts` must outlive the window.
  void begin(std::vector<HostStream>& streams, const std::uint32_t* hosts,
             std::vector<std::uint32_t>& live, TimeMicros t0, TimeMicros t1,
             std::size_t& pruned);

  /// Synthesizes the next slice holding packets of the window and sorts
  /// them; false once the window is exhausted.
  bool next_slice();

  /// The current slice's rows in arrival order, as keys that row() and
  /// host() decode.
  std::span<const std::uint64_t> keys() const { return {keys_.data(), n_}; }
  const net::Packet& row(std::uint64_t key) const {
    return rows_[layout_.row(key)];
  }
  std::uint32_t host(std::uint64_t key) const { return layout_.host(key); }

 private:
  static constexpr unsigned kRingBits = 10;  // Heads for ~72 min of slices.
  static constexpr std::size_t kRingMask = (std::size_t{1} << kRingBits) - 1;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// Files stream `local` under the slice of its next packet: in the ring
  /// when that slice is in the current epoch, else on the far list.
  void file(std::uint32_t local);
  /// Moves far-list streams whose slice falls in the current epoch into
  /// the ring.
  void refile_far();

  std::vector<HostStream>* streams_ = nullptr;
  const std::uint32_t* hosts_ = nullptr;  // nullptr: local == host index.
  TimeMicros t1_ = 0;
  std::uint32_t max_host_ = 0;
  // Calendar. The ring holds the epoch of slices [epoch_end_ - 2^kRingBits,
  // epoch_end_); streams due later wait on the far list.
  std::vector<std::uint32_t> heads_;  // Ring slot -> first stream, kNil.
  std::vector<std::uint32_t> next_;   // Stream -> next in its list.
  std::uint32_t far_ = kNil;
  std::size_t ring_count_ = 0;  // Streams filed in the ring.
  std::int64_t cur_ = 0;        // Next slice to drain.
  std::int64_t epoch_end_ = 0;
  // The current slice.
  std::vector<net::Packet> rows_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> tmp_;
  std::size_t n_ = 0;
  SliceKeyLayout layout_;
};

/// The window merge core: the serial synthesizer, the serial producer and
/// every producer thread run this one loop. Emits every packet with ts in
/// [t0, t1) from the streams listed in `live` in (ts, host_index) order —
/// the canonical arrival order every producer-thread/detector-shard
/// combination must reproduce — appending each as a row of `batch`.
/// `hosts[local]` maps a stream slot to its global host index (nullptr:
/// the slot index is the host index, the unpartitioned case). `merge` is
/// the caller's scratch (see SliceMerge).
///
/// After each row, `row_fn(host_index)` runs. It may hand `batch` off and
/// clear it, and returns false to stop the window early (a producer thread
/// whose queue was closed under it; the streams are left mid-window and
/// must not be reused). Rows still in `batch` at window end are the
/// caller's to flush.
///
/// Streams found exhausted at window entry are dropped from `live` (their
/// count accumulates into `pruned`), so later windows stop rescanning
/// hosts that finished days ago. Returns the number of packets emitted.
template <typename RowFn>
std::size_t emit_window_rows(std::vector<HostStream>& streams,
                             const std::uint32_t* hosts,
                             std::vector<std::uint32_t>& live,
                             TimeMicros t0, TimeMicros t1,
                             std::size_t& pruned, SliceMerge& merge,
                             net::PacketBatch& batch, RowFn&& row_fn) {
  merge.begin(streams, hosts, live, t0, t1, pruned);
  std::size_t count = 0;
  while (merge.next_slice()) {
    for (const std::uint64_t key : merge.keys()) {
      batch.push_back(merge.row(key));
      ++count;
      if (!row_fn(merge.host(key))) return count;
    }
  }
  return count;
}

/// emit_window_rows with fixed-size batching: `fn(const net::PacketBatch&)`
/// (void return) is invoked once per `batch_size` packets, and once at
/// window end for the remainder. The callback borrows the batch only for
/// the call.
template <typename BatchFn>
std::size_t emit_window_batch(std::vector<HostStream>& streams,
                              const std::uint32_t* hosts,
                              std::vector<std::uint32_t>& live,
                              TimeMicros t0, TimeMicros t1,
                              std::size_t& pruned, std::size_t batch_size,
                              SliceMerge& merge, net::PacketBatch& batch,
                              BatchFn&& fn) {
  batch.clear();
  const std::size_t count = emit_window_rows(
      streams, hosts, live, t0, t1, pruned, merge, batch,
      [&batch, &fn, batch_size](std::uint32_t) {
        if (batch.size() >= batch_size) {
          fn(static_cast<const net::PacketBatch&>(batch));
          batch.clear();
        }
        return true;
      });
  if (!batch.empty()) {
    fn(static_cast<const net::PacketBatch&>(batch));
    batch.clear();
  }
  return count;
}

/// Merges all host streams into arrival order (single-threaded). The
/// multi-threaded equivalent is pipeline::ParallelProducer, which emits
/// the byte-identical stream from K partitions.
class TrafficSynthesizer {
 public:
  TrafficSynthesizer(const inet::Population& pop, Cidr aperture);

  /// Emits every packet with ts in [t0, t1) in (ts, host_index) order as
  /// batch rows, delivered `batch_size` at a time as
  /// `fn(const net::PacketBatch&)`. Returns the number of packets emitted.
  template <typename BatchFn>
  std::size_t emit_batches(TimeMicros t0, TimeMicros t1,
                           std::size_t batch_size, BatchFn&& fn) {
    // Work the live list saves: exhausted streams not rescanned this
    // window.
    dead_scans_avoided_ += streams_.size() - live_.size();
    batch_.reserve(batch_size);
    return emit_window_batch(streams_, nullptr, live_, t0, t1, pruned_,
                             batch_size, merge_, batch_,
                             std::forward<BatchFn>(fn));
  }

  /// std::function adapter over emit_batches, one call per packet (cold
  /// callers: capture_to_files, tests, benches).
  std::size_t run(TimeMicros t0, TimeMicros t1,
                  const std::function<void(const net::Packet&)>& fn);

  /// Streams still able to produce packets (before the next window scan).
  std::size_t live_streams() const { return live_.size(); }
  /// Exhausted streams removed from the live list so far.
  std::uint64_t streams_pruned() const { return pruned_; }
  /// Window-entry scans of dead streams skipped thanks to the live list.
  std::uint64_t dead_stream_scans_avoided() const {
    return dead_scans_avoided_;
  }

 private:
  std::vector<HostStream> streams_;
  std::vector<std::uint32_t> live_;
  // emit_batches scratch, reused across windows.
  SliceMerge merge_;
  net::PacketBatch batch_;
  std::size_t pruned_ = 0;
  std::uint64_t dead_scans_avoided_ = 0;
};

}  // namespace exiot::telescope
