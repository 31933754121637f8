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
// rescanned, and synthesizes each packet straight into a reused batch row
// — the per-packet overheads this stage must not pay at ~1M pps.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/types.h"
#include "inet/population.h"
#include "net/batch.h"
#include "net/packet.h"
#include "telescope/merge.h"

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

/// The window merge core: the serial synthesizer, the serial producer and
/// every producer thread run this one loop. Emits every packet with ts in
/// [t0, t1) from the streams listed in `live` in (ts, host_index) order —
/// the canonical arrival order every producer-thread/detector-shard
/// combination must reproduce — synthesizing each directly into a row
/// appended to `batch` (no intermediate buffering, no extra copy).
/// `hosts[local]` maps a stream slot to its global host index (nullptr:
/// the slot index is the host index, the unpartitioned case).
///
/// After each row, `row_fn(host_index)` runs. It may hand `batch` off and
/// clear it, and returns false to stop the window early (a producer thread
/// whose queue was closed under it; the streams are left mid-window and
/// must not be reused). Rows still in `batch` at window end are the
/// caller's to flush.
///
/// Streams found exhausted at window entry are dropped from `live` (their
/// count accumulates into `pruned`), so later windows stop rescanning
/// hosts that finished days ago. Selection is a tournament (loser) tree —
/// telescope/merge.h: one leaf-to-root replay per packet, a single
/// comparison per level. Returns the number of packets emitted.
template <typename RowFn>
std::size_t emit_window_rows(std::vector<HostStream>& streams,
                             const std::uint32_t* hosts,
                             std::vector<std::uint32_t>& live,
                             TimeMicros t0, TimeMicros t1,
                             std::size_t& pruned, net::PacketBatch& batch,
                             RowFn&& row_fn) {
  net::Packet scratch;

  // Window entry: skip packets before the window, prune exhausted streams
  // out of the live list (compacting in place, order preserved).
  std::size_t kept = 0;
  for (const std::uint32_t local : live) {
    HostStream& stream = streams[local];
    while (stream.peek_ts() < t0) (void)stream.next_into(scratch);
    if (stream.done()) {
      ++pruned;
      continue;
    }
    live[kept++] = local;
  }
  live.resize(kept);

  // Seed one tournament slot per stream with a packet in this window.
  std::vector<std::uint32_t> slot_local;
  slot_local.reserve(kept);
  for (const std::uint32_t local : live) {
    if (streams[local].peek_ts() < t1) slot_local.push_back(local);
  }
  const auto host_of = [hosts](std::uint32_t local) {
    return hosts != nullptr ? hosts[local] : local;
  };
  WinnerTree tree;
  tree.assign(slot_local.size());
  for (std::size_t s = 0; s < slot_local.size(); ++s) {
    const std::uint32_t local = slot_local[s];
    tree.set_slot(s, streams[local].peek_ts(), host_of(local));
  }
  tree.rebuild();

  std::size_t count = 0;
  while (!tree.exhausted()) {
    const std::uint32_t slot = tree.top();
    const std::uint32_t local = slot_local[slot];
    HostStream& stream = streams[local];
    net::Packet& row = batch.append_slot();
    // An open slot's peek_ts is < t1, so the stream has a packet and its
    // timestamp is inside the window (next_into fills at peek_ts).
    if (!stream.next_into(row)) {
      batch.abandon_back();
      tree.close(slot);
      continue;
    }
    batch.commit_back();
    ++count;
    if (!row_fn(host_of(local))) return count;
    const TimeMicros peek = stream.peek_ts();
    tree.update(slot, peek < t1 ? peek : WinnerTree::kDone);
    if (!tree.exhausted()) {
      // The next winner is already decided; start pulling its stream's
      // hot lines while this iteration retires (stream state is visited
      // in timestamp order — effectively at random).
      const char* next = reinterpret_cast<const char*>(
          &streams[slot_local[tree.top()]]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
      __builtin_prefetch(next + 128);
      __builtin_prefetch(next + 192);
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
                              net::PacketBatch& batch, BatchFn&& fn) {
  batch.clear();
  const std::size_t count = emit_window_rows(
      streams, hosts, live, t0, t1, pruned, batch,
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

  /// Emits every packet with ts in [t0, t1) in (ts, host_index) order,
  /// synthesized directly into SoA batch rows and delivered `batch_size`
  /// at a time as `fn(const net::PacketBatch&)`. Returns the number of
  /// packets emitted.
  template <typename BatchFn>
  std::size_t emit_batches(TimeMicros t0, TimeMicros t1,
                           std::size_t batch_size, BatchFn&& fn) {
    // Work the live list saves: exhausted streams not rescanned this
    // window.
    dead_scans_avoided_ += streams_.size() - live_.size();
    batch_.reserve(batch_size);
    return emit_window_batch(streams_, nullptr, live_, t0, t1, pruned_,
                             batch_size, batch_,
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
  net::PacketBatch batch_;  // emit_batches scratch, reused across windows.
  std::size_t pruned_ = 0;
  std::uint64_t dead_scans_avoided_ = 0;
};

}  // namespace exiot::telescope
