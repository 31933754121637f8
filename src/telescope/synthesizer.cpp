#include "telescope/synthesizer.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace exiot::telescope {

HostStream::HostStream(const inet::Population& pop, const inet::Host& host,
                       Cidr aperture)
    : pop_(pop), host_(host), aperture_(aperture), rng_(host.seed) {
  const inet::ScanBehavior* behavior = pop.behavior_of(host);
  if (behavior != nullptr) {
    synth_.emplace(*behavior, host.addr, aperture, rng_.next_u64());
    iat_regularity_ = behavior->iat_regularity;
  } else if (host.cls == inet::HostClass::kBackscatterVictim) {
    static constexpr std::uint16_t kAttackedServices[] = {80, 443, 53, 22,
                                                          25};
    victim_service_port_ =
        kAttackedServices[rng_.next_below(std::size(kAttackedServices))];
    victim_reply_flags_ =
        rng_.bernoulli(0.6)
            ? (net::tcp_flags::kSyn | net::tcp_flags::kAck)
            : (net::tcp_flags::kRst | net::tcp_flags::kAck);
  } else if (host.cls == inet::HostClass::kMisconfigured) {
    misconfig_dst_ = aperture.address_at(rng_.next_below(aperture.size()));
    misconfig_port_ =
        static_cast<std::uint16_t>(rng_.uniform_int(1, 65535));
  }
  if (!host_.sessions.empty()) {
    next_ts_ = host_.sessions[0].start + draw_iat();
    // Nothing emitted yet, so a later session may begin at its own start.
    if (next_ts_ >= host_.sessions[0].end) advance(host_.sessions[0].start);
  }
}

TimeMicros HostStream::draw_iat() {
  const double rate = host_.sessions[session_idx_].rate;
  double iat_s;
  if (iat_regularity_ > 0.0 && rng_.bernoulli(iat_regularity_)) {
    iat_s = (1.0 / rate) * rng_.uniform(0.95, 1.05);
  } else {
    iat_s = rng_.exponential(rate);
  }
  return std::max<TimeMicros>(1, static_cast<TimeMicros>(
                                     iat_s * kMicrosPerSecond));
}

void HostStream::advance(TimeMicros floor) {
  while (session_idx_ < host_.sessions.size()) {
    const inet::Session& s = host_.sessions[session_idx_];
    const TimeMicros base = std::max(next_ts_, s.start);
    const TimeMicros candidate = base + draw_iat();
    if (candidate < s.end) {
      next_ts_ = candidate;
      return;
    }
    ++session_idx_;
    if (session_idx_ < host_.sessions.size()) {
      // A reappearance session can start while an earlier one is still
      // running: resume after the packet just emitted, never before it.
      next_ts_ = std::max(floor, host_.sessions[session_idx_].start);
    }
  }
  next_ts_ = kNever;
}

void HostStream::fill_packet(TimeMicros ts, net::Packet& out) {
  if (synth_.has_value()) {
    synth_->make_probe_into(ts, out);
    return;
  }

  // Full reset: the output slot is reused across streams, so every field
  // must be written (or defaulted) here. Same one-copy reset idiom as
  // PacketSynthesizer::make_probe_into.
  static const net::Packet kZero{};
  out = kZero;
  net::Packet& p = out;
  p.ts = ts;
  p.src = host_.addr;
  if (host_.cls == inet::HostClass::kBackscatterVictim) {
    // A reply to a spoofed SYN: source is the attacked service, the
    // destination (and its port) are whatever the attacker forged.
    p.proto = net::IpProto::kTcp;
    p.src_port = victim_service_port_;
    p.dst = aperture_.address_at(rng_.next_below(aperture_.size()));
    p.dst_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
    p.flags = victim_reply_flags_;
    p.seq = static_cast<std::uint32_t>(rng_.next_u64());
    p.ack = static_cast<std::uint32_t>(rng_.next_u64());
    p.window = p.has_flag(net::tcp_flags::kRst) ? 0 : 29200;
    p.ttl = static_cast<std::uint8_t>(rng_.uniform_int(40, 60));
    p.ip_id = static_cast<std::uint16_t>(rng_.next_u64());
    p.total_length = 40;
  } else {
    // Misconfiguration: a node repeatedly contacting one dead address —
    // e.g. a service moved out of the telescope space or a typo'd config.
    p.proto = rng_.bernoulli(0.5) ? net::IpProto::kUdp : net::IpProto::kTcp;
    p.dst = misconfig_dst_;
    p.dst_port = misconfig_port_;
    p.src_port = static_cast<std::uint16_t>(rng_.uniform_int(1024, 65535));
    if (p.proto == net::IpProto::kTcp) {
      p.flags = net::tcp_flags::kSyn;
      p.seq = static_cast<std::uint32_t>(rng_.next_u64());
      p.window = 29200;
      p.total_length = 40;
      p.opts.mss = 1460;
    } else {
      p.total_length = 48;
    }
    p.ttl = static_cast<std::uint8_t>(rng_.uniform_int(40, 120));
    p.ip_id = static_cast<std::uint16_t>(rng_.next_u64());
  }
}

bool HostStream::next_into(net::Packet& out) {
  if (next_ts_ == kNever) return false;
  fill_packet(next_ts_, out);
  advance(next_ts_);
  return true;
}

SliceKeyLayout SliceKeyLayout::make(std::uint32_t max_host,
                                    std::size_t rows) {
  SliceKeyLayout layout;
  layout.host_bits = static_cast<unsigned>(std::bit_width(max_host));
  layout.row_bits = static_cast<unsigned>(
      std::bit_width(rows > 0 ? rows - 1 : std::size_t{0}));
  if (SliceMerge::kSliceBits + layout.host_bits + layout.row_bits > 64 ||
      rows > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "telescope: slice sort key needs more than 64 bits (" +
        std::to_string(rows) + " rows, host index " +
        std::to_string(max_host) + ")");
  }
  return layout;
}

void sort_slice_keys(std::span<std::uint64_t> keys,
                     std::vector<std::uint64_t>& tmp,
                     const SliceKeyLayout& layout) {
  constexpr unsigned kDigitBits = 8;
  constexpr std::size_t kMask = (std::size_t{1} << kDigitBits) - 1;
  const std::size_t n = keys.size();
  if (n < 2) return;
  const unsigned lo = layout.row_bits;
  const unsigned passes =
      (layout.host_bits + SliceMerge::kSliceBits + kDigitBits - 1) /
      kDigitBits;
  // Every digit starts inside the key, so no shift reaches 64; the bits a
  // last digit reads above the key are zero. Counts fit 32 bits
  // (SliceKeyLayout::make bounds the row count).
  std::uint32_t counts[64 / kDigitBits][kMask + 1] = {};
  for (const std::uint64_t key : keys) {
    const std::uint64_t sorted = key >> lo;
    for (unsigned p = 0; p < passes; ++p) {
      ++counts[p][(sorted >> (p * kDigitBits)) & kMask];
    }
  }
  if (tmp.size() < n) tmp.resize(n);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = tmp.data();
  for (unsigned p = 0; p < passes; ++p) {
    std::uint32_t* pos = counts[p];
    const unsigned shift = lo + p * kDigitBits;
    if (pos[(src[0] >> shift) & kMask] == n) continue;  // One digit value.
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b <= kMask; ++b) sum += std::exchange(pos[b], sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[pos[(src[i] >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::copy(src, src + n, keys.data());
}

void SliceMerge::begin(std::vector<HostStream>& streams,
                       const std::uint32_t* hosts,
                       std::vector<std::uint32_t>& live, TimeMicros t0,
                       TimeMicros t1, std::size_t& pruned) {
  streams_ = &streams;
  hosts_ = hosts;
  t1_ = t1;
  n_ = 0;
  max_host_ = 0;
  if (next_.size() < streams.size()) next_.resize(streams.size());
  heads_.assign(kRingMask + 1, kNil);
  far_ = kNil;
  ring_count_ = 0;
  cur_ = t0 >> kSliceBits;
  epoch_end_ = (cur_ | static_cast<std::int64_t>(kRingMask)) + 1;

  net::Packet skipped;
  std::size_t kept = 0;
  for (const std::uint32_t local : live) {
    HostStream& stream = streams[local];
    while (stream.peek_ts() < t0) (void)stream.next_into(skipped);
    if (stream.done()) {
      ++pruned;
      continue;
    }
    live[kept++] = local;
    if (stream.peek_ts() < t1) {
      max_host_ = std::max(max_host_, hosts != nullptr ? hosts[local] : local);
      file(local);
    }
  }
  live.resize(kept);
}

void SliceMerge::file(std::uint32_t local) {
  const std::int64_t slice = (*streams_)[local].peek_ts() >> kSliceBits;
  if (slice < epoch_end_) {
    std::uint32_t& head = heads_[static_cast<std::size_t>(slice) & kRingMask];
    next_[local] = head;
    head = local;
    ++ring_count_;
  } else {
    next_[local] = far_;
    far_ = local;
  }
}

void SliceMerge::refile_far() {
  std::uint32_t local = std::exchange(far_, kNil);
  while (local != kNil) {
    const std::uint32_t following = next_[local];
    file(local);
    local = following;
  }
}

bool SliceMerge::next_slice() {
  std::vector<HostStream>& streams = *streams_;
  std::uint32_t local = kNil;
  while (local == kNil) {
    if (ring_count_ == 0) {
      if (far_ == kNil) return false;
      // The epoch holds nothing more: move to the epoch of the earliest
      // far stream, skipping empty epochs outright.
      std::int64_t first = std::numeric_limits<std::int64_t>::max();
      for (std::uint32_t u = far_; u != kNil; u = next_[u]) {
        first = std::min(first, streams[u].peek_ts() >> kSliceBits);
      }
      cur_ = first;
      epoch_end_ = (first | static_cast<std::int64_t>(kRingMask)) + 1;
      refile_far();
    }
    local = std::exchange(heads_[static_cast<std::size_t>(cur_) & kRingMask],
                          kNil);
    ++cur_;
  }

  // Drain every due stream of its packets in the slice, host by host.
  const TimeMicros start = (cur_ - 1) * (TimeMicros{1} << kSliceBits);
  const TimeMicros end = std::min(start + (TimeMicros{1} << kSliceBits), t1_);
  std::size_t n = 0;
  while (local != kNil) {
    const std::uint32_t following = next_[local];
    --ring_count_;
    HostStream& stream = streams[local];
    const std::uint32_t host = hosts_ != nullptr ? hosts_[local] : local;
    TimeMicros ts = stream.peek_ts();
    do {
      if (n == rows_.size()) {
        rows_.resize(std::max<std::size_t>(1024, 2 * n));
        keys_.resize(rows_.size());
      }
      // Staged as (offset << 32 | host); packed once the row count, and
      // so the key layout, is known.
      keys_[n] = (static_cast<std::uint64_t>(ts - start) << 32) | host;
      (void)stream.next_into(rows_[n]);
      ++n;
      ts = stream.peek_ts();
    } while (ts < end);
    if (ts < t1_) file(local);
    local = following;
  }

  layout_ = SliceKeyLayout::make(max_host_, n);
  for (std::size_t i = 0; i < n; ++i) {
    keys_[i] = layout_.pack(keys_[i] >> 32,
                            static_cast<std::uint32_t>(keys_[i]), i);
  }
  n_ = n;
  sort_slice_keys({keys_.data(), n}, tmp_, layout_);
  return true;
}

TrafficSynthesizer::TrafficSynthesizer(const inet::Population& pop,
                                       Cidr aperture) {
  streams_.reserve(pop.hosts().size());
  live_.reserve(pop.hosts().size());
  for (const auto& host : pop.hosts()) {
    live_.push_back(static_cast<std::uint32_t>(streams_.size()));
    streams_.emplace_back(pop, host, aperture);
  }
}

std::size_t TrafficSynthesizer::run(
    TimeMicros t0, TimeMicros t1,
    const std::function<void(const net::Packet&)>& fn) {
  constexpr std::size_t kBatchRows = 1024;
  return emit_batches(t0, t1, kBatchRows,
                      [&fn](const net::PacketBatch& batch) {
                        for (const net::Packet& pkt : batch.packets()) {
                          fn(pkt);
                        }
                      });
}

}  // namespace exiot::telescope
