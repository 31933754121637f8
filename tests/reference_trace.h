// Plain reference for the trace stream format (trace/trace.h): the framing
// decoded byte by byte, every record parsed by the general net::parse, no
// canonical-header fast path. TraceDecoder::next_batch is checked against
// it: the same packets, the same stopping point, the same error text.
// Also the test-only codec conveniences (whole vectors in and out) and a
// framer for streams whose records sit off the canonical fast path. Simple
// rather than fast: for tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/batch.h"
#include "net/wire.h"
#include "trace/trace.h"

namespace exiot::oracle {

/// Batch sizes the decode tests drive next_batch at.
inline constexpr std::size_t kDecodeBatchRows[] = {1, 7, 512};

/// A whole stream's decode: the packets before the stop, and the error
/// that stopped it ("" for a stream closed by the end-of-stream marker).
struct DecodedTrace {
  std::vector<net::Packet> packets;
  std::string error;
};

/// The reference decoder: 4-byte magic, then per record a zigzag-varint
/// timestamp delta, a varint wire length and the wire image; a zero length
/// is the end-of-stream marker and must close the stream.
inline DecodedTrace reference_decode(const std::vector<std::uint8_t>& bytes) {
  DecodedTrace out;
  static constexpr std::uint8_t kMagic[4] = {'E', 'X', 'T', '1'};
  if (bytes.size() < 4 || !std::equal(kMagic, kMagic + 4, bytes.begin())) {
    out.error = "bad trace magic";
    return out;
  }
  std::size_t pos = 4;
  auto varint = [&bytes, &pos](std::uint64_t& value) {
    value = 0;
    for (int shift = 0; pos < bytes.size() && shift < 64; shift += 7) {
      const std::uint8_t b = bytes[pos++];
      value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return true;
    }
    return false;
  };
  TimeMicros ts = 0;
  while (true) {
    if (pos == bytes.size()) {
      out.error = "truncated trace tail: missing end-of-stream marker";
      return out;
    }
    std::uint64_t delta = 0, len = 0;
    if (!varint(delta) || !varint(len)) {
      out.error = "truncated record header";
      return out;
    }
    if (len == 0) {
      if (pos != bytes.size()) {
        out.error = "trailing bytes after end-of-stream marker";
      }
      return out;
    }
    if (len > bytes.size() - pos) {
      out.error = "truncated packet body";
      return out;
    }
    const auto step = static_cast<std::int64_t>(delta >> 1) ^
                      -static_cast<std::int64_t>(delta & 1);
    auto parsed = net::parse(
        std::span<const std::uint8_t>(bytes.data() + pos, len), ts + step);
    if (!parsed.ok()) {
      out.error = parsed.error().message;
      return out;
    }
    ts += step;
    pos += len;
    out.packets.push_back(std::move(parsed).take());
  }
}

/// The production decoder over the same stream, next_batch at `rows`.
inline DecodedTrace batched_decode(std::vector<std::uint8_t> bytes,
                                   std::size_t rows) {
  DecodedTrace out;
  trace::TraceDecoder decoder(std::move(bytes));
  net::PacketBatch batch;
  while (true) {
    batch.clear();
    const std::size_t n = decoder.next_batch(batch, rows);
    if (n == 0) break;
    out.packets.insert(out.packets.end(), batch.packets().begin(),
                       batch.packets().end());
  }
  out.error = decoder.last_error();
  return out;
}

/// A packet vector as one complete stream (TraceEncoder).
inline std::vector<std::uint8_t> encode_packets(
    const std::vector<net::Packet>& pkts) {
  trace::TraceEncoder encoder;
  for (const auto& p : pkts) encoder.add(p);
  return encoder.finish();
}

/// A stream back to packets through the production decoder, or its error.
inline Result<std::vector<net::Packet>> decode_packets(
    std::vector<std::uint8_t> bytes) {
  DecodedTrace decoded = batched_decode(std::move(bytes), 512);
  if (!decoded.error.empty()) return make_error("trace_io", decoded.error);
  return std::move(decoded.packets);
}

/// `pkts` as one complete stream in which every `every`-th record (from
/// the first) carries a 24-byte IPv4 header: IHL 6, four NOP option bytes
/// and a fresh checksum. Such a record decodes to the same packet, but
/// only through net::parse, never the canonical overlay, so next_batch
/// must take its fallback path for it.
inline std::vector<std::uint8_t> encode_with_ip_options(
    const std::vector<net::Packet>& pkts, std::size_t every) {
  std::vector<std::uint8_t> out = {'E', 'X', 'T', '1'};
  auto put_varint = [&out](std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) {
      out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    }
    out.push_back(static_cast<std::uint8_t>(v));
  };
  TimeMicros last = 0;
  std::vector<std::uint8_t> wire;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    wire.clear();
    net::serialize_to(pkts[i], wire);
    if (i % every == 0) {
      static constexpr std::uint8_t kNops[4] = {1, 1, 1, 1};
      wire.insert(wire.begin() + 20, kNops, kNops + 4);
      wire[0] = 0x46;
      wire[10] = wire[11] = 0;
      const std::uint16_t sum = net::internet_checksum(
          std::span<const std::uint8_t>(wire.data(), 24));
      wire[10] = static_cast<std::uint8_t>(sum >> 8);
      wire[11] = static_cast<std::uint8_t>(sum);
    }
    const std::int64_t delta = pkts[i].ts - last;
    last = pkts[i].ts;
    put_varint((static_cast<std::uint64_t>(delta) << 1) ^
               static_cast<std::uint64_t>(delta >> 63));
    put_varint(wire.size());
    out.insert(out.end(), wire.begin(), wire.end());
  }
  put_varint(0);
  put_varint(0);
  return out;
}

}  // namespace exiot::oracle
