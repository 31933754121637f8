// Wire-format encoding/decoding of packets: real IPv4 + TCP/UDP/ICMP header
// layouts with checksums. Used by the trace file format and by the
// throughput benchmarks, which measure parse speed at telescope rates.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "net/packet.h"

namespace exiot::net {

/// Appends the packet's wire image to `out` and returns the number of
/// bytes appended. The image holds the headers only (no payload bytes;
/// telescope analysis is header-only, and sampled records keep header
/// fields only — §III of the paper). If total_length implies a payload,
/// the length fields are preserved so decoding round-trips.
std::size_t serialize_to(const Packet& pkt, std::vector<std::uint8_t>& out);

/// Decodes a packet from wire bytes. `ts` is carried out-of-band (the trace
/// record header owns the timestamp, as in pcap). Validates header lengths
/// and the IPv4 checksum.
Result<Packet> parse(std::span<const std::uint8_t> bytes, TimeMicros ts = 0);

/// Hot-path decode of the canonical wire image (IPv4 IHL=5 + TCP/UDP/ICMP,
/// the only layout the encoders here emit): fixed header overlay, no
/// per-packet Result. Fills `out` with exactly what `parse` would yield
/// and returns true; returns false for anything non-canonical or invalid,
/// in which case the caller falls back to `parse` for the error detail.
bool parse_canonical(std::span<const std::uint8_t> bytes, TimeMicros ts,
                     Packet& out);

/// RFC 1071 Internet checksum over a byte range.
std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes);

}  // namespace exiot::net
