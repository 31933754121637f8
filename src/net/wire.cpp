#include "net/wire.h"

#include <cstring>

namespace exiot::net {
namespace {

std::uint16_t get_u16(std::span<const std::uint8_t> b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}
std::uint32_t get_u32(std::span<const std::uint8_t> b, std::size_t off) {
  return (std::uint32_t{b[off]} << 24) | (std::uint32_t{b[off + 1]} << 16) |
         (std::uint32_t{b[off + 2]} << 8) | std::uint32_t{b[off + 3]};
}

void store_u16(std::uint8_t* b, std::uint16_t v) {
  b[0] = static_cast<std::uint8_t>(v >> 8);
  b[1] = static_cast<std::uint8_t>(v);
}
void store_u32(std::uint8_t* b, std::uint32_t v) {
  b[0] = static_cast<std::uint8_t>(v >> 24);
  b[1] = static_cast<std::uint8_t>(v >> 16);
  b[2] = static_cast<std::uint8_t>(v >> 8);
  b[3] = static_cast<std::uint8_t>(v);
}

/// Unfolded RFC 1071 sum over a byte range (big-endian 16-bit words, odd
/// tail padded). One's-complement addition is commutative, so partial
/// sums over header pieces can be combined in any order.
std::uint32_t ones_sum(const std::uint8_t* b, std::size_t n) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    sum += static_cast<std::uint32_t>((b[i] << 8) | b[i + 1]);
  }
  if (i < n) sum += static_cast<std::uint32_t>(b[i] << 8);
  return sum;
}

std::uint16_t fold_sum(std::uint32_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Encodes TCP options into `opt` (caller provides >= 24 bytes; the
/// canonical layout never exceeds that). Order is fixed (MSS,
/// SACK-permitted, TIMESTAMP, WSCALE, explicit NOPs, SACK marker) so
/// serialization is deterministic. Returns the padded length.
std::size_t encode_tcp_options_into(const TcpOptions& o, std::uint8_t* opt) {
  std::size_t n = 0;
  if (o.mss) {
    opt[n++] = 2;
    opt[n++] = 4;
    opt[n++] = static_cast<std::uint8_t>(*o.mss >> 8);
    opt[n++] = static_cast<std::uint8_t>(*o.mss);
  }
  if (o.sack_permitted) {
    opt[n++] = 4;
    opt[n++] = 2;
  }
  if (o.timestamp) {
    opt[n++] = 8;
    opt[n++] = 10;
    store_u32(opt + n, o.ts_val);
    n += 4;
    // Echo reply field (zero on probes).
    store_u32(opt + n, 0);
    n += 4;
  }
  if (o.wscale) {
    opt[n++] = 3;
    opt[n++] = 3;
    opt[n++] = *o.wscale;
  }
  if (o.nop) opt[n++] = 1;
  if (o.sack) {
    // A zero-length SACK block marker (kind 5, len 2) — telescope probes
    // carry the flag, not meaningful blocks.
    opt[n++] = 5;
    opt[n++] = 2;
  }
  while (n % 4 != 0) opt[n++] = 0;  // End-of-options padding.
  return n;
}

Result<TcpOptions> decode_tcp_options(std::span<const std::uint8_t> bytes) {
  TcpOptions o;
  std::size_t i = 0;
  while (i < bytes.size()) {
    std::uint8_t kind = bytes[i];
    if (kind == 0) break;  // End of options list.
    if (kind == 1) {       // NOP
      o.nop = true;
      ++i;
      continue;
    }
    if (i + 1 >= bytes.size()) return make_error("tcp_opt", "truncated option");
    std::uint8_t len = bytes[i + 1];
    if (len < 2 || i + len > bytes.size()) {
      return make_error("tcp_opt", "bad option length");
    }
    switch (kind) {
      case 2:
        if (len != 4) return make_error("tcp_opt", "bad MSS length");
        o.mss = get_u16(bytes, i + 2);
        break;
      case 3:
        if (len != 3) return make_error("tcp_opt", "bad WSCALE length");
        o.wscale = bytes[i + 2];
        break;
      case 4: o.sack_permitted = true; break;
      case 5: o.sack = true; break;
      case 8:
        if (len != 10) return make_error("tcp_opt", "bad TIMESTAMP length");
        o.timestamp = true;
        o.ts_val = get_u32(bytes, i + 2);
        break;
      default: break;  // Unknown options are skipped, as real stacks do.
    }
    i += len;
  }
  return o;
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  return fold_sum(ones_sum(bytes.data(), bytes.size()));
}

std::size_t serialize_to(const Packet& pkt, std::vector<std::uint8_t>& out) {
  // Whole wire image built in one stack buffer: 20 IP + 20 TCP + <= 24
  // option bytes. No heap allocation on this path — the trace encoder and
  // the capture writer call it once per packet at telescope rates.
  std::uint8_t buf[64];
  std::uint8_t* ip = buf;
  std::uint8_t* l4 = buf + 20;
  std::size_t l4_len = 0;

  switch (pkt.proto) {
    case IpProto::kTcp: {
      const std::size_t opt_len = encode_tcp_options_into(pkt.opts, l4 + 20);
      l4_len = 20 + opt_len;
      const std::uint8_t offset = static_cast<std::uint8_t>(5 + opt_len / 4);
      store_u16(l4, pkt.src_port);
      store_u16(l4 + 2, pkt.dst_port);
      store_u32(l4 + 4, pkt.seq);
      store_u32(l4 + 8, pkt.ack);
      l4[12] = static_cast<std::uint8_t>((offset << 4) |
                                         (pkt.reserved & 0x0F));
      l4[13] = pkt.flags;
      store_u16(l4 + 14, pkt.window);
      store_u16(l4 + 16, 0);  // Checksum placeholder (needs pseudo-header).
      store_u16(l4 + 18, pkt.urgent);
      break;
    }
    case IpProto::kUdp: {
      l4_len = 8;
      store_u16(l4, pkt.src_port);
      store_u16(l4 + 2, pkt.dst_port);
      store_u16(l4 + 4, static_cast<std::uint16_t>(
                            pkt.total_length > 20 ? pkt.total_length - 20
                                                  : 8));
      store_u16(l4 + 6, 0);
      break;
    }
    case IpProto::kIcmp: {
      l4_len = 8;
      l4[0] = pkt.icmp_type_v;
      l4[1] = pkt.icmp_code;
      store_u16(l4 + 2, 0);  // Checksum placeholder.
      store_u32(l4 + 4, 0);  // Rest-of-header.
      store_u16(l4 + 2, fold_sum(ones_sum(l4, l4_len)));
      break;
    }
  }

  const std::uint16_t wire_total = static_cast<std::uint16_t>(20 + l4_len);
  // The advertised total_length may exceed the wire image (payload elided);
  // keep the larger of the two so decode restores the original field.
  const std::uint16_t advertised =
      pkt.total_length > wire_total ? pkt.total_length : wire_total;

  ip[0] = 0x45;  // Version 4, IHL 5.
  ip[1] = pkt.tos;
  store_u16(ip + 2, advertised);
  store_u16(ip + 4, pkt.ip_id);
  store_u16(ip + 6, 0x4000);  // Don't Fragment, offset 0.
  ip[8] = pkt.ttl;
  ip[9] = static_cast<std::uint8_t>(pkt.proto);
  store_u16(ip + 10, 0);  // Header checksum placeholder.
  store_u32(ip + 12, pkt.src.value());
  store_u32(ip + 16, pkt.dst.value());
  store_u16(ip + 10, fold_sum(ones_sum(ip, 20)));

  // TCP/UDP checksum over pseudo-header + segment, summed piecewise (the
  // one's-complement sum is order-independent, so no pseudo buffer).
  if (pkt.proto == IpProto::kTcp || pkt.proto == IpProto::kUdp) {
    std::uint32_t sum = ones_sum(l4, l4_len);
    sum += (pkt.src.value() >> 16) + (pkt.src.value() & 0xFFFF);
    sum += (pkt.dst.value() >> 16) + (pkt.dst.value() & 0xFFFF);
    sum += static_cast<std::uint32_t>(pkt.proto);
    sum += static_cast<std::uint32_t>(l4_len);
    const std::size_t csum_off = pkt.proto == IpProto::kTcp ? 16 : 6;
    store_u16(l4 + csum_off, fold_sum(sum));
  }

  out.insert(out.end(), buf, buf + 20 + l4_len);
  return 20 + l4_len;
}

bool parse_canonical(std::span<const std::uint8_t> bytes, TimeMicros ts,
                     Packet& out) {
  // Fixed-layout overlay for the canonical image every encoder in this
  // codebase emits: IPv4 with IHL 5, then TCP/UDP/ICMP at byte 20. Field
  // extraction is straight-line; the only loops are the 20-byte checksum
  // (fixed trip count, vectorizable) and option decoding. Anything
  // non-canonical — wrong version, IHL != 5, unknown protocol, bad
  // lengths, checksum or option trouble — returns false and the caller
  // retries with `parse`, which reproduces the exact error.
  if (bytes.size() < 28) return false;
  if (bytes[0] != 0x45) return false;
  if (fold_sum(ones_sum(bytes.data(), 20)) != 0) return false;

  out = Packet{};
  out.ts = ts;
  out.tos = bytes[1];
  out.total_length = get_u16(bytes, 2);
  out.ip_id = get_u16(bytes, 4);
  out.ttl = bytes[8];
  out.src = Ipv4(get_u32(bytes, 12));
  out.dst = Ipv4(get_u32(bytes, 16));

  const std::uint8_t proto = bytes[9];
  auto l4 = bytes.subspan(20);
  if (proto == 6) {
    out.proto = IpProto::kTcp;
    if (l4.size() < 20) return false;
    out.src_port = get_u16(l4, 0);
    out.dst_port = get_u16(l4, 2);
    out.seq = get_u32(l4, 4);
    out.ack = get_u32(l4, 8);
    out.data_offset = l4[12] >> 4;
    out.reserved = l4[12] & 0x0F;
    out.flags = l4[13];
    out.window = get_u16(l4, 14);
    out.urgent = get_u16(l4, 18);
    const std::size_t hdr_len = std::size_t{out.data_offset} * 4;
    if (hdr_len < 20 || l4.size() < hdr_len) return false;
    if (hdr_len > 20) {
      auto opts = decode_tcp_options(l4.subspan(20, hdr_len - 20));
      if (!opts.ok()) return false;
      out.opts = std::move(opts).take();
    }
    return true;
  }
  if (proto == 17) {
    out.proto = IpProto::kUdp;
    // l4.size() >= 8 guaranteed by the 28-byte gate above.
    out.src_port = get_u16(l4, 0);
    out.dst_port = get_u16(l4, 2);
    return true;
  }
  if (proto == 1) {
    out.proto = IpProto::kIcmp;
    out.icmp_type_v = l4[0];
    out.icmp_code = l4[1];
    return true;
  }
  return false;
}

Result<Packet> parse(std::span<const std::uint8_t> bytes, TimeMicros ts) {
  if (bytes.size() < 20) return make_error("wire", "short IPv4 header");
  if ((bytes[0] >> 4) != 4) return make_error("wire", "not IPv4");
  const std::size_t ihl = static_cast<std::size_t>(bytes[0] & 0x0F) * 4;
  if (ihl < 20 || bytes.size() < ihl) {
    return make_error("wire", "bad IHL");
  }
  if (internet_checksum(bytes.subspan(0, ihl)) != 0) {
    return make_error("wire", "IPv4 checksum mismatch");
  }

  Packet p;
  p.ts = ts;
  p.tos = bytes[1];
  p.total_length = get_u16(bytes, 2);
  p.ip_id = get_u16(bytes, 4);
  p.ttl = bytes[8];
  p.src = Ipv4(get_u32(bytes, 12));
  p.dst = Ipv4(get_u32(bytes, 16));

  auto l4 = bytes.subspan(ihl);
  switch (bytes[9]) {
    case 6: {
      p.proto = IpProto::kTcp;
      if (l4.size() < 20) return make_error("wire", "short TCP header");
      p.src_port = get_u16(l4, 0);
      p.dst_port = get_u16(l4, 2);
      p.seq = get_u32(l4, 4);
      p.ack = get_u32(l4, 8);
      p.data_offset = l4[12] >> 4;
      p.reserved = l4[12] & 0x0F;
      p.flags = l4[13];
      p.window = get_u16(l4, 14);
      p.urgent = get_u16(l4, 18);
      const std::size_t hdr_len = std::size_t{p.data_offset} * 4;
      if (hdr_len < 20 || l4.size() < hdr_len) {
        return make_error("wire", "bad TCP data offset");
      }
      auto opts = decode_tcp_options(l4.subspan(20, hdr_len - 20));
      if (!opts.ok()) return opts.error();
      p.opts = std::move(opts).take();
      break;
    }
    case 17: {
      p.proto = IpProto::kUdp;
      if (l4.size() < 8) return make_error("wire", "short UDP header");
      p.src_port = get_u16(l4, 0);
      p.dst_port = get_u16(l4, 2);
      break;
    }
    case 1: {
      p.proto = IpProto::kIcmp;
      if (l4.size() < 8) return make_error("wire", "short ICMP header");
      p.icmp_type_v = l4[0];
      p.icmp_code = l4[1];
      break;
    }
    default:
      return make_error("wire", "unsupported IP protocol " +
                                    std::to_string(bytes[9]));
  }
  return p;
}

}  // namespace exiot::net
