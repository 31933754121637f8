// Plain reference for fingerprint::fingerprint_tool: one predicate per
// scan tool, evaluated packet by packet, where the production verdict
// counts all four signatures in a single fused pass. Simple rather than
// fast: for tests.
#pragma once

#include <string>
#include <vector>

#include "fingerprint/tools.h"
#include "net/packet.h"

namespace exiot::oracle {

/// Mirai's stateless scan: the TCP sequence number is the destination.
inline bool matches_mirai(const net::Packet& pkt) {
  return pkt.proto == net::IpProto::kTcp && pkt.seq == pkt.dst.value();
}

/// ZMap's constant IP id.
inline bool matches_zmap(const net::Packet& pkt) {
  return pkt.ip_id == 54321;
}

/// MASSCAN's IP id: destination ^ destination port ^ sequence number.
inline bool matches_masscan(const net::Packet& pkt) {
  return pkt.proto == net::IpProto::kTcp &&
         pkt.ip_id == ((pkt.dst.value() ^ pkt.dst_port ^ pkt.seq) & 0xFFFF);
}

/// Nmap's window ladder with a 1460-byte MSS option.
inline bool matches_nmap(const net::Packet& pkt) {
  if (pkt.proto != net::IpProto::kTcp) return false;
  const bool window_ladder = pkt.window == 1024 || pkt.window == 2048 ||
                             pkt.window == 3072 || pkt.window == 4096;
  return window_ladder && pkt.opts.mss.has_value() && *pkt.opts.mss == 1460;
}

/// Counts each predicate over the sample's TCP packets and picks the first
/// tool at or above 90% in the order Mirai, ZMap, MASSCAN, Nmap; failing
/// that, Unicornscan's whole-sample check; failing that, "unknown".
inline fingerprint::ToolMatch reference_fingerprint_tool(
    const std::vector<net::Packet>& sample) {
  struct Tool {
    const char* name;
    bool (*matches)(const net::Packet&);
  };
  static constexpr Tool kTools[] = {{"Mirai", matches_mirai},
                                    {"Zmap", matches_zmap},
                                    {"Masscan", matches_masscan},
                                    {"Nmap", matches_nmap}};
  int tcp = 0;
  for (const auto& pkt : sample) tcp += pkt.proto == net::IpProto::kTcp;
  if (tcp == 0) return {"unknown", 0.0};
  for (const Tool& tool : kTools) {
    int hits = 0;
    for (const auto& pkt : sample) {
      if (pkt.proto == net::IpProto::kTcp && tool.matches(pkt)) ++hits;
    }
    const double fraction = static_cast<double>(hits) / tcp;
    if (fraction >= 0.9) return {tool.name, fraction};
  }
  if (fingerprint::matches_unicorn(sample)) return {"Unicorn", 1.0};
  return {"unknown", 0.0};
}

}  // namespace exiot::oracle
