#include "fingerprint/tools.h"

namespace exiot::fingerprint {

bool matches_unicorn(const std::vector<net::Packet>& sample) {
  int tcp = 0;
  std::uint16_t src_port = 0;
  for (const auto& pkt : sample) {
    if (pkt.proto != net::IpProto::kTcp) continue;
    if (tcp == 0) src_port = pkt.src_port;
    ++tcp;
    if (pkt.window != 4096 || pkt.opts.mss.has_value() ||
        pkt.src_port != src_port) {
      return false;
    }
  }
  return tcp > 0;
}

ToolMatch fingerprint_tool(const std::vector<net::Packet>& sample) {
  // One flat pass, all signatures counted as masked adds (no per-packet
  // branches): samples are 200 packets and every record takes this path,
  // so the counting loop is hot in the annotate stage.
  int tcp = 0, mirai = 0, zmap = 0, masscan = 0, nmap = 0;
  for (const auto& pkt : sample) {
    const int is_tcp = pkt.proto == net::IpProto::kTcp;
    const std::uint16_t w = pkt.window;
    const int ladder =
        (w == 1024) | (w == 2048) | (w == 3072) | (w == 4096);
    const int mss1460 = pkt.opts.mss == 1460;  // false when unset.
    tcp += is_tcp;
    mirai += is_tcp & (pkt.seq == pkt.dst.value());
    zmap += is_tcp & (pkt.ip_id == 54321);
    masscan +=
        is_tcp & (pkt.ip_id ==
                  ((pkt.dst.value() ^ pkt.dst_port ^ pkt.seq) & 0xFFFF));
    nmap += is_tcp & ladder & mss1460;
  }
  if (tcp == 0) return {"unknown", 0.0};
  const double denom = tcp;
  // Mirai's signature is checked first: it is the strongest (32-bit
  // equality) and what the paper's references key on. MASSCAN's 16-bit
  // relation could collide with random ip_ids on a few packets, hence the
  // dominance requirement.
  struct Candidate {
    const char* name;
    int count;
  } candidates[] = {{"Mirai", mirai},
                    {"Zmap", zmap},
                    {"Masscan", masscan},
                    {"Nmap", nmap}};
  for (const auto& c : candidates) {
    const double fraction = c.count / denom;
    if (fraction >= 0.9) return {c.name, fraction};
  }
  // Nmap's window ladder includes 4096 + MSS; Unicornscan is the
  // optionless fixed-port variant, so it is checked after the per-packet
  // signatures miss.
  if (matches_unicorn(sample)) return {"Unicorn", 1.0};
  return {"unknown", 0.0};
}

}  // namespace exiot::fingerprint
