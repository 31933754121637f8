// Packet-level fingerprinting of the scanning implementation behind a flow:
// Mirai's stateless-scan signature (tcp.seq == dst ip), and the scanning
// toolchains identified by header invariants (ZMap's ip.id = 54321,
// MASSCAN's ip.id = dst ^ port ^ seq, Nmap's fixed window ladder). Appended
// by the Annotate module to every record, as the paper does citing
// Antonakakis et al. and Ghiëtte et al.
#pragma once

#include <string>
#include <vector>

#include "net/packet.h"

namespace exiot::fingerprint {

/// Tool verdict for a sampled flow.
struct ToolMatch {
  std::string tool;  // "Mirai", "Zmap", "Masscan", "Nmap", or "unknown".
  double confidence = 0.0;  // Fraction of sampled packets matching.
};

/// Identifies the scan tool from a flow's sampled packets. Requires a
/// dominant (>= 90%) signature across TCP packets; returns "unknown"
/// otherwise. Tools checked: Mirai, ZMap, MASSCAN, Nmap, Unicornscan.
ToolMatch fingerprint_tool(const std::vector<net::Packet>& sample);

/// Unicornscan is identified from the whole sample: fixed 4096 window,
/// optionless SYNs, and one constant source port across the run.
bool matches_unicorn(const std::vector<net::Packet>& sample);

}  // namespace exiot::fingerprint
