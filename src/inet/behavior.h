// Scanning behaviours: per-malware-family (and per-tool) models of how a
// compromised host probes the Internet. These models encode exactly the
// signal the paper's classifier exploits — scan packet inter-arrival times,
// target port sets with weights, and TCP/IP header idiosyncrasies (§III:
// "the effect of these differences is reflected in their generated scanning
// packets") — plus the packet-level tool signatures the Annotate module
// fingerprints (Mirai's tcp.seq == dst_ip, ZMap's ip.id = 54321, MASSCAN's
// ip.id = dst ^ port ^ seq, Nmap's fixed window ladder).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"

namespace exiot::inet {

/// How a scanner fills the TCP sequence number.
enum class SeqStrategy {
  kRandom,    // Fresh random per probe.
  kDstIp,     // seq == destination IP (the Mirai stateless-scan signature).
  kPerRun,    // One random value reused across the run (cheap stacks).
};

/// How a scanner fills the IPv4 identification field.
enum class IpIdStrategy {
  kRandom,
  kCounter,     // Monotone per-host counter (typical OS stacks).
  kZmap,        // Constant 54321 (ZMap's default).
  kMasscanXor,  // dst_ip ^ dst_port ^ seq folded to 16 bits (MASSCAN).
  kZero,
};

/// TCP/IP stack fingerprint of the scanning host: the header fields the
/// random-forest features are computed from.
struct StackProfile {
  std::uint8_t ttl_base = 64;  // Initial TTL before path decrementing.
  std::vector<std::uint16_t> windows{5840};
  bool mss = false;
  std::uint16_t mss_value = 1460;
  bool wscale = false;
  std::uint8_t wscale_value = 7;
  bool timestamp = false;
  bool sack_permitted = false;
  bool nop = false;
  IpIdStrategy ip_id = IpIdStrategy::kRandom;
  std::uint8_t tos = 0;
};

/// Canonical stack profiles.
StackProfile embedded_linux_stack();   // BusyBox-era IoT firmware.
StackProfile mirai_raw_socket_stack(); // Mirai's hand-built SYNs: no options.
StackProfile desktop_linux_stack();    // Full modern option set.
StackProfile windows_stack();
StackProfile zmap_stack();
StackProfile masscan_stack();
StackProfile nmap_stack();

/// A weighted target port.
struct PortWeight {
  std::uint16_t port;
  double weight;
};

/// A scanning behaviour: family identity plus everything needed to generate
/// the host's telescope-arriving packet stream.
struct ScanBehavior {
  std::string family;      // "mirai", "gafgyt", "zmap", ...
  std::string tool_label;  // What a perfect tool fingerprinter would say.
  bool iot = false;        // Ground truth: does this run on an IoT device?
  std::vector<PortWeight> ports;
  net::IpProto proto = net::IpProto::kTcp;
  SeqStrategy seq = SeqStrategy::kRandom;
  StackProfile stack;
  /// Telescope-arrival rate (packets/sec toward the darknet) is drawn per
  /// host from a Pareto with this scale/shape — IoT devices scan at low
  /// rates (§V-B), tools like ZMap/MASSCAN blast.
  double rate_scale = 0.05;
  double rate_shape = 1.8;
  double rate_cap = 50.0;
  /// Session length (seconds) is exponential with this mean; sessions
  /// shorter than the TRW minimums go undetected, as in the real system.
  double mean_session_seconds = 4 * 3600;
  /// Probability that the scanner re-targets an address it already probed
  /// (drives the paper's "address repetition ratio" statistic).
  double repeat_ratio = 0.02;
  /// Inter-arrival regularity: 0 = Poisson arrivals (malware event loops),
  /// 1 = metronomic constant-rate probing (ZMap/MASSCAN token buckets).
  /// One of the timing features the classifier keys on.
  double iat_regularity = 0.0;
  /// One constant source port for the whole run (Unicornscan's tell).
  bool fixed_src_port = false;
};

/// The built-in behaviour roster.
struct BehaviorRoster {
  std::vector<ScanBehavior> iot_families;
  std::vector<double> iot_weights;
  std::vector<ScanBehavior> generic_families;
  std::vector<double> generic_weights;

  static BehaviorRoster standard();
};

/// Stateful per-host packet synthesizer. Given a behaviour and the host's
/// identity, emits the host's probe packets as seen by the telescope.
class PacketSynthesizer {
 public:
  PacketSynthesizer(const ScanBehavior& behavior, Ipv4 src, Cidr telescope,
                    std::uint64_t seed);

  /// Builds the next probe packet at time `ts` into `out`, resetting every
  /// field first (hot emit paths reuse one slot across hosts).
  void make_probe_into(TimeMicros ts, net::Packet& out);

 private:
  /// Port draws use inclusive prefix sums held inline (no heap indirection
  /// on the per-packet path); rosters larger than the inline capacity fall
  /// back to the plain weight vector. Every roster behavior has <= 9 ports.
  static constexpr std::size_t kMaxInlinePorts = 16;

  const ScanBehavior& behavior_;
  Ipv4 src_;
  Cidr telescope_;
  Rng rng_;
  std::array<double, kMaxInlinePorts> port_prefix_{};
  std::size_t port_count_ = 0;
  std::vector<double> port_weights_;  // Fallback only (> inline capacity).
  double port_weight_total_ = 0.0;
  int path_hops_;
  std::uint16_t ip_id_counter_;
  std::uint32_t per_run_seq_;
  std::uint16_t src_port_base_;
  std::uint32_t ts_val_base_;
  Ipv4 last_dst_{};
  bool has_last_dst_ = false;
};

}  // namespace exiot::inet
