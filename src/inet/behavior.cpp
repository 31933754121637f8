#include "inet/behavior.h"

#include <algorithm>

namespace exiot::inet {

StackProfile embedded_linux_stack() {
  StackProfile s;
  s.ttl_base = 64;
  s.windows = {5840, 14600};
  s.mss = true;
  s.mss_value = 1460;
  s.ip_id = IpIdStrategy::kCounter;
  return s;
}

StackProfile mirai_raw_socket_stack() {
  // Mirai builds SYNs with a raw socket: no TCP options at all, random
  // window from a small set, random IP id.
  StackProfile s;
  s.ttl_base = 64;
  s.windows = {0xFFFF, 0xEAD0, 0x8000};
  s.mss = false;
  s.ip_id = IpIdStrategy::kRandom;
  return s;
}

StackProfile desktop_linux_stack() {
  StackProfile s;
  s.ttl_base = 64;
  s.windows = {29200, 64240, 65535};
  s.mss = true;
  s.mss_value = 1460;
  s.wscale = true;
  s.wscale_value = 7;
  s.timestamp = true;
  s.sack_permitted = true;
  s.nop = true;
  s.ip_id = IpIdStrategy::kCounter;
  return s;
}

StackProfile windows_stack() {
  StackProfile s;
  s.ttl_base = 128;
  s.windows = {8192, 65535};
  s.mss = true;
  s.mss_value = 1460;
  s.wscale = true;
  s.wscale_value = 8;
  s.sack_permitted = true;
  s.nop = true;
  s.ip_id = IpIdStrategy::kCounter;
  return s;
}

StackProfile zmap_stack() {
  StackProfile s;
  s.ttl_base = 255;
  s.windows = {65535};
  s.mss = true;
  s.mss_value = 1460;
  s.ip_id = IpIdStrategy::kZmap;
  return s;
}

StackProfile masscan_stack() {
  StackProfile s;
  s.ttl_base = 255;
  s.windows = {1024};
  s.mss = false;
  s.ip_id = IpIdStrategy::kMasscanXor;
  return s;
}

StackProfile nmap_stack() {
  StackProfile s;
  s.ttl_base = 59;  // Nmap randomizes near the high 50s.
  s.windows = {1024, 2048, 3072, 4096};
  s.mss = true;
  s.mss_value = 1460;
  s.ip_id = IpIdStrategy::kRandom;
  return s;
}

namespace {

ScanBehavior mirai() {
  ScanBehavior b;
  b.family = "mirai";
  b.tool_label = "Mirai";
  b.iot = true;
  // Mirai's weighted dial: 23 dominant, 2323 secondary; variants add HTTP
  // and management ports (these weights shape Table V's target-port row).
  b.ports = {{23, 0.50}, {2323, 0.12}, {80, 0.10}, {8080, 0.10},
             {81, 0.06}, {8443, 0.03}, {7547, 0.05}, {5555, 0.04}};
  b.seq = SeqStrategy::kDstIp;
  b.stack = mirai_raw_socket_stack();
  b.rate_scale = 0.08;
  b.rate_shape = 1.6;
  b.rate_cap = 8.0;
  b.mean_session_seconds = 4 * 3600;
  return b;
}

ScanBehavior mirai_variant() {
  ScanBehavior b = mirai();
  b.family = "mirai_variant";
  b.tool_label = "Mirai variant";
  b.ports = {{8080, 0.30}, {80, 0.22}, {81, 0.16}, {82, 0.07},
             {83, 0.05},   {84, 0.04}, {85, 0.06}, {8081, 0.05},
             {5555, 0.05}};
  // Variants patch the window set but keep the seq == dst_ip scan loop.
  b.stack.windows = {0xFFFF};
  return b;
}

ScanBehavior hajime() {
  ScanBehavior b;
  b.family = "hajime";
  b.tool_label = "Hajime";
  b.iot = true;
  b.ports = {{23, 0.55}, {5358, 0.20}, {81, 0.15}, {8080, 0.10}};
  b.seq = SeqStrategy::kRandom;
  b.stack = embedded_linux_stack();
  b.rate_scale = 0.05;
  b.rate_cap = 4.0;
  b.mean_session_seconds = 5 * 3600;
  return b;
}

ScanBehavior mozi() {
  ScanBehavior b;
  b.family = "mozi";
  b.tool_label = "Mozi";
  b.iot = true;
  b.ports = {{23, 0.35}, {2323, 0.15}, {8080, 0.20}, {5555, 0.15},
             {7547, 0.15}};
  b.seq = SeqStrategy::kRandom;
  b.stack = embedded_linux_stack();
  b.stack.windows = {14600};
  b.rate_scale = 0.06;
  b.rate_cap = 6.0;
  return b;
}

ScanBehavior gafgyt() {
  ScanBehavior b;
  b.family = "gafgyt";
  b.tool_label = "Gafgyt";
  b.iot = true;
  b.ports = {{23, 0.45}, {22, 0.20}, {2323, 0.20}, {80, 0.15}};
  b.seq = SeqStrategy::kPerRun;
  b.stack = embedded_linux_stack();
  b.rate_scale = 0.07;
  b.rate_cap = 10.0;
  return b;
}

ScanBehavior adb_miner() {
  ScanBehavior b;
  b.family = "adb_miner";
  b.tool_label = "ADB.Miner";
  b.iot = true;
  b.ports = {{5555, 1.0}};
  b.seq = SeqStrategy::kRandom;
  b.stack = embedded_linux_stack();
  b.stack.windows = {65535};
  b.rate_scale = 0.05;
  b.rate_cap = 5.0;
  return b;
}

ScanBehavior ics_scanner() {
  // Compromised PLCs / building controllers probing industrial protocol
  // ports — the reason Table I's deployment grabs MODBUS/BACnet/Fox/DNP3.
  ScanBehavior b;
  b.family = "ics_worm";
  b.tool_label = "unknown";
  b.iot = true;
  b.ports = {{502, 0.40}, {47808, 0.20}, {1911, 0.15}, {20000, 0.15},
             {102, 0.10}};
  b.seq = SeqStrategy::kRandom;
  b.stack = embedded_linux_stack();
  b.stack.windows = {5840};
  b.rate_scale = 0.04;
  b.rate_cap = 2.0;
  b.mean_session_seconds = 6 * 3600;
  return b;
}

ScanBehavior stealth_iot() {
  // IoT malware that deliberately impersonates a desktop SSH brute-forcer
  // to evade header-based detection (§I: malware "altering device
  // characteristics"): same stack, same rate profile, same port dial. Only
  // the hosting network distinguishes it. This family is what caps the
  // classifier's recall near the paper's 77%.
  ScanBehavior b;
  b.family = "stealth_iot";
  b.tool_label = "unknown";
  b.iot = true;
  b.ports = {{22, 0.9}, {2222, 0.1}};
  b.seq = SeqStrategy::kRandom;
  b.stack = desktop_linux_stack();
  b.rate_scale = 0.15;
  b.rate_cap = 8.0;
  b.repeat_ratio = 0.15;
  b.mean_session_seconds = 3 * 3600;
  return b;
}

ScanBehavior ssh_bruteforcer() {
  ScanBehavior b;
  b.family = "ssh_bruteforce";
  b.tool_label = "unknown";
  b.iot = false;
  b.ports = {{22, 0.9}, {2222, 0.1}};
  b.seq = SeqStrategy::kRandom;
  b.stack = desktop_linux_stack();
  b.rate_scale = 0.15;
  b.rate_cap = 8.0;
  b.mean_session_seconds = 3 * 3600;
  b.repeat_ratio = 0.15;  // Brute forcers revisit responsive targets.
  return b;
}

ScanBehavior windows_worm() {
  ScanBehavior b;
  b.family = "windows_worm";
  b.tool_label = "unknown";
  b.iot = false;
  b.ports = {{445, 0.75}, {139, 0.15}, {3389, 0.10}};
  b.seq = SeqStrategy::kRandom;
  b.stack = windows_stack();
  b.rate_scale = 0.12;
  b.rate_cap = 6.0;
  b.mean_session_seconds = 3 * 3600;
  return b;
}

ScanBehavior zmap_user() {
  ScanBehavior b;
  b.family = "zmap";
  b.tool_label = "Zmap";
  b.iot = false;
  b.ports = {{80, 0.30}, {443, 0.25}, {8080, 0.15}, {21, 0.10},
             {25, 0.10}, {110, 0.10}};
  b.seq = SeqStrategy::kPerRun;
  b.stack = zmap_stack();
  b.rate_scale = 0.8;
  b.rate_shape = 1.4;
  b.rate_cap = 25.0;
  b.mean_session_seconds = 2 * 3600;
  b.iat_regularity = 0.95;
  return b;
}

ScanBehavior masscan_user() {
  ScanBehavior b;
  b.family = "masscan";
  b.tool_label = "Masscan";
  b.iot = false;
  b.ports = {{443, 0.35}, {80, 0.30}, {22, 0.20}, {3389, 0.15}};
  b.seq = SeqStrategy::kRandom;
  b.stack = masscan_stack();
  b.rate_scale = 1.2;
  b.rate_shape = 1.4;
  b.rate_cap = 30.0;
  b.mean_session_seconds = 90 * 60;
  b.iat_regularity = 0.95;
  return b;
}

ScanBehavior nmap_user() {
  ScanBehavior b;
  b.family = "nmap";
  b.tool_label = "Nmap";
  b.iot = false;
  b.ports = {{22, 0.15}, {23, 0.10}, {80, 0.15}, {443, 0.15},
             {445, 0.10}, {3389, 0.10}, {8080, 0.10}, {21, 0.05},
             {25, 0.05}, {110, 0.05}};
  b.seq = SeqStrategy::kRandom;
  b.stack = nmap_stack();
  b.rate_scale = 0.4;
  b.rate_cap = 10.0;
  b.mean_session_seconds = 3 * 3600;
  return b;
}

ScanBehavior unicorn_user() {
  // Unicornscan: fixed 4096 window, optionless SYNs, one constant source
  // port per run (the toolchain fingerprint from Ghiette et al.).
  ScanBehavior b;
  b.family = "unicorn";
  b.tool_label = "Unicorn";
  b.iot = false;
  b.ports = {{80, 0.4}, {443, 0.3}, {21, 0.15}, {23, 0.15}};
  b.seq = SeqStrategy::kPerRun;
  StackProfile s;
  s.ttl_base = 255;
  s.windows = {4096};
  s.mss = false;
  s.ip_id = IpIdStrategy::kRandom;
  b.stack = s;
  b.rate_scale = 0.5;
  b.rate_cap = 15.0;
  b.mean_session_seconds = 2 * 3600;
  b.fixed_src_port = true;
  return b;
}

ScanBehavior mirai_on_server() {
  // Mirai's loader occasionally runs on x86 servers; these are ground-truth
  // non-IoT hosts wearing IoT-malware headers, the main precision cost.
  ScanBehavior b = mirai();
  b.family = "mirai_x86";
  b.iot = false;
  b.rate_scale = 0.5;
  b.rate_cap = 12.0;
  return b;
}

}  // namespace

BehaviorRoster BehaviorRoster::standard() {
  BehaviorRoster r;
  // IoT family mix: Mirai descendants dominate the 2020-2021 landscape.
  r.iot_families = {mirai(),      mirai_variant(), hajime(),
                    mozi(),       gafgyt(),        adb_miner(),
                    stealth_iot(), ics_scanner()};
  r.iot_weights = {0.34, 0.16, 0.08, 0.09, 0.07, 0.04, 0.20, 0.02};
  r.generic_families = {ssh_bruteforcer(), windows_worm(),   zmap_user(),
                        masscan_user(),    nmap_user(),      unicorn_user(),
                        mirai_on_server()};
  r.generic_weights = {0.29, 0.21, 0.17, 0.12, 0.12, 0.03, 0.06};
  return r;
}

PacketSynthesizer::PacketSynthesizer(const ScanBehavior& behavior, Ipv4 src,
                                     Cidr telescope, std::uint64_t seed)
    : behavior_(behavior),
      src_(src),
      telescope_(telescope),
      rng_(seed) {
  port_count_ = behavior.ports.size();
  if (port_count_ <= kMaxInlinePorts) {
    double acc = 0.0;
    for (std::size_t i = 0; i < port_count_; ++i) {
      acc += behavior.ports[i].weight;
      port_prefix_[i] = acc;
    }
  } else {
    port_weights_.reserve(behavior.ports.size());
    for (const auto& pw : behavior.ports) port_weights_.push_back(pw.weight);
    for (double w : port_weights_) port_weight_total_ += w;
  }
  path_hops_ = static_cast<int>(rng_.uniform_int(6, 28));
  ip_id_counter_ = static_cast<std::uint16_t>(rng_.next_u64());
  per_run_seq_ = static_cast<std::uint32_t>(rng_.next_u64());
  src_port_base_ =
      static_cast<std::uint16_t>(rng_.uniform_int(32768, 60999));
  ts_val_base_ = static_cast<std::uint32_t>(rng_.next_u64());
}

void PacketSynthesizer::make_probe_into(TimeMicros ts, net::Packet& out) {
  // Full reset: hot callers reuse the slot across hosts, so every field
  // must be written or defaulted. Assigning from a pre-built zero packet
  // compiles to one 64-byte copy instead of the member-by-member stores a
  // freshly value-initialized temporary costs.
  static const net::Packet kZero{};
  out = kZero;
  net::Packet& p = out;
  p.ts = ts;
  p.src = src_;
  p.proto = behavior_.proto;

  // Destination: uniform inside the telescope (a uniform Internet-wide scan
  // restricted to the aperture), with occasional repeats.
  if (has_last_dst_ && rng_.bernoulli(behavior_.repeat_ratio)) {
    p.dst = last_dst_;
  } else {
    p.dst = telescope_.address_at(rng_.next_below(telescope_.size()));
    last_dst_ = p.dst;
    has_last_dst_ = true;
  }

  const auto& stack = behavior_.stack;
  p.ttl = static_cast<std::uint8_t>(
      std::max(1, static_cast<int>(stack.ttl_base) - path_hops_));
  p.tos = stack.tos;

  const std::size_t port_idx =
      port_count_ <= kMaxInlinePorts
          ? rng_.weighted_index_prefix({port_prefix_.data(), port_count_})
          : rng_.weighted_index(port_weights_, port_weight_total_);
  p.dst_port = behavior_.ports[port_idx].port;
  p.src_port = behavior_.fixed_src_port
                   ? src_port_base_
                   : static_cast<std::uint16_t>(src_port_base_ +
                                                rng_.next_below(4096));

  if (p.proto == net::IpProto::kTcp) {
    p.flags = net::tcp_flags::kSyn;
    p.window = stack.windows[rng_.next_below(stack.windows.size())];
    switch (behavior_.seq) {
      case SeqStrategy::kRandom:
        p.seq = static_cast<std::uint32_t>(rng_.next_u64());
        break;
      case SeqStrategy::kDstIp:
        p.seq = p.dst.value();
        break;
      case SeqStrategy::kPerRun:
        p.seq = per_run_seq_;
        break;
    }
    if (stack.mss) p.opts.mss = stack.mss_value;
    if (stack.wscale) p.opts.wscale = stack.wscale_value;
    if (stack.timestamp) {
      p.opts.timestamp = true;
      p.opts.ts_val =
          ts_val_base_ + static_cast<std::uint32_t>(ts / 1000);
    }
    p.opts.sack_permitted = stack.sack_permitted;
    p.opts.nop = stack.nop;
    p.total_length = static_cast<std::uint16_t>(
        40 + (stack.mss ? 4 : 0) + (stack.wscale ? 4 : 0) +
        (stack.timestamp ? 12 : 0) + (stack.sack_permitted ? 4 : 0));
  } else if (p.proto == net::IpProto::kUdp) {
    p.total_length = 28;
  } else {
    p.icmp_type_v = net::icmp_type::kEchoRequest;
    p.total_length = 28;
  }

  switch (stack.ip_id) {
    case IpIdStrategy::kRandom:
      p.ip_id = static_cast<std::uint16_t>(rng_.next_u64());
      break;
    case IpIdStrategy::kCounter:
      p.ip_id = ++ip_id_counter_;
      break;
    case IpIdStrategy::kZmap:
      p.ip_id = 54321;
      break;
    case IpIdStrategy::kMasscanXor:
      p.ip_id = static_cast<std::uint16_t>(
          (p.dst.value() ^ p.dst_port ^ p.seq) & 0xFFFF);
      break;
    case IpIdStrategy::kZero:
      p.ip_id = 0;
      break;
  }
}

}  // namespace exiot::inet
