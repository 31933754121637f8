// The synthetic host population: who is scanning the Internet during the
// simulated period, from which network, with which device and malware
// behaviour. This is the ground truth against which the whole eX-IoT
// reproduction (detector, classifier, feeds) is evaluated.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "inet/behavior.h"
#include "inet/device_catalog.h"
#include "inet/world.h"

namespace exiot::inet {

enum class HostClass {
  kInfectedIot,       // A compromised IoT device scanning the Internet.
  kInfectedGeneric,   // A compromised non-IoT host (server/desktop) scanning.
  kBenignScanner,     // Research scanners (Censys/Shodan/UMich/...).
  kMisconfigured,     // Short bursts from broken nodes — not real scans.
  kBackscatterVictim, // DDoS victims whose replies splatter the telescope.
};

std::string to_string(HostClass c);

/// One active scanning window of a host. The per-host `rate` is the mean
/// telescope-arrival rate (packets/second toward the /8) during the session.
struct Session {
  TimeMicros start = 0;
  TimeMicros end = 0;
  double rate = 0.1;
};

struct Host {
  int id = 0;
  Ipv4 addr;
  HostClass cls = HostClass::kInfectedGeneric;
  std::uint32_t asn = 0;

  /// Index into BehaviorRoster::{iot,generic}_families (kBenignScanner uses
  /// the dedicated benign behaviour; victims/misconfig have none).
  int behavior_index = -1;
  bool behavior_is_iot = false;

  /// Index into the DeviceCatalog for IoT hosts (-1 otherwise).
  int device_index = -1;

  /// Active-probing behaviour: does the host answer the ZMap/ZGrab stage,
  /// and if it answers, has the malware scrubbed identifying banner text?
  bool responds_banner = false;
  bool banner_scrubbed = false;

  /// Reverse-DNS name ("" when the PTR record is missing).
  std::string rdns;

  std::vector<Session> sessions;
  std::uint64_t seed = 0;
};

/// Cohort sizes per simulated day. Defaults reproduce the paper's feed
/// composition at 1/100 scale: ~757k daily records of which ~146k IoT.
struct PopulationConfig {
  int days = 1;
  int iot_per_day = 1460;
  int generic_per_day = 6113;
  int benign_per_day = 40;
  int misconfig_per_day = 800;
  int victims_per_day = 120;
  /// Probability that an existing infected host starts an extra session on
  /// a later day (drives the ~16% redundant-IP rate of Table V's snapshot).
  double reappear_prob = 0.26;
  /// Fraction of infected IoT hosts that answer active probes (<10% per the
  /// paper) and, given an answer, fraction with un-scrubbed textual banners
  /// (so that ~3% of infected hosts expose identifying text).
  double iot_banner_response = 0.095;
  double iot_banner_textual_given_response = 0.33;
  /// Generic hosts respond more (ordinary servers): response / "IoT-like
  /// banner" never applies to them.
  double generic_banner_response = 0.28;
  std::uint64_t seed = 42;

  /// Uniform scale helper: multiplies all cohort sizes by `factor`.
  PopulationConfig scaled(double factor) const;
};

class Population {
 public:
  static Population generate(const PopulationConfig& config,
                             const WorldModel& world);

  const std::vector<Host>& hosts() const { return hosts_; }

  /// The behaviour driving a host's scanning (nullptr for victims and
  /// misconfigured nodes).
  const ScanBehavior* behavior_of(const Host& host) const;
  /// The IoT device model of a host (nullptr for non-IoT).
  const DeviceModel* device_of(const Host& host) const;

  /// Ground-truth lookup by source address. Returns nullptr for unknown
  /// addresses. If churn assigned several hosts the same address the first
  /// wins (collisions are avoided at generation time).
  const Host* find(Ipv4 addr) const;

  /// Ground-truth tallies (tests and EXPERIMENTS.md reporting).
  std::unordered_map<HostClass, int> count_by_class() const;

  /// Injects a hand-built host (e.g. the paper's controlled self-scan
  /// experiment). The address must be unique; behaviour indices must refer
  /// to the standard roster. Returns the assigned host id.
  int inject_host(Host host);

 private:
  BehaviorRoster roster_;
  DeviceCatalog catalog_;
  std::vector<Host> hosts_;
  std::unordered_map<std::uint32_t, int> by_addr_;
};

}  // namespace exiot::inet
