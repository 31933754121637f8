// The CAIDA-to-feed-server transport: Socat binds the flow detector's
// output to a local port, and the Receiver maintains an SSH tunnel to it.
// When the tunnel drops, the sender goes idle until the receiver
// reconnects — messages are delayed, never lost. This model reproduces
// those semantics on the virtual clock, with injectable outages.
//
// Delivery semantics: an outage [from, to) is followed by a reconnect
// window [to, to + reconnect_delay) while the SSH session re-establishes.
// A message sent anywhere inside [from, to + reconnect_delay) is queued
// and delivered at to + reconnect_delay — the tunnel is not usable while
// it is still reconnecting. If that delivery instant lands inside a later
// outage (or its reconnect window), the message cascades: it waits through
// that outage's reconnect too. `connected_at` and `delivery_time` agree
// about every instant: connected_at(t) is true iff a message sent at t
// would be delivered immediately.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace exiot::pipeline {

class ReconnectingTunnel {
 public:
  /// `reconnect_delay`: how long re-establishing the SSH tunnel takes after
  /// an outage ends. `site` labels this tunnel's metrics (a telescope runs
  /// one tunnel per sensor site; the single telescope is `site0`).
  explicit ReconnectingTunnel(TimeMicros reconnect_delay = seconds(5),
                              obs::MetricsRegistry* metrics = nullptr,
                              const std::string& site = "site0");

  /// Injects a connectivity outage over [from, to). Outages may be added
  /// in any order; overlapping or touching outages are merged on insert,
  /// so the stored list is always sorted and disjoint.
  void schedule_outage(TimeMicros from, TimeMicros to);

  /// When a message sent at `sent_at` reaches the receiver: immediately if
  /// connected, else at outage end + reconnect delay (cascading through
  /// back-to-back outages whose reconnect window overlaps the next
  /// outage). Also counts the message.
  TimeMicros deliver(TimeMicros sent_at);

  /// Pure query form of `deliver` (no counting).
  TimeMicros delivery_time(TimeMicros sent_at) const;

  /// True iff a message sent at `t` would pass through undelayed — false
  /// during an outage AND during its reconnect window (the tunnel is still
  /// re-establishing there; see delivery_time).
  bool connected_at(TimeMicros t) const;

 private:
  struct Outage {
    TimeMicros from;
    TimeMicros to;
  };
  /// Delivery time plus the number of outages the message waited through
  /// (the cascade length). The single source of truth shared by deliver(),
  /// delivery_time(), and connected_at(), so the reconnect counter can
  /// never drift from the delivery computation.
  struct Walk {
    TimeMicros at;
    std::uint64_t reconnects;
  };
  Walk walk(TimeMicros sent_at) const;

  TimeMicros reconnect_delay_;
  std::vector<Outage> outages_;  // Sorted by `from`, pairwise disjoint.
  obs::Counter* direct_c_;
  obs::Counter* delayed_c_;
  obs::Counter* reconnects_c_;
  obs::Histogram* delay_h_;
};

}  // namespace exiot::pipeline
