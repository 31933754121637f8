#include "pipeline/tunnel.h"

#include <algorithm>

namespace exiot::pipeline {

ReconnectingTunnel::ReconnectingTunnel(TimeMicros reconnect_delay,
                                       obs::MetricsRegistry* metrics,
                                       const std::string& site)
    : reconnect_delay_(reconnect_delay) {
  obs::MetricsRegistry& reg =
      metrics != nullptr ? *metrics : obs::scratch_registry();
  const obs::Labels direct{{"status", "direct"}, {"site", site}};
  const obs::Labels delayed{{"status", "delayed"}, {"site", site}};
  const obs::Labels plain{{"site", site}};
  direct_c_ = &reg.counter("exiot_tunnel_messages_total",
                           "Messages through the CAIDA-to-feed tunnel.",
                           direct);
  delayed_c_ = &reg.counter("exiot_tunnel_messages_total",
                            "Messages through the CAIDA-to-feed tunnel.",
                            delayed);
  reconnects_c_ = &reg.counter(
      "exiot_tunnel_reconnects_total",
      "Tunnel re-establishments a delivery had to wait through "
      "(one per outage crossed, cascades included).",
      plain);
  delay_h_ = &reg.histogram(
      "exiot_tunnel_delay_seconds",
      "Virtual queueing delay added by outages (delayed messages only).",
      obs::virtual_latency_buckets(), plain);
}

void ReconnectingTunnel::schedule_outage(TimeMicros from, TimeMicros to) {
  if (to <= from) return;
  // Fold every overlapping or touching outage into the new one, keeping
  // the list sorted and disjoint — deliveries then walk it once instead of
  // re-sorting and rescanning the full list per message.
  Outage merged{from, to};
  std::vector<Outage> kept;
  kept.reserve(outages_.size() + 1);
  for (const Outage& outage : outages_) {
    if (outage.to < merged.from || outage.from > merged.to) {
      kept.push_back(outage);
    } else {
      merged.from = std::min(merged.from, outage.from);
      merged.to = std::max(merged.to, outage.to);
    }
  }
  kept.insert(std::lower_bound(kept.begin(), kept.end(), merged,
                               [](const Outage& a, const Outage& b) {
                                 return a.from < b.from;
                               }),
              merged);
  outages_ = std::move(kept);
}

ReconnectingTunnel::Walk ReconnectingTunnel::walk(TimeMicros sent_at) const {
  TimeMicros t = sent_at;
  std::uint64_t crossed = 0;
  // Outages are sorted and disjoint, so `to` is increasing as well: binary
  // search for the first outage whose blackout + reconnect window could
  // still contain t, then cascade forward.
  auto it = std::lower_bound(
      outages_.begin(), outages_.end(), t,
      [this](const Outage& outage, TimeMicros v) {
        return outage.to + reconnect_delay_ <= v;
      });
  for (; it != outages_.end(); ++it) {
    if (t < it->from) break;  // A connected gap precedes every later outage.
    // t is inside [from, to + reconnect_delay): the message stays queued
    // until the tunnel has fully re-established, crossing one reconnect.
    t = it->to + reconnect_delay_;
    ++crossed;
  }
  return {t, crossed};
}

bool ReconnectingTunnel::connected_at(TimeMicros t) const {
  return walk(t).at == t;
}

TimeMicros ReconnectingTunnel::delivery_time(TimeMicros sent_at) const {
  return walk(sent_at).at;
}

TimeMicros ReconnectingTunnel::deliver(TimeMicros sent_at) {
  const Walk w = walk(sent_at);
  if (w.at != sent_at) {
    delayed_c_->inc();
    reconnects_c_->inc(w.reconnects);
    obs::VirtualTimer(*delay_h_, sent_at).stop(w.at);
  } else {
    direct_c_->inc();
  }
  return w.at;
}

}  // namespace exiot::pipeline
