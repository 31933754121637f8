// Brute-force oracle for the telescope's window merge: drains every host's
// stream on its own to the end, keeps the packets with ts in [t0, t1),
// then stable-sorts them by (ts, host index) — the canonical arrival order
// the slice merge (telescope::emit_window_rows) must reproduce at every
// producer-thread count. Simple rather than fast: for tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "inet/population.h"
#include "net/packet.h"
#include "telescope/synthesizer.h"

namespace exiot::oracle {

inline std::vector<net::Packet> reference_merge(const inet::Population& pop,
                                                Cidr aperture,
                                                TimeMicros t0,
                                                TimeMicros t1) {
  struct Row {
    net::Packet pkt;
    std::uint32_t host;
  };
  std::vector<Row> rows;
  for (std::uint32_t h = 0; h < pop.hosts().size(); ++h) {
    telescope::HostStream stream(pop, pop.hosts()[h], aperture);
    net::Packet pkt;
    while (stream.next_into(pkt)) {
      if (pkt.ts >= t0 && pkt.ts < t1) rows.push_back(Row{pkt, h});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.pkt.ts != b.pkt.ts) return a.pkt.ts < b.pkt.ts;
    return a.host < b.host;
  });
  std::vector<net::Packet> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(row.pkt);
  return out;
}

}  // namespace exiot::oracle
