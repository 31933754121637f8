// Telescope federation primitives: sensor-site apertures carved out of the
// canonical telescope prefix.
//
// The federation model keeps the determinism contract the single-telescope
// pipeline asserts: traffic is synthesized once against the full telescope
// aperture (the synthesizer's RNG consumption depends on the aperture, so
// per-site synthesis would diverge), and each site observes exactly the
// rows of the canonical stream that land in its sub-prefix. The
// aggregator's stream is the canonical one with the dark (inactive)
// apertures' rows filtered out, in input order — so with every site active
// it is byte-identical for any site count, which is what lets the
// federation determinism matrix compare feeds across {1, 2, 4} sites.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace exiot::telescope {

/// One sensor site of the federated telescope.
struct SiteInfo {
  std::string name;  // "site0", "site1", ... (metric label).
  Cidr aperture;     // The sub-prefix this sensor monitors.
};

/// Splits `telescope` into `n` equal consecutive sub-prefixes (n must be a
/// power of two, and prefix_len + log2(n) must stay <= 32). Site i covers
/// [network + i * size/n, network + (i+1) * size/n).
std::vector<Cidr> partition_aperture(Cidr telescope, int n);

/// True iff n is a power of two (the only site counts partition_aperture
/// accepts — keeps site demux a shift, not a division).
constexpr bool is_power_of_two(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace exiot::telescope
