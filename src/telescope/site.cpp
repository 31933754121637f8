#include "telescope/site.h"

#include <cassert>

namespace exiot::telescope {

std::vector<Cidr> partition_aperture(Cidr telescope, int n) {
  assert(is_power_of_two(n));
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  assert(telescope.prefix_len() + bits <= 32);
  const int sub_len = telescope.prefix_len() + bits;
  const std::uint64_t sub_size = telescope.size() >> bits;
  std::vector<Cidr> sites;
  sites.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sites.emplace_back(telescope.address_at(sub_size * i), sub_len);
  }
  return sites;
}

}  // namespace exiot::telescope
