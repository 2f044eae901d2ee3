#include "gpusim/cache.hpp"

#include <bit>

#include "common/error.hpp"

namespace spaden::sim {

SectorCache::SectorCache(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes)
    : sector_bytes_(sector_bytes), ways_(ways) {
  SPADEN_REQUIRE(ways > 0 && ways <= kMaxWays,
                 "cache ways %d out of [1, %d] (the LRU recency word holds 16 ways)", ways,
                 kMaxWays);
  SPADEN_REQUIRE(std::has_single_bit(sector_bytes), "sector size must be a power of two");
  const std::uint64_t lines = capacity_bytes / sector_bytes / static_cast<std::uint64_t>(ways);
  num_sets_ = std::bit_floor(lines == 0 ? 1 : lines);
  set_mask_ = num_sets_ - 1;
  lru_shift_ = 4 * (ways - 1);
  order_mask_ = ways == kMaxWays ? ~std::uint64_t{0} : (std::uint64_t{1} << (4 * ways)) - 1;
  // Most recent first: nibble p holds way ways-1-p, so way 0 is the victim
  // of the first miss, way 1 of the second, and so on.
  fresh_order_ = 0;
  for (int p = 0; p < ways; ++p) {
    fresh_order_ |= static_cast<std::uint64_t>(ways - 1 - p) << (4 * p);
  }
  tags_.assign(num_sets_ * static_cast<std::uint64_t>(ways_), kInvalidTag);
  order_.assign(num_sets_, fresh_order_);
}

void SectorCache::flush() {
  tags_.assign(tags_.size(), kInvalidTag);
  order_.assign(order_.size(), fresh_order_);
}

}  // namespace spaden::sim
