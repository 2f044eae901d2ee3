#include "gpusim/shared_l2.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace spaden::sim {

SharedL2::SharedL2(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes,
                   std::uint64_t max_stripes)
    : sector_bytes_(sector_bytes) {
  SPADEN_REQUIRE(ways > 0, "shared L2 ways must be positive");
  SPADEN_REQUIRE(std::has_single_bit(sector_bytes), "sector size must be a power of two");
  SPADEN_REQUIRE(max_stripes > 0, "shared L2 needs at least one stripe");
  // Mirror SectorCache's rounding so stripes partition exactly the sets the
  // monolithic cache would have.
  const std::uint64_t lines =
      capacity_bytes / sector_bytes / static_cast<std::uint64_t>(ways);
  const std::uint64_t total_sets = std::bit_floor(lines == 0 ? 1 : lines);
  const std::uint64_t stripe_count =
      std::min({kMaxStripes, std::bit_floor(max_stripes), total_sets});
  stripe_mask_ = stripe_count - 1;
  stripe_shift_ = std::countr_zero(stripe_count);
  const std::uint64_t stripe_capacity = (total_sets / stripe_count) *
                                        static_cast<std::uint64_t>(ways) * sector_bytes;
  stripes_.reserve(stripe_count);
  for (std::uint64_t s = 0; s < stripe_count; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(stripe_capacity, ways, sector_bytes));
  }
}

void SharedL2::flush() {
  for (auto& stripe : stripes_) {
    stripe->cache.flush();
  }
}

std::uint64_t SharedL2::hits() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->cache.hits();
  }
  return total;
}

std::uint64_t SharedL2::misses() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->cache.misses();
  }
  return total;
}

std::size_t SharedL2::host_bytes() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->cache.host_bytes();
  }
  return total;
}

}  // namespace spaden::sim
