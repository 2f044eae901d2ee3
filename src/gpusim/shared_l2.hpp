// Shared, set-sharded L2 model for the parallel launcher.
//
// With shared_l2 off the parallel launcher gives each virtual SM a private
// L2 capacity slice (capacity/T) so counters are deterministic. This class
// instead models the hardware's ONE L2 shared by all SMs at T>1 (a T=1
// device needs no sharing: it probes one flat SectorCache, which classifies
// identically). The sector address space is striped over N = 2^k shards,
// each shard owning every N-th sector with its own lock and its own
// SectorCache of capacity/N — the banked-L2 analogue of a striped hash map.
//
// Exactness: SectorCache's set index is the low bits of the sector number,
// so striping by sector modulo a power of two is a *partition of the
// monolithic cache's sets*. Every sector lands in the same set contents it
// would in one big cache, and LRU order is per set, so splitting the sets
// over stripes changes nothing. A single-threaded pass through the sharded
// cache therefore classifies every access bit-for-bit like the monolithic
// SectorCache (tested). With several simulation threads the interleaving at
// each stripe follows the host schedule — hit/miss counters then wobble
// run-to-run, exactly like profiling real shared caches, while kernel
// numerics stay exact (see docs/performance_model.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/cache.hpp"

namespace spaden::sim {

class SharedL2 {
 public:
  /// Stripes are capped at this count (or the total set count if smaller).
  static constexpr std::uint64_t kMaxStripes = 64;

  /// `max_stripes` (rounded down to a power of two, clamped to [1,
  /// kMaxStripes]) bounds the shard count. Striping exists purely so
  /// concurrent simulation threads lock disjoint shards; classification is
  /// identical at any stripe count (see above). The count is fixed for the
  /// cache's lifetime — warmed state never migrates between layouts.
  SharedL2(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes,
           std::uint64_t max_stripes = kMaxStripes);

  /// Probe/insert the sector containing `byte_addr`; true on hit.
  /// Thread-safe: locks only the stripe owning the sector.
  bool access(std::uint64_t byte_addr) { return access_sector(byte_addr / sector_bytes_); }

  /// Probe/insert by sector number (byte address / sector size); true on
  /// hit. Same locking as access().
  bool access_sector(std::uint64_t sector) {
    Stripe& stripe = *stripes_[sector & stripe_mask_];
    // The stripe's cache sees the sector number with the stripe bits
    // removed, so its set index equals the high bits of the monolithic set
    // index and its tags still distinguish all sectors the stripe owns.
    const std::uint64_t line = sector >> stripe_shift_;
    const std::lock_guard<std::mutex> lock(stripe.mu);
    return stripe.cache.access_line(line);
  }

  /// Prefetch hint for an upcoming access_sector call (see
  /// SectorCache::prefetch_line). Touches no stripe state and takes no
  /// lock, so it is safe from any thread at any time.
  void prefetch_sector(std::uint64_t sector) const {
    stripes_[sector & stripe_mask_]->cache.prefetch_line(sector >> stripe_shift_);
  }

  /// Drop all cached state (cold-cache experiments). Not thread-safe.
  void flush();

  [[nodiscard]] int stripes() const { return static_cast<int>(stripes_.size()); }
  [[nodiscard]] std::uint32_t sector_bytes() const { return sector_bytes_; }
  /// Aggregate probe counters; call only while no launch is in flight.
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  /// Host memory held by the stripes' tag arrays and recency words.
  [[nodiscard]] std::size_t host_bytes() const;

 private:
  struct Stripe {
    Stripe(std::uint64_t capacity_bytes, int ways, std::uint32_t sector_bytes)
        : cache(capacity_bytes, ways, sector_bytes) {}
    alignas(64) std::mutex mu;  // own cache line: stripe locks never false-share
    SectorCache cache;
  };

  std::uint32_t sector_bytes_;
  std::uint64_t stripe_mask_ = 0;
  int stripe_shift_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace spaden::sim
