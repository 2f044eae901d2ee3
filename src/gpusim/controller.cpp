#include "gpusim/controller.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace spaden::sim {

namespace {

// Sorts the (small, ≤3*kWarpSize) sector buffer. Insertion sort beats
// std::sort here: warp instructions yield at most ~96 entries, typically 32,
// and the shifting loop's branches predict far better than introsort's
// partitioning on random lane order (measured ~1.4x on a scattered-gather
// microbenchmark of MemoryController::access). Past ~48 entries the
// quadratic shifting overtakes that win, so bigger buffers (multi-sector
// lanes on scattered addresses) fall back to std::sort.
inline void sort_sectors(std::uint64_t* a, std::size_t n) {
  if (n > 48) {
    std::sort(a, a + n);
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t v = a[i];
    std::size_t j = i;
    while (j > 0 && a[j - 1] > v) {
      a[j] = a[j - 1];
      --j;
    }
    a[j] = v;
  }
}

}  // namespace

MemoryController::MemoryController(SectorCache* l1, SectorCache* l2, KernelStats* stats)
    : l1_(l1), l2_(l2), stats_(stats), sector_bytes_(l1->sector_bytes()),
      sector_shift_(static_cast<std::uint32_t>(std::countr_zero(l1->sector_bytes()))) {
  SPADEN_REQUIRE(l1->sector_bytes() == l2->sector_bytes(),
                 "L1/L2 sector sizes differ (%u vs %u)", l1->sector_bytes(),
                 l2->sector_bytes());
}

void MemoryController::touch_sector(std::uint64_t sector, bool is_store) {
  // Every unique sector of a warp instruction is one LSU wavefront (replay).
  ++stats_->wavefronts;
  if (remote_ != nullptr && remote_->is_remote(sector)) {
    ++stats_->remote_sectors;
  }
  if (l1_->access_line(sector)) {
    stats_->l1_hit_bytes += sector_bytes_;
    return;
  }
  ++stats_->sectors;
  if (l2_->access_line(sector)) {
    stats_->l2_hit_bytes += sector_bytes_;
  } else {
    // A load miss fetches the sector from DRAM; a store miss eventually
    // writes it back. Either way one sector crosses the DRAM interface.
    stats_->dram_bytes += sector_bytes_;
  }
  (void)is_store;
}

void MemoryController::access(const std::array<std::uint64_t, kWarpSize>& addrs,
                              const std::array<std::uint32_t, kWarpSize>& sizes,
                              std::uint32_t mask, bool is_store) {
  if (mask == 0) {
    return;
  }
  ++stats_->mem_instructions;

  // Batched classification: collect all lane sector ids in one pass,
  // filtering the immediate-repeat duplicates that dominate coalesced
  // patterns, then sort only if some lane broke the ascending order. The
  // resulting ascending unique sequence is probed in the same order the
  // per-lane path used, so cache LRU state and all counters are identical.
  std::array<std::uint64_t, 3 * kWarpSize> buf;
  std::size_t n = 0;
  const std::uint32_t shift = sector_shift_;
  int active = 0;
  bool sorted = true;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (((mask >> lane) & 1u) == 0) {
      continue;
    }
    ++active;
    const std::uint64_t addr = addrs[static_cast<std::size_t>(lane)];
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last =
        (addr + sizes[static_cast<std::size_t>(lane)] - 1) >> shift;
    if (n == 0 || buf[n - 1] != first) {
      if (n != 0 && buf[n - 1] > first) {
        sorted = false;
      }
      SPADEN_ASSERT(n < buf.size(),
                    "sector list overflow: warp instruction touches more than %zu sectors",
                    buf.size());
      buf[n++] = first;
    }
    for (std::uint64_t s = first + 1; s <= last; ++s) {
      SPADEN_ASSERT(n < buf.size(),
                    "sector list overflow: warp instruction touches more than %zu sectors",
                    buf.size());
      buf[n++] = s;
    }
  }
  if (is_store) {
    stats_->lane_stores += static_cast<std::uint64_t>(active);
  } else {
    stats_->lane_loads += static_cast<std::uint64_t>(active);
  }

  if (!sorted) {
    sort_sectors(buf.data(), n);
  }

  // Coalesce: one probe per unique sector, charged in bulk afterwards.
  // Every sector to be probed is already in buf, so prefetch the simulated
  // L2's tag sets and recency words a few entries ahead of the probe
  // cursor: on big-L2 devices the tag array is 16 MB and scattered probes
  // (one distinct sector per lane, e.g. CSR row walks) miss the host cache
  // on nearly every set. Prefetching duplicates or L1-hitting sectors is
  // wasted but harmless; classification is untouched either way.
  constexpr std::size_t kPrefetchAhead = 6;
  const std::size_t warmup = n < kPrefetchAhead ? n : kPrefetchAhead;
  for (std::size_t i = 0; i < warmup; ++i) {
    l2_->prefetch_line(buf[i]);
  }
  std::uint64_t wavefronts = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t dram = 0;
  std::uint64_t remote = 0;
  std::uint64_t prev = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      l2_->prefetch_line(buf[i + kPrefetchAhead]);
    }
    const std::uint64_t s = buf[i];
    if (s == prev) {
      continue;
    }
    prev = s;
    ++wavefronts;
    if (remote_ != nullptr && remote_->is_remote(s)) {
      ++remote;
    }
    if (l1_->access_line(s)) {
      ++l1_hits;
      continue;
    }
    if (l2_->access_line(s)) {
      ++l2_hits;
    } else {
      ++dram;
    }
  }
  stats_->wavefronts += wavefronts;
  stats_->sectors += wavefronts - l1_hits;
  stats_->l1_hit_bytes += l1_hits * sector_bytes_;
  stats_->l2_hit_bytes += l2_hits * sector_bytes_;
  stats_->dram_bytes += dram * sector_bytes_;
  stats_->remote_sectors += remote;
}

void MemoryController::access_range(std::uint64_t addr, std::uint64_t bytes, bool is_store) {
  if (bytes == 0) {
    return;
  }
  ++stats_->mem_instructions;
  const std::uint64_t first = addr >> sector_shift_;
  const std::uint64_t last = (addr + bytes - 1) >> sector_shift_;
  for (std::uint64_t s = first; s <= last; ++s) {
    touch_sector(s, is_store);
  }
  if (is_store) {
    ++stats_->lane_stores;
  } else {
    ++stats_->lane_loads;
  }
}

void MemoryController::access_atomic(const std::array<std::uint64_t, kWarpSize>& addrs,
                                     const std::array<std::uint32_t, kWarpSize>& sizes,
                                     std::uint32_t mask) {
  if (mask == 0) {
    return;
  }
  ++stats_->mem_instructions;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if ((mask >> lane) & 1u) {
      ++stats_->atomic_lane_ops;
      ++stats_->lane_stores;
      // Intentionally unmerged across lanes: atomics to the same sector
      // serialize at the L2 atomic unit, so every active lane pays its
      // sector accesses. Within a lane, charge every sector the access
      // covers — an 8-byte atomic straddling a sector boundary costs two.
      const std::uint64_t addr = addrs[static_cast<std::size_t>(lane)];
      const std::uint64_t first = addr >> sector_shift_;
      const std::uint64_t last =
          (addr + sizes[static_cast<std::size_t>(lane)] - 1) >> sector_shift_;
      for (std::uint64_t s = first; s <= last; ++s) {
        touch_sector(s, /*is_store=*/true);
      }
    }
  }
}

}  // namespace spaden::sim
