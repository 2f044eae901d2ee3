// Memory controller: sector coalescing, L1/L2 filtering, atomics.
// These counters are the raw material of every modeled performance number,
// so the coalescing arithmetic is pinned down exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "gpusim/controller.hpp"
#include "gpusim/device.hpp"
#include "gpusim/warp.hpp"

namespace spaden::sim {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : l1_(4 * 1024, 4), l2_(1024 * 1024, 16), mc_(&l1_, &l2_, &stats_) {}

  SectorCache l1_;
  SectorCache l2_;
  KernelStats stats_;
  MemoryController mc_;
};

TEST_F(ControllerTest, FullyCoalescedWarpLoadTouchesFourSectors) {
  // 32 lanes x 4 bytes consecutive = 128 bytes = 4 sectors.
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  for (int i = 0; i < 32; ++i) {
    addrs[static_cast<std::size_t>(i)] = 0x1000 + static_cast<std::uint64_t>(i) * 4;
    sizes[static_cast<std::size_t>(i)] = 4;
  }
  mc_.access(addrs, sizes, kFullMask, false);
  EXPECT_EQ(stats_.wavefronts, 4u);
  EXPECT_EQ(stats_.sectors, 4u);  // cold caches: all miss L1
  EXPECT_EQ(stats_.dram_bytes, 4u * 32u);
  EXPECT_EQ(stats_.mem_instructions, 1u);
  EXPECT_EQ(stats_.lane_loads, 32u);
}

TEST_F(ControllerTest, FullyUncoalescedWarpLoadTouches32Sectors) {
  // 32 lanes with 128-byte stride: each lane its own sector — the CSR
  // Warp16 pattern (paper Fig. 8).
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  for (int i = 0; i < 32; ++i) {
    addrs[static_cast<std::size_t>(i)] = 0x1000 + static_cast<std::uint64_t>(i) * 128;
    sizes[static_cast<std::size_t>(i)] = 4;
  }
  mc_.access(addrs, sizes, kFullMask, false);
  EXPECT_EQ(stats_.wavefronts, 32u);
}

TEST_F(ControllerTest, SectorStraddlingAccessCountsBothSectors) {
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  addrs[0] = 30;  // 8-byte access crossing the 32-byte boundary
  sizes[0] = 8;
  mc_.access(addrs, sizes, 0x1u, false);
  EXPECT_EQ(stats_.wavefronts, 2u);
}

TEST_F(ControllerTest, MaskedLanesIgnored) {
  std::array<std::uint64_t, 32> addrs{};  // all lanes would hit sector 0
  std::array<std::uint32_t, 32> sizes{};
  sizes.fill(4);
  mc_.access(addrs, sizes, 0x0u, false);
  EXPECT_EQ(stats_.wavefronts, 0u);
  EXPECT_EQ(stats_.mem_instructions, 0u);
}

TEST_F(ControllerTest, L1HitsDoNotReachL2) {
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  sizes.fill(4);
  mc_.access(addrs, sizes, kFullMask, false);  // 1 sector, cold
  const auto l2_sectors_after_first = stats_.sectors;
  mc_.access(addrs, sizes, kFullMask, false);  // warm: L1 hit
  EXPECT_EQ(stats_.sectors, l2_sectors_after_first);
  EXPECT_EQ(stats_.wavefronts, 2u);  // wavefronts still counted
  EXPECT_EQ(stats_.l1_hit_bytes, 32u);
}

TEST_F(ControllerTest, L2HitAfterL1Eviction) {
  // Touch enough distinct sectors to evict sector 0 from the small L1 but
  // not from the large L2; re-access must be an L2 hit, not DRAM.
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  sizes.fill(4);
  mc_.access(addrs, sizes, 0x1u, false);  // sector 0
  for (std::uint64_t s = 1; s < 512; ++s) {
    addrs[0] = s * 32;
    mc_.access(addrs, sizes, 0x1u, false);
  }
  const auto dram_before = stats_.dram_bytes;
  addrs[0] = 0;
  mc_.access(addrs, sizes, 0x1u, false);
  EXPECT_EQ(stats_.dram_bytes, dram_before);  // served from L2
  EXPECT_GT(stats_.l2_hit_bytes, 0u);
}

TEST_F(ControllerTest, RangeAccessCountsContiguousSectors) {
  mc_.access_range(0x2000, 256, true);
  EXPECT_EQ(stats_.wavefronts, 8u);
  EXPECT_EQ(stats_.lane_stores, 1u);
  EXPECT_EQ(stats_.mem_instructions, 1u);
}

TEST_F(ControllerTest, AtomicsDoNotCoalesce) {
  // All 32 lanes atomically update the same sector: serialization means 32
  // wavefronts, unlike a normal store (1).
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  sizes.fill(4);
  mc_.access_atomic(addrs, sizes, kFullMask);
  EXPECT_EQ(stats_.wavefronts, 32u);
  EXPECT_EQ(stats_.atomic_lane_ops, 32u);
}

TEST_F(ControllerTest, AtomicStraddlingSectorChargesBothSectors) {
  // An 8-byte atomic (e.g. a future atomicAdd on double) crossing the
  // 32-byte boundary covers two sectors and must be charged for both, like
  // the load/store path is.
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  addrs[0] = 28;
  sizes[0] = 8;
  mc_.access_atomic(addrs, sizes, 0x1u);
  EXPECT_EQ(stats_.wavefronts, 2u);
  EXPECT_EQ(stats_.atomic_lane_ops, 1u);
  EXPECT_EQ(stats_.lane_stores, 1u);
}

// Reference semantics of one warp memory instruction, written the way the
// pre-batching controller worked: expand every active lane's sectors one by
// one, reduce to the ascending unique set, and probe each sector through L1
// then L2 in that order. The batched classification in
// MemoryController::access is an optimization of exactly this — same probe
// order, so cache LRU state and every counter must track bit-for-bit.
void reference_access(SectorCache& l1, SectorCache& l2, KernelStats& stats,
                      const std::array<std::uint64_t, 32>& addrs,
                      const std::array<std::uint32_t, 32>& sizes, std::uint32_t mask,
                      bool is_store) {
  if (mask == 0) {
    return;
  }
  ++stats.mem_instructions;
  const std::uint32_t sector_bytes = l2.sector_bytes();
  const auto shift = static_cast<std::uint32_t>(std::countr_zero(sector_bytes));
  std::vector<std::uint64_t> sectors;
  for (int lane = 0; lane < 32; ++lane) {
    if (((mask >> lane) & 1u) == 0) {
      continue;
    }
    if (is_store) {
      ++stats.lane_stores;
    } else {
      ++stats.lane_loads;
    }
    const std::uint64_t addr = addrs[static_cast<std::size_t>(lane)];
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last = (addr + sizes[static_cast<std::size_t>(lane)] - 1) >> shift;
    for (std::uint64_t s = first; s <= last; ++s) {
      sectors.push_back(s);
    }
  }
  std::sort(sectors.begin(), sectors.end());
  sectors.erase(std::unique(sectors.begin(), sectors.end()), sectors.end());
  for (const std::uint64_t s : sectors) {
    ++stats.wavefronts;
    if (l1.access_line(s)) {
      stats.l1_hit_bytes += sector_bytes;
      continue;
    }
    ++stats.sectors;
    if (l2.access_line(s)) {
      stats.l2_hit_bytes += sector_bytes;
    } else {
      stats.dram_bytes += sector_bytes;
    }
  }
}

TEST(BatchedClassification, MatchesPerLaneReferenceOnRandomTraffic) {
  // Small caches so the traffic mix actually exercises evictions: every
  // probe outcome (L1 hit, L2 hit, DRAM) appears many times, and any
  // divergence in probe order between the batched path and the reference
  // would desynchronize the LRU state and show up in the byte counters.
  SectorCache ref_l1(2 * 1024, 4);
  SectorCache ref_l2(16 * 1024, 8);
  KernelStats ref_stats;
  SectorCache bat_l1(2 * 1024, 4);
  SectorCache bat_l2(16 * 1024, 8);
  KernelStats bat_stats;
  MemoryController mc(&bat_l1, &bat_l2, &bat_stats);

  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // deterministic xorshift64
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr std::array<std::uint32_t, 5> kSizes{1, 2, 4, 8, 16};

  for (int i = 0; i < 3000; ++i) {
    std::array<std::uint64_t, 32> addrs{};
    std::array<std::uint32_t, 32> sizes{};
    switch (i % 5) {
      case 0: {  // fully coalesced ascending (the common fast path)
        const std::uint64_t base = next() % (1u << 16);
        for (int lane = 0; lane < 32; ++lane) {
          addrs[static_cast<std::size_t>(lane)] = base + 4 * static_cast<std::uint64_t>(lane);
          sizes[static_cast<std::size_t>(lane)] = 4;
        }
        break;
      }
      case 1: {  // random scatter with mixed access sizes
        for (int lane = 0; lane < 32; ++lane) {
          addrs[static_cast<std::size_t>(lane)] = next() % (1u << 16);
          sizes[static_cast<std::size_t>(lane)] = kSizes[next() % kSizes.size()];
        }
        break;
      }
      case 2: {  // descending stride: forces the sort fallback
        const std::uint64_t base = next() % (1u << 16);
        for (int lane = 0; lane < 32; ++lane) {
          addrs[static_cast<std::size_t>(lane)] =
              base + 128 * static_cast<std::uint64_t>(31 - lane);
          sizes[static_cast<std::size_t>(lane)] = 4;
        }
        break;
      }
      case 3: {  // broadcast: all lanes on one address (immediate repeats)
        const std::uint64_t addr = next() % (1u << 16);
        for (int lane = 0; lane < 32; ++lane) {
          addrs[static_cast<std::size_t>(lane)] = addr;
          sizes[static_cast<std::size_t>(lane)] = 8;
        }
        break;
      }
      default: {  // every lane straddles a sector boundary
        for (int lane = 0; lane < 32; ++lane) {
          addrs[static_cast<std::size_t>(lane)] = (next() % (1u << 11)) * 32 + 30;
          sizes[static_cast<std::size_t>(lane)] = 8;
        }
        break;
      }
    }
    // Mix of empty, full and random masks; random load/store.
    const std::uint32_t mask = i % 7 == 0   ? 0u
                               : i % 3 == 0 ? kFullMask
                                            : static_cast<std::uint32_t>(next());
    const bool is_store = (next() & 1u) != 0;
    mc.access(addrs, sizes, mask, is_store);
    reference_access(ref_l1, ref_l2, ref_stats, addrs, sizes, mask, is_store);
  }

  EXPECT_EQ(bat_stats.mem_instructions, ref_stats.mem_instructions);
  EXPECT_EQ(bat_stats.lane_loads, ref_stats.lane_loads);
  EXPECT_EQ(bat_stats.lane_stores, ref_stats.lane_stores);
  EXPECT_EQ(bat_stats.wavefronts, ref_stats.wavefronts);
  EXPECT_EQ(bat_stats.sectors, ref_stats.sectors);
  EXPECT_EQ(bat_stats.l1_hit_bytes, ref_stats.l1_hit_bytes);
  EXPECT_EQ(bat_stats.l2_hit_bytes, ref_stats.l2_hit_bytes);
  EXPECT_EQ(bat_stats.dram_bytes, ref_stats.dram_bytes);
}

TEST_F(ControllerTest, StatsAccumulateAcrossInstructions) {
  std::array<std::uint64_t, 32> addrs{};
  std::array<std::uint32_t, 32> sizes{};
  sizes.fill(4);
  for (int i = 0; i < 5; ++i) {
    mc_.access(addrs, sizes, kFullMask, i % 2 == 0);
  }
  EXPECT_EQ(stats_.mem_instructions, 5u);
  EXPECT_EQ(stats_.lane_loads, 2u * 32u);
  EXPECT_EQ(stats_.lane_stores, 3u * 32u);
}

// ----- WarpCtx::gather2 (ld.global.v2) ------------------------------------

// Lane l's pair in an 8-column x tile over a column-major stack: column
// l/4, rows 2*(l%4) and +1 of the 8-float segment starting at `row0`.
Lanes<std::uint32_t> tile_pairs(std::uint32_t stride, std::uint32_t row0) {
  Lanes<std::uint32_t> idx{};
  for (std::uint32_t lane = 0; lane < kWarpSize; ++lane) {
    idx[lane] = (lane / 4) * stride + row0 + 2 * (lane % 4);
  }
  return idx;
}

std::vector<float> iota_floats(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(i);
  }
  return v;
}

TEST_F(ControllerTest, Gather2LoadsAnAlignedTileInOneInstruction) {
  // 8 columns x 4 lanes x 8 bytes over a sector-aligned stack (stride 24
  // floats): each column's segment is one sector, read once.
  const std::vector<float> stack = iota_floats(8 * 24);
  const DSpan<const float> xs{stack.data(), 0x1000, stack.size()};
  WarpCtx ctx(&mc_, &stats_);
  const auto [lo, hi] = ctx.gather2(xs, tile_pairs(24, 8));
  EXPECT_EQ(stats_.mem_instructions, 1u);
  EXPECT_EQ(stats_.wavefronts, 8u);
  EXPECT_EQ(stats_.lane_loads, 32u);
  for (std::uint32_t lane = 0; lane < kWarpSize; ++lane) {
    const std::uint32_t i = (lane / 4) * 24 + 8 + 2 * (lane % 4);
    EXPECT_EQ(lo[lane], stack[i]);
    EXPECT_EQ(hi[lane], stack[i + 1]);
  }
}

TEST(Gather2, ClassifiesTheSectorsOfTheTwoGathersItReplaces) {
  // Aligned (24) and sector-straddling (18) column strides: the paired load
  // probes exactly the sectors the two scalar gathers probe between them,
  // so L2 and DRAM traffic match; only the wavefront count drops, to the
  // number of distinct sectors.
  for (const std::uint32_t stride : {24u, 18u}) {
    SCOPED_TRACE(stride);
    const std::vector<float> stack = iota_floats(8 * stride);
    const DSpan<const float> xs{stack.data(), 0x1000, stack.size()};
    const Lanes<std::uint32_t> idx = tile_pairs(stride, 8);
    Lanes<std::uint32_t> idx_hi = idx;
    for (std::uint32_t& i : idx_hi) {
      ++i;
    }

    SectorCache l1_two(4 * 1024, 4);
    SectorCache l2_two(1024 * 1024, 16);
    KernelStats two;
    MemoryController mc_two(&l1_two, &l2_two, &two);
    WarpCtx ctx_two(&mc_two, &two);
    const auto lo = ctx_two.gather(xs, idx);
    const auto hi = ctx_two.gather(xs, idx_hi);

    SectorCache l1_pair(4 * 1024, 4);
    SectorCache l2_pair(1024 * 1024, 16);
    KernelStats pair;
    MemoryController mc_pair(&l1_pair, &l2_pair, &pair);
    WarpCtx ctx_pair(&mc_pair, &pair);
    const auto [plo, phi] = ctx_pair.gather2(xs, idx);

    EXPECT_EQ(plo, lo);
    EXPECT_EQ(phi, hi);
    EXPECT_EQ(pair.sectors, two.sectors);
    EXPECT_EQ(pair.l2_hit_bytes, two.l2_hit_bytes);
    EXPECT_EQ(pair.dram_bytes, two.dram_bytes);
    EXPECT_EQ(pair.wavefronts, pair.sectors);  // cold L1: every sector is new
    EXPECT_EQ(pair.lane_loads, 32u);
    EXPECT_EQ(two.lane_loads, 64u);
    EXPECT_EQ(pair.mem_instructions, 1u);
    EXPECT_EQ(two.mem_instructions, 2u);
    EXPECT_LT(pair.wavefronts, two.wavefronts);
  }
}

TEST_F(ControllerTest, Gather2RejectsOddAndOutOfBoundsIndices) {
  const std::vector<float> stack = iota_floats(64);
  const DSpan<const float> xs{stack.data(), 0x1000, stack.size()};
  WarpCtx ctx(&mc_, &stats_);
  Lanes<std::uint32_t> idx{};
  idx[5] = 3;  // odd: the 8-byte access would straddle two float pairs
  EXPECT_THROW((void)ctx.gather2(xs, idx), Error);
  idx[5] = 63;  // the pair's second element is past the span
  EXPECT_THROW((void)ctx.gather2(xs, idx), Error);
  idx[5] = 62;
  EXPECT_NO_THROW((void)ctx.gather2(xs, idx));
  idx[5] = 63;  // an inactive lane's index is never checked
  EXPECT_NO_THROW((void)ctx.gather2(xs, idx, ~(1u << 5)));
}

TEST(Gather2, ReadingOneFloatPastAnAllocationIsReported) {
  Device device(l40());
  device.set_sanitize(true);
  auto buf = device.memory().upload(std::vector<float>(63, 1.0f), "payload");
  // Host storage holds 64 floats; the device allocation only 63, so the
  // pair at element 62 reads its second float past the allocation.
  const std::vector<float> backing(64, 1.0f);
  const DSpan<const float> xs{backing.data(), buf.device_addr(), backing.size()};
  const LaunchResult result = device.launch("gather2_tail", 1, [&](WarpCtx& ctx, std::uint64_t) {
    (void)ctx.gather2(xs, make_lanes<std::uint32_t>(62), 0x1u);
  });
  EXPECT_EQ(result.sanitizer.count(SanKind::OobAccess), 1u) << result.sanitizer.summary();
  EXPECT_NE(result.sanitizer.summary().find("'payload'"), std::string::npos)
      << result.sanitizer.summary();
}

}  // namespace
}  // namespace spaden::sim
