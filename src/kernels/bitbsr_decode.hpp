// Warp-level bitBSR block decode (Algorithm 2's matrix half), shared by the
// SpMV and SpMM kernels: the warp reads the block's packed header, each
// lane extracts its two bits from the block bitmap, loads only the set
// positions' binary16 values (zeros are computed in-register), and learns
// the block's grid column.
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "common/bitops.hpp"
#include "gpusim/warp.hpp"
#include "kernels/formats_device.hpp"
#include "matrix/bitbsr.hpp"

namespace spaden::kern {

struct DecodedBlock {
  sim::Lanes<half> a_val1;  ///< element at bit 2*lid (zero if bit clear)
  sim::Lanes<half> a_val2;  ///< element at bit 2*lid + 1
  mat::Index block_col = 0;
};

/// Decoded-block stream cache: the bitmap decode of a block (lane masks and
/// prefix-popcount rank tables) depends only on the block's bitmap, so it is
/// redundant across every warp, iteration and launch that touches the block.
/// The Spaden SpMV and SpMM build this arena at prepare time, keyed by block
/// id, and pass it to decode_bitbsr_block; it is read-only during launches,
/// so any number of simulation threads can share it.
///
/// Determinism contract: the cache removes *host* work only (the per-lane
/// bit tests and popcounts). The cached decode charges exactly the same
/// counters and issues exactly the same scalar loads and gathers as the
/// uncached path (`cache == nullptr`, the reference the tests compare
/// against), so modeled results are bit-identical either way.
class BitBsrDecodeCache {
 public:
  struct Entry {
    std::uint32_t mask1 = 0;  ///< lanes whose bit 2*lid is set
    std::uint32_t mask2 = 0;  ///< lanes whose bit 2*lid + 1 is set
    std::array<std::uint8_t, sim::kWarpSize> pc1{};  ///< prefix popcount at 2*lid
    std::array<std::uint8_t, sim::kWarpSize> pc2{};  ///< prefix popcount at 2*lid + 1
  };

  /// Build the per-block tables from the host format.
  void build(const mat::BitBsr& a) {
    entries_.assign(a.num_blocks(), Entry{});
    for (std::size_t i = 0; i < a.num_blocks(); ++i) {
      Entry& e = entries_[i];
      const std::uint64_t bmp = a.bitmap[i];
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        const unsigned pos1 = 2 * lane;
        const unsigned pos2 = pos1 + 1;
        if (spaden::test_bit(bmp, pos1)) {
          e.mask1 |= 1u << lane;
          e.pc1[lane] = static_cast<std::uint8_t>(spaden::prefix_popcount(bmp, pos1));
        }
        if (spaden::test_bit(bmp, pos2)) {
          e.mask2 |= 1u << lane;
          e.pc2[lane] = static_cast<std::uint8_t>(spaden::prefix_popcount(bmp, pos2));
        }
      }
    }
  }

  [[nodiscard]] const Entry& entry(mat::Index a_idx) const {
    return entries_[static_cast<std::size_t>(a_idx)];
  }

 private:
  std::vector<Entry> entries_;
};

/// Decode block `a_idx` of a device bitBSR: one broadcast load of the
/// block's 16-byte header, the Algorithm 2 integer arithmetic and the two
/// masked value gathers. `cache` (nullable) supplies prebuilt lane masks
/// and rank tables; see BitBsrDecodeCache for the determinism contract.
inline DecodedBlock decode_bitbsr_block(sim::WarpCtx& ctx, const DeviceBitBsr& m,
                                        mat::Index a_idx,
                                        const BitBsrDecodeCache* cache = nullptr) {
  DecodedBlock out{};
  const BitBsrHeader header = ctx.scalar_load(m.headers.cspan(), a_idx);
  const std::uint64_t bmp = header.bitmap;
  out.block_col = header.block_col;
  const mat::Index offset = header.val_offset;

  sim::Lanes<std::uint32_t> vidx1{};
  sim::Lanes<std::uint32_t> vidx2{};
  std::uint32_t mask_bit1 = 0;
  std::uint32_t mask_bit2 = 0;
  if (cache != nullptr) {
    const BitBsrDecodeCache::Entry& e = cache->entry(a_idx);
    mask_bit1 = e.mask1;
    mask_bit2 = e.mask2;
    for (std::uint32_t bits = mask_bit1; bits != 0; bits &= bits - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(bits));
      vidx1[lane] = offset + e.pc1[lane];
    }
    for (std::uint32_t bits = mask_bit2; bits != 0; bits &= bits - 1) {
      const auto lane = static_cast<unsigned>(std::countr_zero(bits));
      vidx2[lane] = offset + e.pc2[lane];
    }
  } else {
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      const unsigned pos1 = 2 * lane;
      const unsigned pos2 = pos1 + 1;
      if (spaden::test_bit(bmp, pos1)) {
        vidx1[lane] = offset + static_cast<std::uint32_t>(spaden::prefix_popcount(bmp, pos1));
        mask_bit1 |= 1u << lane;
      }
      if (spaden::test_bit(bmp, pos2)) {
        vidx2[lane] = offset + static_cast<std::uint32_t>(spaden::prefix_popcount(bmp, pos2));
        mask_bit2 |= 1u << lane;
      }
    }
  }
  // Shifts, masks, popcounts and the two ternaries (Algo 2 lines 1-6).
  // Charged identically with or without the host-side cache: the modeled
  // warp still performs Algorithm 2 in full.
  ctx.charge(sim::OpClass::IntAlu, 6 * sim::kWarpSize);
  const auto v1 = ctx.gather(m.values.cspan(), vidx1, mask_bit1);
  const auto v2 = ctx.gather(m.values.cspan(), vidx2, mask_bit2);
  for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
    out.a_val1[lane] = ((mask_bit1 >> lane) & 1u) ? v1[lane] : half{};
    out.a_val2[lane] = ((mask_bit2 >> lane) & 1u) ? v2[lane] : half{};
  }
  return out;
}

}  // namespace spaden::kern
