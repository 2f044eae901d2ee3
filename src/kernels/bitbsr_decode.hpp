// Warp-level bitBSR block decode (Algorithm 2's matrix half), shared by the
// SpMV and SpMM kernels: the warp reads the block's packed header, each
// lane extracts its two bits from the block bitmap, loads only the set
// positions' binary16 values (zeros are computed in-register), and learns
// the block's grid column. walk_block_row_pair is the block walk of one
// warp over a block-row pair that both kernels build their MMAs from.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "common/bitops.hpp"
#include "gpusim/warp.hpp"
#include "kernels/formats_device.hpp"
#include "matrix/bitbsr.hpp"
#include "tensorcore/fragment.hpp"

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

/// The block ranges of one warp's block-row pair r1 = 2 * pair and
/// r2 = r1 + 1, read with scalar loads of block_row_ptr. A pair whose r2 is
/// past the last block-row (odd brows) has len[1] == 0.
struct BlockRowPair {
  std::array<mat::Index, 2> begin{};
  std::array<mat::Index, 2> len{};

  BlockRowPair(sim::WarpCtx& ctx, sim::DSpan<const mat::Index> block_row_ptr, mat::Index pair,
               mat::Index brows) {
    for (mat::Index row = 0; row < 2 && 2 * pair + row < brows; ++row) {
      begin[row] = ctx.scalar_load(block_row_ptr, 2 * pair + row);
      len[row] = ctx.scalar_load(block_row_ptr, 2 * pair + row + 1) - begin[row];
    }
  }
};

/// One A-fragment portion of walk_block_row_pair: A's row half `row`
/// (0 holds block-row r1, 1 holds r2) and column half `k_half`. The slot's
/// x segment goes to B's row half k_half; which of B's column halves holds
/// it is the layout's choice (b_reg).
struct PairSlot {
  unsigned row = 0;
  unsigned k_half = 0;

  [[nodiscard]] unsigned a_reg() const { return 2 * tc::portion_pair(row, k_half); }
  /// First register of B's portion (k_half, col_half).
  [[nodiscard]] unsigned b_reg(unsigned col_half) const {
    return 2 * tc::portion_pair(k_half, col_half);
  }
};

/// One warp's walk over the blocks of a block-row pair, issuing one
/// m16n16k16 MMA per group of slots.
///
/// Four slots (`four_slots`): A holds blocks j and j+1 of r1 in its TL and
/// TR portions and blocks j and j+1 of r2 in BL and BR, so the warp issues
/// ceil(max(len1, len2) / 2) MMAs. The caller places a slot's x segment in
/// B's portion (k_half, row), so B's column half 0 holds r1's two segments
/// and column half 1 holds r2's, and C's TL portion is r1's product and BR
/// is r2's. This departs from the paper's Fig. 5, which leaves A's TR and
/// BL zero.
///
/// Two slots (the Fig. 5 layout): block j of r1 in TL and of r2 in BR,
/// max(len1, len2) MMAs. spmm_spaden_strided keeps it for warps with more
/// than 8 RHS columns, where both of B's column halves carry columns of
/// every slot.
///
/// Per live slot the warp decodes the block and `load_b(slot, block)` puts
/// the slot's x in B, both in the "decode" range; then the slot's A
/// portion is written straight into its registers ("mma"). After each
/// group, `mma()` issues the MMA(s).
///
/// The walk covers the pair's four-slot iterations [first, last), blocks
/// [2 * first, 2 * last) of each block-row (a segment of a split pair,
/// kernels/segments.hpp); `last` may run past the pair's end (kWholeUnit).
///
/// A slot past the end of its block-row zeroes its A portion once, on the
/// block-row's first iteration past its end or on the walk's first
/// iteration, whichever comes later: a slot that ran out stays out, so
/// nothing writes the portion again. With four slots it also zeroes its B
/// portion (k_half, row) of `b`. Otherwise the slot's last x segment would
/// stay there and meet the zero A portion in the block-row's own output,
/// where 0 * inf = NaN for an x entry outside binary16 range. With two
/// slots every MMA multiplies each slot's x by the other slot's zero A
/// portion anyway, so `b` is left alone.
///
/// Every row meets its blocks in ascending order in both layouts, so with
/// an accumulator that starts at +0 (it never becomes -0, and x + (+-0)
/// == x otherwise) the outputs are bit-identical between the two.
template <typename LoadB, typename Mma>
void walk_block_row_pair(sim::WarpCtx& ctx, const DeviceBitBsr& m,
                         const BitBsrDecodeCache* cache, const BlockRowPair& rows,
                         mat::Index first, mat::Index last, bool four_slots, tc::FragA& a,
                         tc::FragB& b, LoadB&& load_b, Mma&& mma) {
  const mat::Index per_mma = four_slots ? 2 : 1;
  const mat::Index blocks = static_cast<mat::Index>(std::min<std::uint64_t>(
      std::max(rows.len[0], rows.len[1]), 2 * std::uint64_t{last}));
  const mat::Index begin = 2 * first / per_mma;
  const mat::Index iterations = ceil_div(blocks, per_mma);
  for (mat::Index i = begin; i < iterations; ++i) {
    for (unsigned row = 0; row < 2; ++row) {
      for (unsigned c = 0; c < per_mma; ++c) {
        const PairSlot slot{row, four_slots ? c : row};
        const unsigned reg = slot.a_reg();
        const mat::Index j = i * per_mma + c;
        if (j >= rows.len[row]) {
          // The slot's first iteration past the end, or the walk's first.
          if (j < rows.len[row] + per_mma || i == begin) {
            // Zeros computed, not loaded (the register-level control
            // §4.3.3 credits for memory efficiency).
            const sim::ProfRange prof(ctx, "mma");
            const unsigned b_reg = slot.b_reg(row);
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              a.x(lane, reg) = half{};
              a.x(lane, reg + 1) = half{};
              if (four_slots) {
                b.x(lane, b_reg) = half{};
                b.x(lane, b_reg + 1) = half{};
              }
            }
            ctx.charge(sim::OpClass::RegMove, (four_slots ? 4 : 2) * sim::kWarpSize);
          }
          continue;
        }
        ctx.range_push("decode");
        const DecodedBlock block = decode_bitbsr_block(ctx, m, rows.begin[row] + j, cache);
        load_b(slot, block);
        ctx.range_pop();
        // Algorithm 3 lines 6-7: direct register writes.
        const sim::ProfRange prof(ctx, "mma");
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          a.x(lane, reg) = block.a_val1[lane];
          a.x(lane, reg + 1) = block.a_val2[lane];
        }
        ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
      }
    }
    const sim::ProfRange prof(ctx, "mma");
    mma();
  }
}

}  // namespace spaden::kern
