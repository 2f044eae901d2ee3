// Sparse matrix - dense matrix multiplication (SpMM), C = A * B.
//
// The paper's §7 names SpMM as the next target for bitBSR on dense matrix
// units; this module implements that extension. SpMV fills 2 of a
// fragment's 16 output columns (§4.3). With a dense right-hand side of more
// than 8 columns, each MMA multiplies the block-diagonal A = [A1 0; 0 A2]
// by 16 B columns, so both 8x8 blocks produce 16 useful output columns each
// — the economics that make TC-SpMM far easier than TC-SpMV (§1). Up to 8
// columns, A holds two blocks of each block-row, as in the SpMV kernel.
//
// Two device kernels are provided:
//   spmm_csr    — row-parallel CUDA-core baseline (cusparse csrmm-style)
//   spmm_spaden — bitBSR blocks decoded straight into fragment registers,
//                 each block decoded once per warp and multiplied against
//                 up to 16 RHS columns per MMA
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/half.hpp"
#include "gpusim/device.hpp"
#include "kernels/kernel.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"

namespace spaden::kern {

struct DeviceBitBsr;
class BitBsrDecodeCache;
struct DeviceSegments;

struct SpmmResult {
  mat::Dense c;
  sim::LaunchResult launch;
  [[nodiscard]] double gflops(std::size_t nnz, mat::Index k) const {
    return 2.0 * static_cast<double>(nnz) * k / launch.seconds() / 1e9;
  }
};

/// CUDA-core baseline: one warp per (row, 32-column tile of B); B rows are
/// read coalesced, fp32 throughout.
SpmmResult spmm_csr(sim::Device& device, const mat::Csr& a, const mat::Dense& b);

/// Tensor-core bitBSR SpMM: B is packed into a binary16 fragment stack and
/// run through spmm_spaden_strided, then C is unpacked into row-major
/// order; values in binary16, accumulation in fp32.
SpmmResult spmm_spaden(sim::Device& device, const mat::Csr& a, const mat::Dense& b);

/// RHS columns one warp of spmm_spaden_strided holds in registers. An
/// m16n16k16 fragment spreads 256 elements over 32 lanes: 8 fp32
/// accumulator registers and 4 packed-half B registers per lane and
/// 16-column tile. With the A fragment that is 28 registers per lane at
/// 32 columns and 52 at this cap of 64; one warp over k = 128 would hold
/// 100 and k = 512 would spill. The simulator models no register file, so
/// the cap is a constant rather than a modeled cost. A default serve batch
/// (max_batch 32) runs one warp per block-row pair.
inline constexpr mat::Index kSpmmRhsPerWarp = 64;

/// Words of the binary16 fragment stack of k columns of n rows:
/// ceil(k/8) column groups x ceil(n/8) block columns x 32 lanes, in 64 bits
/// so a caller can check it against the kernel's 32-bit lane indices.
[[nodiscard]] constexpr std::uint64_t fragment_stack_words(mat::Index k, mat::Index n) {
  return (std::uint64_t{k} + 7) / 8 * ((std::uint64_t{n} + 7) / 8) * sim::kWarpSize;
}

/// A host-packed binary16 fragment stack (pack_fragment_stack).
struct FragmentStack {
  std::vector<HalfPair> words;
  /// Every entry is within binary16 range (|v| <= 65504, not NaN), so it
  /// converts to a finite half.
  bool finite = true;
};

/// Packs k length-n columns (`at(c, i)` gives entry i of column c) in one
/// host pass into the order spmm_spaden_strided loads fragment B in. For
/// 8-column group g, block column b and lane l, word (g * bcols + b) * 32 + l
/// holds the two halves lane l writes into its B register pair: rows
/// 8b + 2*(l%4) and +1 of column 8g + l/4, each half(float) of the entry.
/// A warp's load of one (group, block column) is then 32 consecutive words,
/// 4 sectors. Rows past n and columns past k are zero pads. The same pass
/// records whether every entry is finite in binary16.
template <typename At>
[[nodiscard]] FragmentStack pack_fragment_stack(mat::Index k, mat::Index n, At&& at) {
  const std::size_t group_words = (std::size_t{n} + 7) / 8 * sim::kWarpSize;
  const float limit = static_cast<float>(half::max());
  FragmentStack stack;
  stack.words.resize(fragment_stack_words(k, n));
  for (mat::Index c = 0; c < k; ++c) {
    HalfPair* column = stack.words.data() + c / 8 * group_words + c % 8 * 4;
    for (mat::Index i = 0; i < n; ++i) {
      const float v = at(c, i);
      stack.finite = stack.finite && std::fabs(v) <= limit;
      HalfPair& word = column[i / 8 * sim::kWarpSize + i % 8 / 2];
      (i % 2 == 0 ? word.lo : word.hi) = half(v);
    }
  }
  return stack;
}

/// Strided multi-RHS SpMM over an *already prepared* device bitBSR — the
/// spaden-serve request-fusion path. X is the pack_fragment_stack stack of
/// k SpMV vectors; Y is a column-major fp32 stack of the k outputs with
/// column stride ys.size / k (output c at Y[c*y_stride..]), so per-request
/// results demultiplex as column slices. The x stack's
/// fragment_stack_words(k, ncols) and the y stack's size must fit the
/// kernel's 32-bit lane indices.
///
/// Fragment layout (paper §3's portion map: TL = x[0,1], BL = x[2,3],
/// TR = x[4,5], BR = x[6,7]); walk_block_row_pair walks the blocks. A warp
/// with more than 8 live RHS columns holds the slot-0 block in A's TL and
/// the slot-1 block in BR. Per 16-column RHS tile, B holds slot 0's x tile
/// in TL (RHS tile+0..7) and TR (tile+8..15), slot 1's in BL and BR, so the
/// accumulator's four portions are A1·X(c1) and A2·X(c2) over 16 RHS: one
/// MMA per iteration and tile. A warp with at most 8 live columns, SpMV's
/// layout at k = 1, holds blocks j and j+1 of r1 in A's TL and TR and of
/// r2 in BL and BR; B's column half 0 holds r1's two x tiles and column
/// half 1 r2's, so C's TL is r1's output and BR r2's: one MMA per two
/// iterations. Each lane loads its two B halves of a portion as one 32-bit
/// word, straight into the register pair: a slot loads one word per live
/// 8-column group. Lanes of columns past k load nothing.
///
/// Each warp covers one block-row pair and up to kSpmmRhsPerWarp RHS
/// columns, so the launch has pairs * ceil(k / kSpmmRhsPerWarp) warps. It
/// decodes each block once and keeps the A fragment for every tile's MMA.
/// With a non-empty segment plan (`segments`, nullable; the SpMV kernel's
/// plan, kernels/segments.hpp) each warp covers one segment instead, the
/// two-slot walk blocks [2 * begin, 2 * end), and the segments of a pair
/// hand 16 x live partials per column group off through a per-launch
/// scratch of 16 * k floats per segment slot; every column still sums its
/// segments in segment order, exactly as run() does.
///
/// Per column the arithmetic mirrors the Spaden SpMV kernel — same decode,
/// same half(float) x values (converted by the pack instead of the load),
/// same ascending block order per accumulator, and zero x rows past ncols
/// (stack pads here, skipped loads in SpMV). The extra terms the full
/// fragment adds (x rows read into a portion whose A block is zero) are
/// products with zero that add ±0 to an accumulator that is never -0. So
/// each output column is bit-identical to one SpadenKernel::run with that
/// column's x (the serve acceptance anchor) whenever every x entry is
/// finite in binary16, which SpadenKernel::upload_batch checks while
/// packing: in the wide layout the other slot's x meets a zero A portion.
sim::LaunchResult spmm_spaden_strided(sim::Device& device, const DeviceBitBsr& a,
                                      const BitBsrDecodeCache* cache,
                                      const DeviceSegments* segments,
                                      sim::DSpan<const HalfPair> xs, sim::DSpan<float> ys,
                                      mat::Index k, mat::Index nrows, mat::Index ncols);

/// Error bound for comparing an SpMM result against the fp64 reference.
double spmm_tolerance(const mat::Csr& a, bool half_precision_values);

}  // namespace spaden::kern
