#include "kernels/spmm.hpp"

#include <algorithm>
#include <cstdint>

#include "kernels/bitbsr_decode.hpp"
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "kernels/kernel.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

double spmm_tolerance(const mat::Csr& a, bool half_precision_values) {
  // Same row-accumulation analysis as SpMV; B entries are bounded by 1.
  return spmv_tolerance(a, half_precision_values);
}

SpmmResult spmm_csr(sim::Device& device, const mat::Csr& a, const mat::Dense& b) {
  SPADEN_REQUIRE(a.ncols == b.nrows, "SpMM shape mismatch");
  const DeviceCsr csr = DeviceCsr::upload(device.memory(), a);
  auto b_dev = device.memory().upload(b.data, "spmm.b");
  auto c_dev = device.memory().alloc<float>(static_cast<std::size_t>(a.nrows) * b.ncols, "spmm.c");

  const auto row_ptr = csr.row_ptr.cspan();
  const auto col_idx = csr.col_idx.cspan();
  const auto val = csr.val.cspan();
  const auto b_span = b_dev.cspan();
  auto c_span = c_dev.span();
  const mat::Index k = b.ncols;
  const mat::Index col_tiles = ceil_div<mat::Index>(k, sim::kWarpSize);

  const std::uint64_t warps = static_cast<std::uint64_t>(a.nrows) * col_tiles;
  SpmmResult result;
  result.launch = device.launch("spmm_csr", warps, [&](sim::WarpCtx& ctx, std::uint64_t w) {
    const auto row = static_cast<mat::Index>(w / col_tiles);
    const auto tile = static_cast<mat::Index>(w % col_tiles) * sim::kWarpSize;
    const mat::Index begin = ctx.scalar_load(row_ptr, row);
    const mat::Index end = ctx.scalar_load(row_ptr, row + 1);

    sim::Lanes<std::uint32_t> cidx{};
    std::uint32_t cmask = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      if (tile + lane < k) {
        cidx[lane] = row * k + tile + lane;
        cmask |= 1u << lane;
      }
    }

    sim::Lanes<float> acc{};
    for (mat::Index i = begin; i < end; ++i) {
      // Broadcast the nonzero, stream the matching B row tile (coalesced).
      const mat::Index col = ctx.scalar_load(col_idx, i);
      const float av = ctx.scalar_load(val, i);
      sim::Lanes<std::uint32_t> bidx{};
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((cmask >> lane) & 1u) {
          bidx[lane] = col * k + tile + lane;
        }
      }
      const auto bv = ctx.gather(b_span, bidx, cmask);
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if ((cmask >> lane) & 1u) {
          acc[lane] += av * bv[lane];
        }
      }
      ctx.charge(sim::OpClass::Fma, sim::active_lanes(cmask));
      ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);  // loop + addressing
    }
    ctx.scatter(c_span, cidx, acc, cmask);
  });
  result.c.nrows = a.nrows;
  result.c.ncols = k;
  result.c.data = c_dev.host();
  return result;
}

SpmmResult spmm_spaden(sim::Device& device, const mat::Csr& a, const mat::Dense& b) {
  SPADEN_REQUIRE(a.ncols == b.nrows, "SpMM shape mismatch");
  const mat::BitBsr bb_host = mat::BitBsr::from_csr(a);
  const DeviceBitBsr bb = DeviceBitBsr::upload(device.memory(), bb_host);
  BitBsrDecodeCache decode_cache;
  decode_cache.build_if_enabled(bb_host);
  auto b_dev = device.memory().upload(b.data, "spmm.b");
  auto c_dev = device.memory().alloc<float>(static_cast<std::size_t>(a.nrows) * b.ncols, "spmm.c");

  const auto block_row_ptr = bb.block_row_ptr.cspan();
  const auto b_span = b_dev.cspan();
  auto c_span = c_dev.span();
  const mat::Index brows = bb.brows;
  const mat::Index nrows = a.nrows;
  const mat::Index bn = b.nrows;
  const mat::Index k = b.ncols;
  const mat::Index col_tiles = ceil_div<mat::Index>(k, 8);

  const std::uint64_t warps = static_cast<std::uint64_t>((brows + 1) / 2) * col_tiles;
  SpmmResult result;
  result.launch = device.launch("spmm_spaden", warps, [&](sim::WarpCtx& ctx,
                                                          std::uint64_t w) {
    const auto pair = static_cast<mat::Index>(w / col_tiles);
    const auto tile = static_cast<mat::Index>(w % col_tiles) * 8;
    const mat::Index r1 = 2 * pair;
    const mat::Index r2 = 2 * pair + 1;
    const mat::Index begin1 = ctx.scalar_load(block_row_ptr, r1);
    const mat::Index end1 = ctx.scalar_load(block_row_ptr, r1 + 1);
    const bool has_r2 = r2 < brows;
    const mat::Index begin2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2) : 0;
    const mat::Index end2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2 + 1) : 0;
    const mat::Index len1 = end1 - begin1;
    const mat::Index len2 = end2 - begin2;
    const mat::Index iterations = std::max(len1, len2);

    tc::FragA a_frag;
    tc::FragB b_frag;
    tc::FragAcc acc_frag;
    for (mat::Index j = 0; j < iterations; ++j) {
      for (int slot = 0; slot < 2; ++slot) {
        const bool valid = slot == 0 ? (j < len1) : (j < len2);
        const unsigned reg0 = slot == 0 ? 0 : 6;
        if (!valid) {
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            a_frag.x(lane, reg0) = half{};
            a_frag.x(lane, reg0 + 1) = half{};
          }
          ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
          continue;
        }
        const mat::Index a_idx = (slot == 0 ? begin1 : begin2) + j;
        const DecodedBlock dec = decode_bitbsr_block(ctx, bb, a_idx, decode_cache.get());
        // B portion (column-major): lane holds portion column lane/4, rows
        // 2*(lane%4) and +1 — i.e. B[bc*8 + 2*(lane%4)][tile + lane/4].
        sim::Lanes<std::uint32_t> bidx1{};
        sim::Lanes<std::uint32_t> bidx2{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          const std::uint32_t brow = std::min(dec.block_col * 8 + 2 * (lane % 4), bn - 1);
          const std::uint32_t brow2 = std::min(brow + 1, bn - 1);
          const std::uint32_t bcol = std::min(tile + lane / 4, k - 1);
          bidx1[lane] = brow * k + bcol;
          bidx2[lane] = brow2 * k + bcol;
        }
        ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
        const auto bv1 = ctx.gather(b_span, bidx1);
        const auto bv2 = ctx.gather(b_span, bidx2);
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          a_frag.x(lane, reg0) = dec.a_val1[lane];
          a_frag.x(lane, reg0 + 1) = dec.a_val2[lane];
          b_frag.x(lane, reg0) = half(bv1[lane]);
          b_frag.x(lane, reg0 + 1) = half(bv2[lane]);
        }
        ctx.charge(sim::OpClass::RegMove, 4 * sim::kWarpSize);
        ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
      }
      tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
    }

    // Extract the full diagonal portions: every lane owns two accumulator
    // elements per portion (row lane/4, cols 2*(lane%4) and +1).
    for (int slot = 0; slot < 2; ++slot) {
      const mat::Index br = slot == 0 ? r1 : r2;
      if (slot == 1 && !has_r2) {
        break;
      }
      const unsigned reg0 = slot == 0 ? 0 : 6;
      sim::Lanes<std::uint32_t> cidx1{};
      sim::Lanes<std::uint32_t> cidx2{};
      sim::Lanes<float> cv1{};
      sim::Lanes<float> cv2{};
      std::uint32_t m1 = 0;
      std::uint32_t m2 = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        const std::uint32_t row = br * 8 + lane / 4;
        const std::uint32_t c1 = tile + 2 * (lane % 4);
        if (row < nrows && c1 < k) {
          cidx1[lane] = row * k + c1;
          cv1[lane] = acc_frag.x(lane, reg0);
          m1 |= 1u << lane;
        }
        if (row < nrows && c1 + 1 < k) {
          cidx2[lane] = row * k + c1 + 1;
          cv2[lane] = acc_frag.x(lane, reg0 + 1);
          m2 |= 1u << lane;
        }
      }
      ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
      ctx.scatter(c_span, cidx1, cv1, m1);
      ctx.scatter(c_span, cidx2, cv2, m2);
    }
  });
  result.c.nrows = a.nrows;
  result.c.ncols = k;
  result.c.data = c_dev.host();
  return result;
}

sim::LaunchResult spmm_spaden_strided(sim::Device& device, const DeviceBitBsr& a,
                                      const BitBsrDecodeCache* cache,
                                      sim::DSpan<const float> xs, sim::DSpan<float> ys,
                                      mat::Index k, mat::Index nrows, mat::Index ncols) {
  const ColumnStrides stride = require_column_stack(xs.size, ys.size, k, ncols, nrows);
  SPADEN_REQUIRE(stride.x % 8 == 0,
                 "spmm_spaden_strided needs sector-aligned x columns: stride %zu is not a "
                 "multiple of 8 (kern::column_stride)",
                 stride.x);
  // Lane indices below are 32-bit, as on the device: a larger stack would
  // wrap to an in-bounds wrong element.
  SPADEN_REQUIRE(xs.size <= UINT32_MAX && ys.size <= UINT32_MAX,
                 "column stack of %zu x / %zu y entries overflows 32-bit lane indices",
                 xs.size, ys.size);
  const auto x_stride = static_cast<std::uint32_t>(stride.x);
  const auto y_stride = static_cast<std::uint32_t>(stride.y);
  const auto block_row_ptr = a.block_row_ptr.cspan();
  const mat::Index brows = a.brows;
  const mat::Index col_tiles = ceil_div<mat::Index>(k, 8);

  const std::uint64_t warps = static_cast<std::uint64_t>((brows + 1) / 2) * col_tiles;
  return device.launch("spmm_spaden_strided", warps, [&](sim::WarpCtx& ctx,
                                                         std::uint64_t w) {
    const auto pair = static_cast<mat::Index>(w / col_tiles);
    const auto tile = static_cast<mat::Index>(w % col_tiles) * 8;
    const mat::Index r1 = 2 * pair;
    const mat::Index r2 = 2 * pair + 1;
    const mat::Index begin1 = ctx.scalar_load(block_row_ptr, r1);
    const mat::Index end1 = ctx.scalar_load(block_row_ptr, r1 + 1);
    const bool has_r2 = r2 < brows;
    const mat::Index begin2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2) : 0;
    const mat::Index end2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2 + 1) : 0;
    const mat::Index len1 = end1 - begin1;
    const mat::Index len2 = end2 - begin2;
    const mat::Index iterations = std::max(len1, len2);

    tc::FragA a_frag;
    tc::FragB b_frag;
    tc::FragAcc acc_frag;
    for (mat::Index j = 0; j < iterations; ++j) {
      for (int slot = 0; slot < 2; ++slot) {
        const bool valid = slot == 0 ? (j < len1) : (j < len2);
        const unsigned reg0 = slot == 0 ? 0 : 6;
        if (!valid) {
          const sim::ProfRange prof(ctx, "mma");
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            a_frag.x(lane, reg0) = half{};
            a_frag.x(lane, reg0 + 1) = half{};
          }
          ctx.charge(sim::OpClass::RegMove, 2 * sim::kWarpSize);
          continue;
        }
        const mat::Index a_idx = (slot == 0 ? begin1 : begin2) + j;
        ctx.range_push("decode");
        const DecodedBlock dec = decode_bitbsr_block(ctx, a, a_idx, cache);
        // Per-column vector decode: lane holds B-portion column lane/4 (the
        // RHS at tile + lane/4) and loads its rows 2*(lane%4) and +1 as one
        // 8-byte pair from that column's sector-aligned 8-float segment, so
        // the 8x8 x tile is 8 sectors in one instruction. Rows past ncols
        // read the stack's zero pads, which only multiply structural zeros;
        // the column clamps to the last RHS, whose spurious outputs the
        // extraction mask drops.
        sim::Lanes<std::uint32_t> xidx{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          const std::uint32_t c_eff = std::min(tile + lane / 4, k - 1);
          xidx[lane] = c_eff * x_stride + dec.block_col * 8 + ((lane & 3u) << 1);
        }
        ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);
        const auto [bv1, bv2] = ctx.gather2(xs, xidx);
        ctx.range_pop();
        ctx.range_push("mma");
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          a_frag.x(lane, reg0) = dec.a_val1[lane];
          a_frag.x(lane, reg0 + 1) = dec.a_val2[lane];
          b_frag.x(lane, reg0) = half(bv1[lane]);
          b_frag.x(lane, reg0 + 1) = half(bv2[lane]);
        }
        ctx.charge(sim::OpClass::RegMove, 4 * sim::kWarpSize);
        ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
        ctx.range_pop();
      }
      {
        const sim::ProfRange prof(ctx, "mma");
        tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
      }
    }

    // Extract both diagonal portions into the column-major Y stack: lane
    // owns accumulator elements (row lane/4, portion cols 2*(lane%4), +1),
    // so all 8 RHS columns of the tile demultiplex in one pass.
    const sim::ProfRange prof_extract(ctx, "extract");
    for (int slot = 0; slot < 2; ++slot) {
      if (slot == 1 && !has_r2) {
        break;
      }
      const mat::Index br = slot == 0 ? r1 : r2;
      const unsigned reg0 = slot == 0 ? 0 : 6;
      sim::Lanes<std::uint32_t> yidx1{};
      sim::Lanes<std::uint32_t> yidx2{};
      sim::Lanes<float> yv1{};
      sim::Lanes<float> yv2{};
      std::uint32_t m1 = 0;
      std::uint32_t m2 = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        const std::uint32_t row = br * 8 + lane / 4;
        const std::uint32_t c1 = tile + 2 * (lane % 4);
        if (row < nrows && c1 < k) {
          yidx1[lane] = c1 * y_stride + row;
          yv1[lane] = acc_frag.x(lane, reg0);
          m1 |= 1u << lane;
        }
        if (row < nrows && c1 + 1 < k) {
          yidx2[lane] = (c1 + 1) * y_stride + row;
          yv2[lane] = acc_frag.x(lane, reg0 + 1);
          m2 |= 1u << lane;
        }
      }
      ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
      ctx.scatter(ys, yidx1, yv1, m1);
      ctx.scatter(ys, yidx2, yv2, m2);
    }
  });
}

}  // namespace spaden::kern
