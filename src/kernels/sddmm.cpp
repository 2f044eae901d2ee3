#include "kernels/sddmm.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "kernels/formats_device.hpp"
#include "matrix/bitbsr.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

double sddmm_tolerance(mat::Index depth, bool half_precision_values) {
  const double eps = half_precision_values ? 0x1.0p-10 : 0x1.0p-22;
  return std::max(1e-6, 4.0 * eps * static_cast<double>(depth));
}

SddmmResult sddmm_csr(sim::Device& device, const mat::Csr& pattern, const mat::Dense& u,
                      const mat::Dense& v) {
  SPADEN_REQUIRE(u.nrows == pattern.nrows && v.nrows == pattern.ncols && u.ncols == v.ncols,
                 "SDDMM shape mismatch");
  const DeviceCsr csr = DeviceCsr::upload(device.memory(), pattern);
  auto u_dev = device.memory().upload(u.data, "sddmm.u");
  auto v_dev = device.memory().upload(v.data, "sddmm.v");
  auto out_dev = device.memory().alloc<float>(pattern.nnz(), "sddmm.out");

  const auto row_ptr = csr.row_ptr.cspan();
  const auto col_idx = csr.col_idx.cspan();
  const auto u_span = u_dev.cspan();
  const auto v_span = v_dev.cspan();
  auto out_span = out_dev.span();
  const mat::Index depth = u.ncols;

  SddmmResult result;
  result.launch =
      device.launch("sddmm_csr", pattern.nrows, [&](sim::WarpCtx& ctx, std::uint64_t w) {
        const auto row = static_cast<mat::Index>(w);
        const mat::Index begin = ctx.scalar_load(row_ptr, row);
        const mat::Index end = ctx.scalar_load(row_ptr, row + 1);
        for (mat::Index i = begin; i < end; ++i) {
          const mat::Index col = ctx.scalar_load(col_idx, i);
          // Lanes stride the depth dimension of both factors (coalesced).
          sim::Lanes<float> partial{};
          for (mat::Index d0 = 0; d0 < depth; d0 += sim::kWarpSize) {
            sim::Lanes<std::uint32_t> uidx{};
            sim::Lanes<std::uint32_t> vidx{};
            std::uint32_t mask = 0;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              if (d0 + lane < depth) {
                uidx[lane] = row * depth + d0 + lane;
                vidx[lane] = col * depth + d0 + lane;
                mask |= 1u << lane;
              }
            }
            const auto uv = ctx.gather(u_span, uidx, mask);
            const auto vv = ctx.gather(v_span, vidx, mask);
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              if ((mask >> lane) & 1u) {
                partial[lane] += uv[lane] * vv[lane];
              }
            }
            ctx.charge(sim::OpClass::Fma, sim::active_lanes(mask));
          }
          const float dot = ctx.reduce_add(partial);
          ctx.scalar_store(out_span, i, dot);
        }
      });
  result.values = out_dev.host();
  return result;
}

SddmmResult sddmm_spaden(sim::Device& device, const mat::Csr& pattern, const mat::Dense& u,
                         const mat::Dense& v) {
  SPADEN_REQUIRE(u.nrows == pattern.nrows && v.nrows == pattern.ncols && u.ncols == v.ncols,
                 "SDDMM shape mismatch");
  const mat::BitBsr bb_host = mat::BitBsr::from_csr(pattern);
  const DeviceBitBsr bb = DeviceBitBsr::upload(device.memory(), bb_host);
  auto u_dev = device.memory().upload(u.data, "sddmm.u");
  auto v_dev = device.memory().upload(v.data, "sddmm.v");
  auto out_dev = device.memory().alloc<float>(pattern.nnz(), "sddmm.out");

  // Block-row ids per block (a coordinate view) so one warp can address any
  // block without walking block_row_ptr.
  std::vector<mat::Index> block_rows;
  block_rows.reserve(bb_host.num_blocks());
  for (mat::Index br = 0; br < bb_host.brows; ++br) {
    for (mat::Index i = bb_host.block_row_ptr[br]; i < bb_host.block_row_ptr[br + 1]; ++i) {
      block_rows.push_back(br);
    }
  }
  auto block_row_dev = device.memory().upload(std::move(block_rows), "sddmm.block_rows");

  const auto block_row = block_row_dev.cspan();
  const auto headers = bb.headers.cspan();
  const auto u_span = u_dev.cspan();
  const auto v_span = v_dev.cspan();
  auto out_span = out_dev.span();
  const mat::Index depth = u.ncols;
  const mat::Index u_rows = u.nrows;
  const mat::Index v_rows = v.nrows;

  SddmmResult result;
  result.launch = device.launch(
      "sddmm_spaden", bb_host.num_blocks(), [&](sim::WarpCtx& ctx, std::uint64_t w) {
        const auto b = static_cast<mat::Index>(w);
        const mat::Index br = ctx.scalar_load(block_row, b);
        const BitBsrHeader header = ctx.scalar_load(headers, b);
        const mat::Index bc = header.block_col;
        const std::uint64_t bmp = header.bitmap;
        const mat::Index offset = header.val_offset;

        // Accumulate C_TL = U_block(8 x depth) * V_block(8 x depth)^T by
        // 16-deep fragment tiles: A holds U rows 0-7 across all 16 fragment
        // columns (portions TL + TR), B holds V rows transposed across all
        // 16 fragment rows (portions TL + BL).
        tc::FragAcc acc;
        for (mat::Index d0 = 0; d0 < depth; d0 += 16) {
          tc::FragA a_frag;
          tc::FragB b_frag;
          sim::Lanes<std::uint32_t> uidx1{};
          sim::Lanes<std::uint32_t> uidx2{};
          sim::Lanes<std::uint32_t> vidx1{};
          sim::Lanes<std::uint32_t> vidx2{};
          // Portion pairs: {TL, TR} for A (k offset 0 / 8), {TL, BL} for B.
          for (int half_k = 0; half_k < 2; ++half_k) {
            const unsigned a_reg0 = half_k == 0 ? 0 : 4;  // TL / TR
            const unsigned b_reg0 = half_k == 0 ? 0 : 2;  // TL / BL
            const mat::Index dk = d0 + static_cast<mat::Index>(half_k) * 8;
            std::uint32_t mask1 = 0;
            std::uint32_t mask2 = 0;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              // A row-major: (row lane/4, k-cols 2*(lane%4), +1).
              const mat::Index urow = br * 8 + lane / 4;
              const mat::Index k1 = dk + 2 * (lane % 4);
              if (urow < u_rows && k1 < depth) {
                uidx1[lane] = urow * depth + k1;
                mask1 |= 1u << lane;
              }
              if (urow < u_rows && k1 + 1 < depth) {
                uidx2[lane] = urow * depth + k1 + 1;
                mask2 |= 1u << lane;
              }
            }
            const auto uv1 = ctx.gather(u_span, uidx1, mask1);
            const auto uv2 = ctx.gather(u_span, uidx2, mask2);
            std::uint32_t vmask1 = 0;
            std::uint32_t vmask2 = 0;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              // B col-major: (k-rows 2*(lane%4), +1; column lane/4) holds
              // V[bc*8 + lane/4][dk + 2*(lane%4)].
              const mat::Index vrow = bc * 8 + lane / 4;
              const mat::Index k1 = dk + 2 * (lane % 4);
              if (vrow < v_rows && k1 < depth) {
                vidx1[lane] = vrow * depth + k1;
                vmask1 |= 1u << lane;
              }
              if (vrow < v_rows && k1 + 1 < depth) {
                vidx2[lane] = vrow * depth + k1 + 1;
                vmask2 |= 1u << lane;
              }
            }
            const auto vv1 = ctx.gather(v_span, vidx1, vmask1);
            const auto vv2 = ctx.gather(v_span, vidx2, vmask2);
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              a_frag.x(lane, a_reg0) =
                  ((mask1 >> lane) & 1u) ? half(uv1[lane]) : half{};
              a_frag.x(lane, a_reg0 + 1) =
                  ((mask2 >> lane) & 1u) ? half(uv2[lane]) : half{};
              b_frag.x(lane, b_reg0) =
                  ((vmask1 >> lane) & 1u) ? half(vv1[lane]) : half{};
              b_frag.x(lane, b_reg0 + 1) =
                  ((vmask2 >> lane) & 1u) ? half(vv2[lane]) : half{};
            }
            ctx.charge(sim::OpClass::Convert, 4 * sim::kWarpSize);
            ctx.charge(sim::OpClass::RegMove, 4 * sim::kWarpSize);
          }
          tc::wmma_mma(ctx, acc, a_frag, b_frag, acc);
        }

        // Scatter the bitmap-selected entries of the 8x8 product into the
        // packed output (the bitmap as *output* mask). Each lane owns
        // accumulator elements (lane/4, 2*(lane%4)) and the neighbour.
        sim::Lanes<std::uint32_t> oidx1{};
        sim::Lanes<std::uint32_t> oidx2{};
        sim::Lanes<float> ov1{};
        sim::Lanes<float> ov2{};
        std::uint32_t om1 = 0;
        std::uint32_t om2 = 0;
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          const unsigned pos1 = 2 * lane;
          const unsigned pos2 = pos1 + 1;
          if (test_bit(bmp, pos1)) {
            oidx1[lane] =
                offset + static_cast<std::uint32_t>(prefix_popcount(bmp, pos1));
            ov1[lane] = acc.x(lane, 0);
            om1 |= 1u << lane;
          }
          if (test_bit(bmp, pos2)) {
            oidx2[lane] =
                offset + static_cast<std::uint32_t>(prefix_popcount(bmp, pos2));
            ov2[lane] = acc.x(lane, 1);
            om2 |= 1u << lane;
          }
        }
        ctx.charge(sim::OpClass::IntAlu, 6 * sim::kWarpSize);
        ctx.scatter(out_span, oidx1, ov1, om1);
        ctx.scatter(out_span, oidx2, ov2, om2);
      });

  // The packed (bitmap-order) values are already CSR-ordered: bitBSR packs
  // row-major within blocks and blocks row-major... — NO: block-local
  // row-major order interleaves the 8 CSR rows of a block-row. Re-order on
  // the host into CSR nonzero order for the caller.
  const std::vector<float>& packed = out_dev.host();
  result.values.resize(pattern.nnz());
  std::size_t csr_pos = 0;
  for (mat::Index r = 0; r < pattern.nrows; ++r) {
    const mat::Index br = r / 8;
    for (mat::Index i = pattern.row_ptr[r]; i < pattern.row_ptr[r + 1]; ++i) {
      const mat::Index bcol = pattern.col_idx[i] / 8;
      const mat::Index* begin = bb_host.block_col.data() + bb_host.block_row_ptr[br];
      const mat::Index* end = bb_host.block_col.data() + bb_host.block_row_ptr[br + 1];
      const mat::Index* it = std::lower_bound(begin, end, bcol);
      SPADEN_ASSERT(it != end && *it == bcol, "pattern block lookup failed");
      const auto blk = static_cast<std::size_t>(bb_host.block_row_ptr[br] +
                                                static_cast<mat::Index>(it - begin));
      const unsigned pos = block_bit_index(r % 8, pattern.col_idx[i] % 8);
      const int rank = prefix_popcount(bb_host.bitmap[blk], pos);
      result.values[csr_pos++] = packed[bb_host.val_offset[blk] + static_cast<mat::Index>(rank)];
    }
  }
  SPADEN_ASSERT(csr_pos == pattern.nnz(), "SDDMM reorder covered %zu of %zu values", csr_pos,
                pattern.nnz());
  return result;
}

}  // namespace spaden::kern
