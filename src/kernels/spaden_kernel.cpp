// Spaden's pairing SpMV kernel (paper §4.3) and its CUDA-core ablation
// variant "Spaden w/o TC" (§5.3).
//
// Each warp owns two consecutive block-rows. Per iteration it decodes one
// bitBSR block from each block-row (Algorithm 2), writes the decoded
// elements *directly into the tensor-core fragment registers* — the
// top-left portion via x[0], x[1] and the bottom-right portion via x[6],
// x[7], per the reverse-engineered layout of §3 — broadcasts the two
// x-segments into fragment B column-wise, and issues one m16n16k16 MMA
// (Algorithm 3). After the block loop, the first column of each diagonal
// result block is extracted into y (Algorithm 4): 16 output rows per warp
// per pass, double DASP's throughput.
//
// The w/o-TC variant shares the decode but multiplies on CUDA cores,
// isolating the bitBSR-format contribution from the tensor-core
// contribution in the Fig. 8 breakdown.
#include <algorithm>
#include <tuple>

#include "common/bitops.hpp"
#include "kernels/bitbsr_decode.hpp"
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"
#include "kernels/spmm.hpp"
#include "tensorcore/wmma.hpp"

namespace spaden::kern {

namespace {

/// Per-lane decode of one bitBSR block + its x segment (Algorithm 2).
struct DecodedSlot {
  sim::Lanes<half> a_val1;   ///< element at bit 2*lid
  sim::Lanes<half> a_val2;   ///< element at bit 2*lid + 1
  sim::Lanes<float> b_val1;  ///< x[seg*8 + 2*(lid%4)]
  sim::Lanes<float> b_val2;  ///< x[seg*8 + 2*(lid%4) + 1]
};

class SpadenKernel final : public SpmvKernel {
 public:
  explicit SpadenKernel(SpadenVariant variant)
      : variant_(variant), use_tc_(variant != SpadenVariant::NoTensorCore) {}

  [[nodiscard]] Method method() const override {
    switch (variant_) {
      case SpadenVariant::TensorCore:
        return Method::Spaden;
      case SpadenVariant::NoTensorCore:
        return Method::SpadenNoTc;
      case SpadenVariant::Conventional:
        return Method::SpadenConventional;
      case SpadenVariant::Unpaired:
        return Method::SpadenUnpaired;
    }
    return Method::Spaden;
  }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    const mat::BitBsr bb = mat::BitBsr::from_csr(a);
    // Per-warp balancing weights from the block-row bitmap popcounts
    // (val_offset is their exclusive scan): a warp's decode/MMA work scales
    // with the nonzeros of the block-row(s) it owns, so the nnz-balanced
    // partition equalizes real work per virtual SM on power-law matrices.
    const bool paired = variant_ != SpadenVariant::Unpaired;
    const auto brow_nnz = [&](mat::Index r) -> std::uint64_t {
      return bb.val_offset[static_cast<std::size_t>(bb.block_row_ptr[r + 1])] -
             bb.val_offset[static_cast<std::size_t>(bb.block_row_ptr[r])];
    };
    const std::uint64_t warps =
        paired ? (static_cast<std::uint64_t>(bb.brows) + 1) / 2
               : static_cast<std::uint64_t>(bb.brows);
    std::vector<std::uint64_t> weights(warps);
    for (std::uint64_t w = 0; w < warps; ++w) {
      const auto r1 = static_cast<mat::Index>(paired ? 2 * w : w);
      weights[w] = brow_nnz(r1);
      if (paired && r1 + 1 < bb.brows) {
        weights[w] += brow_nnz(r1 + 1);
      }
    }
    device.set_warp_weights(std::move(weights));
    bitbsr_ = DeviceBitBsr::upload(device.memory(), bb);
    // Prepare-time hint: share the bitmap decode tables across all warps
    // and launches (modeled work is unchanged; see BitBsrDecodeCache).
    decode_cache_.build(bb);
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    SPADEN_REQUIRE(x.size == ncols_ && y.size == nrows_, "x/y size mismatch");
    const auto block_row_ptr = bitbsr_.block_row_ptr.cspan();
    const mat::Index brows = bitbsr_.brows;
    const mat::Index nrows = nrows_;
    const mat::Index ncols = ncols_;

    // One warp per pair of block-rows: the fragment hosts two 8x8 blocks
    // placed diagonally (paper Fig. 5). The Unpaired ablation uses one
    // block-row per warp instead (top-left portion only).
    const bool paired = variant_ != SpadenVariant::Unpaired;
    const std::uint64_t warps = paired ? (brows + 1) / 2 : brows;
    return device.launch(std::string(name()), warps,
                         [&](sim::WarpCtx& ctx, std::uint64_t w) {
      const auto r1 = static_cast<mat::Index>(paired ? 2 * w : w);
      const auto r2 = static_cast<mat::Index>(paired ? 2 * w + 1 : brows);
      const mat::Index begin1 = ctx.scalar_load(block_row_ptr, r1);
      const mat::Index end1 = ctx.scalar_load(block_row_ptr, r1 + 1);
      const bool has_r2 = paired && r2 < brows;
      const mat::Index begin2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2) : 0;
      const mat::Index end2 = has_r2 ? ctx.scalar_load(block_row_ptr, r2 + 1) : 0;
      const mat::Index len1 = end1 - begin1;
      const mat::Index len2 = end2 - begin2;
      const mat::Index iterations = std::max(len1, len2);

      tc::FragA a_frag;
      tc::FragB b_frag;
      tc::FragAcc acc_frag;  // zero-initialized (wmma::fill_fragment(.., 0))
      // CUDA-core accumulators for the w/o-TC variant: lane l accumulates
      // block row l/4 of each slot.
      sim::Lanes<float> cuda_acc1{};
      sim::Lanes<float> cuda_acc2{};

      for (mat::Index j = 0; j < iterations; ++j) {
        // Slot 0: block j of block-row r1 -> top-left portion, regs x[0,1].
        // Slot 1: block j of block-row r2 -> bottom-right, regs x[6,7].
        for (int slot = 0; slot < 2; ++slot) {
          const bool valid = slot == 0 ? (j < len1) : (j < len2);
          const unsigned reg0 = slot == 0 ? 0 : 6;
          if (!valid) {
            // Fill the A portion with zeros (computed, not loaded — the
            // register-level control §4.3.3 credits for memory efficiency).
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
          const DecodedSlot dec = decode(ctx, x, ncols, a_idx);
          ctx.range_pop();
          ctx.range_push("mma");
          if (use_tc_) {
            // Algorithm 3 lines 6-7: direct register writes.
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              a_frag.x(lane, reg0) = dec.a_val1[lane];
              a_frag.x(lane, reg0 + 1) = dec.a_val2[lane];
              b_frag.x(lane, reg0) = half(dec.b_val1[lane]);
              b_frag.x(lane, reg0 + 1) = half(dec.b_val2[lane]);
            }
            ctx.charge(sim::OpClass::RegMove, 4 * sim::kWarpSize);
            ctx.charge(sim::OpClass::Convert, 2 * sim::kWarpSize);
          } else {
            // CUDA-core path: each lane multiplies its two decoded elements
            // with the matching x entries.
            auto& acc = slot == 0 ? cuda_acc1 : cuda_acc2;
            for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
              acc[lane] += dec.a_val1[lane].to_float() * dec.b_val1[lane] +
                           dec.a_val2[lane].to_float() * dec.b_val2[lane];
            }
            ctx.charge(sim::OpClass::Fma, 2 * sim::kWarpSize);
          }
          ctx.range_pop();
        }
        if (use_tc_) {
          const sim::ProfRange prof(ctx, "mma");
          if (variant_ == SpadenVariant::Conventional) {
            // The documented path (paper §3): both fragments staged through
            // a 256-element shared-memory buffer and loaded with
            // wmma::load. Numerically identical to the direct writes above;
            // the cost is the full-buffer round trip — including explicitly
            // storing every zero the direct path computes in-register.
            constexpr std::uint64_t kElems = tc::kFragDim * tc::kFragDim;
            for (int frag = 0; frag < 2; ++frag) {
              ctx.charge(sim::OpClass::IntAlu, kElems);   // st.shared
              ctx.charge(sim::OpClass::IntAlu, kElems);   // ld.shared
              ctx.charge(sim::OpClass::RegMove, kElems);  // fragment fill
            }
          }
          tc::wmma_mma(ctx, acc_frag, a_frag, b_frag, acc_frag);
        }
      }

      // Algorithm 4: extract the first column of both diagonal result
      // blocks (TC), or reduce the per-lane partials across the 4 lanes of
      // each block row (CUDA cores).
      const sim::ProfRange prof_extract(ctx, "extract");
      sim::Lanes<float> out1{};
      sim::Lanes<float> out2{};
      if (use_tc_) {
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          if (lane % 4 == 0) {
            out1[lane] = acc_frag.x(lane, 0);
            out2[lane] = acc_frag.x(lane, 6);
          }
        }
        ctx.charge(sim::OpClass::RegMove, 16);
      } else {
        for (unsigned delta = 2; delta > 0; delta /= 2) {
          sim::Lanes<std::uint32_t> src{};
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            src[lane] = lane ^ delta;
          }
          const auto o1 = ctx.shfl(cuda_acc1, src);
          const auto o2 = ctx.shfl(cuda_acc2, src);
          for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
            cuda_acc1[lane] += o1[lane];
            cuda_acc2[lane] += o2[lane];
          }
          ctx.charge(sim::OpClass::FpAlu, 2 * sim::kWarpSize);
        }
        out1 = cuda_acc1;
        out2 = cuda_acc2;
      }

      // Store 8 + 8 results from lanes 0, 4, ..., 28 (Algorithm 4 lines
      // 4-8: lid % 4 == 0, offset row*BLOCK_DIM + lid/4).
      sim::Lanes<std::uint32_t> yidx1{};
      sim::Lanes<std::uint32_t> yidx2{};
      std::uint32_t mask1 = 0;
      std::uint32_t mask2 = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; lane += 4) {
        const std::uint32_t row1 = r1 * 8 + lane / 4;
        if (row1 < nrows) {
          yidx1[lane] = row1;
          mask1 |= 1u << lane;
        }
        if (has_r2) {
          const std::uint32_t row2 = r2 * 8 + lane / 4;
          if (row2 < nrows) {
            yidx2[lane] = row2;
            mask2 |= 1u << lane;
          }
        }
      }
      ctx.charge(sim::OpClass::IntAlu, 16);
      ctx.scatter(y, yidx1, out1, mask1);
      if (mask2 != 0) {
        ctx.scatter(y, yidx2, out2, mask2);
      }
    });
  }

  /// The paper's pairing TC variant packs its batch as a binary16
  /// fragment stack for the fused multi-RHS kernel; the ablations keep the
  /// fp32 stack and the (bit-identical) sequential base path.
  ///
  /// The fused kernel also multiplies each slot's x rows by the other
  /// slot's zero A block. That adds ±0 while x is finite in binary16, but
  /// 0 * inf is NaN and would reach the paired block-row, which run()
  /// never does. The pack records finiteness in the same host pass (not
  /// charged to the modeled launch, like any host pack), and a batch with
  /// an entry outside binary16 range or NaN is re-packed as an fp32 stack
  /// for the base path, to stay bit-identical.
  XBatch upload_batch(sim::Device& device,
                      const std::vector<const std::vector<float>*>& xs) override {
    if (variant_ == SpadenVariant::TensorCore) {
      const auto k = static_cast<mat::Index>(xs.size());
      FragmentStack stack = pack_fragment_stack(
          k, ncols_, [&](mat::Index c, mat::Index i) { return (*xs[c])[i]; });
      if (stack.finite) {
        XBatch batch;
        batch.k = k;
        batch.fragments = true;
        batch.h16 = device.memory().upload(std::move(stack.words), "batch.x");
        return batch;
      }
    }
    return SpmvKernel::upload_batch(device, xs);
  }

  /// A fragment batch runs the fused SpMM. Up to kSpmmRhsPerWarp columns
  /// its launch has one warp per block-row pair, so the pair-sized
  /// balancing weights installed at prepare apply; a wider batch has a
  /// multiple of that warp count and falls back to the contiguous
  /// partition.
  sim::LaunchResult run_multi(sim::Device& device, const XBatch& xs,
                              sim::DSpan<float> ys) override {
    if (!xs.fragments) {
      return SpmvKernel::run_multi(device, xs, ys);
    }
    device.set_batch_id(device.alloc_batch_id());
    return spmm_spaden_strided(device, bitbsr_, &decode_cache_, xs.h16.cspan(), ys, xs.k,
                               nrows_, ncols_);
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return bitbsr_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    bitbsr_.add_footprint(fp);
    return fp;
  }

 private:
  /// Algorithm 2: shared matrix decode plus the kernel's vector decode
  /// (lines 7-10 — the x segment, broadcast so each column of the B portion
  /// equals the segment). Lane l reads segment entries 2*(l%4) and +1 as
  /// one 8-byte pair. A segment that extends past ncols (the last block
  /// column), or an x that does not start on an 8-byte boundary, takes two
  /// masked single loads instead, so nothing past x is read: the skipped
  /// entries stay zero and only ever multiply structural zeros.
  DecodedSlot decode(sim::WarpCtx& ctx, sim::DSpan<const float> x, mat::Index ncols,
                     mat::Index a_idx) {
    DecodedSlot out{};
    const DecodedBlock block = decode_bitbsr_block(ctx, bitbsr_, a_idx, &decode_cache_);
    out.a_val1 = block.a_val1;
    out.a_val2 = block.a_val2;

    const std::uint32_t seg = block.block_col * 8;
    sim::Lanes<std::uint32_t> xidx1{};
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      xidx1[lane] = seg + ((lane & 3u) << 1);
    }
    if (seg + 8 <= ncols && x.addr % (2 * sizeof(float)) == 0) {
      ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);
      std::tie(out.b_val1, out.b_val2) = ctx.gather2(x, xidx1);
      return out;
    }
    sim::Lanes<std::uint32_t> xidx2{};
    std::uint32_t mask1 = 0;
    std::uint32_t mask2 = 0;
    for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
      xidx2[lane] = xidx1[lane] + 1;
      mask1 |= static_cast<std::uint32_t>(xidx1[lane] < ncols) << lane;
      mask2 |= static_cast<std::uint32_t>(xidx2[lane] < ncols) << lane;
    }
    ctx.charge(sim::OpClass::IntAlu, 2 * sim::kWarpSize);
    out.b_val1 = ctx.gather(x, xidx1, mask1);
    out.b_val2 = ctx.gather(x, xidx2, mask2);
    return out;
  }

  SpadenVariant variant_;
  bool use_tc_;
  DeviceBitBsr bitbsr_;
  BitBsrDecodeCache decode_cache_;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_spaden(SpadenVariant variant) {
  return std::make_unique<SpadenKernel>(variant);
}

}  // namespace spaden::kern
