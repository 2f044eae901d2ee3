// cuSPARSE-BSR stand-in (bsrmv): one warp per block-row, dense 8x8 blocks.
//
// The warp sweeps the block-row's blocks; each lane loads two consecutive
// block elements (fully coalesced — the property the paper's Fig. 8
// discussion credits for BSR beating CSR Warp16) and multiplies them with
// the matching x values. Zeros inside a block are loaded and multiplied
// like any other element — the redundant traffic bitBSR eliminates. A
// batch runs the same warp body over a k-column grid in one launch
// (run_multi).
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"

namespace spaden::kern {

namespace {

class BsrKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::CusparseBsr; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    const mat::Bsr bsr = mat::Bsr::from_csr(a, 8);
    bsr_ = DeviceBsr::upload(device.memory(), bsr);
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    return launch(device, x, y, 1);
  }

  /// One fused launch over the k-column grid (launch_column_grid).
  sim::LaunchResult run_multi(sim::Device& device, const XBatch& xs,
                              sim::DSpan<float> ys) override {
    device.set_batch_id(device.alloc_batch_id());
    return launch(device, xs.column_stack(), ys, xs.k);
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return bsr_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    bsr_.add_footprint(fp);
    return fp;
  }

 private:
  sim::LaunchResult launch(sim::Device& device, sim::DSpan<const float> xs,
                           sim::DSpan<float> ys, mat::Index columns) {
    const auto block_row_ptr = bsr_.block_row_ptr.cspan();
    const auto block_col = bsr_.block_col.cspan();
    const auto val = bsr_.val.cspan();
    const mat::Index nrows = nrows_;
    const mat::Index ncols = ncols_;

    const auto body = [&](sim::WarpCtx& ctx, std::uint64_t w, sim::DSpan<const float> x,
                          sim::DSpan<float> y) {
      const auto br = static_cast<mat::Index>(w);
      const mat::Index begin = ctx.scalar_load(block_row_ptr, br);
      const mat::Index end = ctx.scalar_load(block_row_ptr, br + 1);

      // Lane `l` owns block elements 2l and 2l+1 (row-major in the block):
      // both in block row l/4, at block columns 2*(l%4) and 2*(l%4)+1.
      sim::Lanes<float> acc{};  // partial sum for block row lane/4
      for (mat::Index b = begin; b < end; ++b) {
        const mat::Index bc = ctx.scalar_load(block_col, b);
        const mat::Index col_base = bc * 8;

        sim::Lanes<std::uint32_t> idx0{};
        sim::Lanes<std::uint32_t> idx1{};
        sim::Lanes<std::uint32_t> xidx0{};
        sim::Lanes<std::uint32_t> xidx1{};
        std::uint32_t xmask = 0;
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          idx0[lane] = static_cast<std::uint32_t>(b) * 64 + 2 * lane;
          idx1[lane] = idx0[lane] + 1;
          // Clamp x indices at the matrix edge; the corresponding block
          // values are structural zeros, so the product is unaffected (the
          // standard padding trick of real bsrmv kernels).
          const std::uint32_t c0 = col_base + 2 * (lane % 4);
          xidx0[lane] = std::min(c0, ncols - 1);
          xidx1[lane] = std::min(c0 + 1, ncols - 1);
          xmask |= 1u << lane;
        }
        // Dense block values: fully coalesced 256 B per instruction pair.
        const auto v0 = ctx.gather(val, idx0);
        const auto v1 = ctx.gather(val, idx1);
        const auto x0 = ctx.gather(x, xidx0, xmask);
        const auto x1 = ctx.gather(x, xidx1, xmask);
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          if ((xmask >> lane) & 1u) {
            acc[lane] += v0[lane] * x0[lane] + v1[lane] * x1[lane];
          }
        }
        ctx.charge(sim::OpClass::Fma, 2 * sim::active_lanes(xmask));
        ctx.charge(sim::OpClass::IntAlu, sim::kWarpSize);  // index arithmetic
      }

      // Combine the 4 lanes of each block row: butterfly over lane%4.
      for (unsigned delta = 2; delta > 0; delta /= 2) {
        sim::Lanes<std::uint32_t> src{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          src[lane] = lane ^ delta;
        }
        const auto other = ctx.shfl(acc, src);
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          acc[lane] += other[lane];
        }
        ctx.charge(sim::OpClass::FpAlu, sim::kWarpSize);
      }

      // Lanes 4r (r = 0..7) hold y[br*8 + r]; two 8x8 blocks per fragment do
      // not apply here — plain BSR writes one block-row of 8 results.
      sim::Lanes<std::uint32_t> yidx{};
      std::uint32_t store_mask = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if (lane % 4 == 0) {
          const std::uint32_t r = br * 8 + lane / 4;
          if (r < nrows) {
            yidx[lane] = r;
            store_mask |= 1u << lane;
          }
        }
      }
      ctx.scatter(y, yidx, acc, store_mask);
    };
    return launch_column_grid(device, "bsrmv", bsr_.brows, xs, ys, columns, ncols_,
                              nrows_, body);
  }

  DeviceBsr bsr_;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_bsr_kernel() { return std::make_unique<BsrKernel>(); }

}  // namespace spaden::kern
