// cuSPARSE-CSR stand-in: the modern csr-vector kernel.
//
// A sub-warp of `v` lanes cooperates on each row, with v chosen as the
// smallest power of two covering the average row length (cuSPARSE's classic
// heuristic). Loads of col_idx/val are coalesced across the sub-warp; the
// per-row partial sums are combined with a log2(v)-round butterfly
// reduction. A batch runs the same warp body over a k-column grid in one
// launch (run_multi). Preprocessing mirrors cuSPARSE's
// cusparseSpMV_bufferSize: a row-statistics pass plus a partition workspace
// allocation (the paper's Fig. 10 charges cuSPARSE CSR for exactly this
// buffer).
#include "kernels/formats_device.hpp"
#include "kernels/internal.hpp"

namespace spaden::kern {

unsigned choose_vector_width(double avg_row_nnz) {
  unsigned v = 2;
  while (v < 32 && static_cast<double>(v) < avg_row_nnz) {
    v *= 2;
  }
  return v;
}

namespace {

class CsrVectorKernel final : public SpmvKernel {
 public:
  [[nodiscard]] Method method() const override { return Method::CusparseCsr; }

  void do_prepare(sim::Device& device, const mat::Csr& a) override {
    // Analysis pass (row statistics -> vector width), part of the measured
    // preprocessing cost like cusparseSpMV's buffer-size/analysis step.
    double avg = a.avg_degree();
    mat::Index max_row = 0;
    for (mat::Index r = 0; r < a.nrows; ++r) {
      max_row = std::max(max_row, a.row_nnz(r));
    }
    vector_width_ = choose_vector_width(avg);
    csr_ = DeviceCsr::upload(device.memory(), a);
    // Partition workspace: one descriptor per 256-row slice (merge-path
    // style load balancing state).
    workspace_ = device.memory().alloc<std::uint32_t>(a.nrows / 256 + 64, "csr.workspace");
    // One warp covers rows_per_warp consecutive rows: balance on their
    // combined nonzero count so long rows don't pile onto one virtual SM.
    const auto rows_per_warp =
        static_cast<std::uint64_t>(sim::kWarpSize / vector_width_);
    const auto warps =
        (static_cast<std::uint64_t>(a.nrows) + rows_per_warp - 1) / rows_per_warp;
    std::vector<std::uint64_t> weights(warps);
    for (std::uint64_t w = 0; w < warps; ++w) {
      std::uint64_t sum = 0;
      const auto lo = static_cast<mat::Index>(w * rows_per_warp);
      const auto hi = static_cast<mat::Index>(
          std::min<std::uint64_t>((w + 1) * rows_per_warp, a.nrows));
      for (mat::Index r = lo; r < hi; ++r) {
        sum += static_cast<std::uint64_t>(a.row_nnz(r));
      }
      weights[w] = sum;
    }
    device.set_warp_weights(std::move(weights));
  }

  sim::LaunchResult run(sim::Device& device, sim::DSpan<const float> x,
                        sim::DSpan<float> y) override {
    return launch(device, x, y, 1);
  }

  /// One fused launch over the k-column grid (launch_column_grid). Its
  /// k * W warps no longer match the W balancing weights installed at
  /// prepare, so at T > 1 the device splits the grid into equal contiguous
  /// chunks instead.
  sim::LaunchResult run_multi(sim::Device& device, const XBatch& xs,
                              sim::DSpan<float> ys) override {
    device.set_batch_id(device.alloc_batch_id());
    return launch(device, xs.column_stack(), ys, xs.k);
  }

  [[nodiscard]] san::FormatReport check_format() const override {
    return csr_.check(nrows_, ncols_);
  }

  [[nodiscard]] Footprint footprint() const override {
    Footprint fp;
    csr_.add_footprint(fp);
    fp.add("csr.workspace", workspace_.bytes());
    return fp;
  }

 private:
  sim::LaunchResult launch(sim::Device& device, sim::DSpan<const float> xs,
                           sim::DSpan<float> ys, mat::Index columns) {
    const auto row_ptr = csr_.row_ptr.cspan();
    const auto col_idx = csr_.col_idx.cspan();
    const auto val = csr_.val.cspan();
    const mat::Index nrows = nrows_;
    const unsigned v = vector_width_;
    const unsigned rows_per_warp = sim::kWarpSize / v;

    const std::uint64_t warps = (nrows + rows_per_warp - 1) / rows_per_warp;
    const auto body = [&, v, rows_per_warp](sim::WarpCtx& ctx, std::uint64_t w,
                                            sim::DSpan<const float> x, sim::DSpan<float> y) {
      sim::Lanes<std::uint32_t> rows{};
      std::uint32_t row_mask = 0;  // lanes whose sub-warp has a valid row
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        const std::uint64_t r = w * rows_per_warp + lane / v;
        if (r < nrows) {
          rows[lane] = static_cast<std::uint32_t>(r);
          row_mask |= 1u << lane;
        }
      }
      if (row_mask == 0) {
        return;
      }
      ctx.range_push("row_ptr");
      const auto begin = ctx.gather(row_ptr, rows, row_mask);
      sim::Lanes<std::uint32_t> rows1 = rows;
      for (auto& r : rows1) {
        ++r;
      }
      const auto end = ctx.gather(row_ptr, rows1, row_mask);
      ctx.range_pop();

      ctx.range_push("accumulate");
      sim::Lanes<float> acc{};
      std::uint32_t k = 0;
      while (true) {
        std::uint32_t mask = 0;
        sim::Lanes<std::uint32_t> idx{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          if ((row_mask >> lane) & 1u) {
            const std::uint32_t i = begin[lane] + lane % v + k * v;
            if (i < end[lane]) {
              idx[lane] = i;
              mask |= 1u << lane;
            }
          }
        }
        if (mask == 0) {
          break;
        }
        ctx.charge(sim::OpClass::Branch, sim::active_lanes(row_mask));
        const auto cols = ctx.gather(col_idx, idx, mask);
        const auto vals = ctx.gather(val, idx, mask);
        const auto xv = ctx.gather(x, cols, mask);
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          if ((mask >> lane) & 1u) {
            acc[lane] += vals[lane] * xv[lane];
          }
        }
        ctx.charge(sim::OpClass::Fma, sim::active_lanes(mask));
        ++k;
      }
      ctx.range_pop();

      // Butterfly reduction within each sub-warp of v lanes.
      ctx.range_push("reduce_store");
      for (unsigned delta = v / 2; delta > 0; delta /= 2) {
        sim::Lanes<std::uint32_t> src{};
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          src[lane] = lane ^ delta;
        }
        const auto other = ctx.shfl(acc, src, row_mask);
        for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
          if ((row_mask >> lane) & 1u) {
            acc[lane] += other[lane];
          }
        }
        ctx.charge(sim::OpClass::FpAlu, sim::active_lanes(row_mask));
      }

      // Lane 0 of each sub-warp writes the row result.
      std::uint32_t store_mask = 0;
      for (unsigned lane = 0; lane < sim::kWarpSize; ++lane) {
        if (((row_mask >> lane) & 1u) && lane % v == 0) {
          store_mask |= 1u << lane;
        }
      }
      ctx.scatter(y, rows, acc, store_mask);
      ctx.range_pop();
    };
    return launch_column_grid(device, "csr_vector", warps, xs, ys, columns, ncols_, nrows_,
                              body);
  }

  DeviceCsr csr_;
  sim::Buffer<std::uint32_t> workspace_;
  unsigned vector_width_ = 32;
};

}  // namespace

std::unique_ptr<SpmvKernel> make_csr_vector() { return std::make_unique<CsrVectorKernel>(); }

}  // namespace spaden::kern
